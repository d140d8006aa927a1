// fedcleanse_cli — flag-driven experiment runner.
//
// Configure the dataset, attack, and defense from the command line, train a
// federated model, run the cleanse pipeline, and optionally checkpoint the
// cleansed model to disk.
//
// Examples:
//   fedcleanse_cli --dataset digits --rounds 25 --attackers 1 --gamma 5
//                  --victim 9 --target 1 --pixels 5 --method mvp
//   fedcleanse_cli --dataset objects --dba --attackers 4 --save model.fckp
//   fedcleanse_cli --dataset fashion --no-finetune --rap
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "cli_numbers.h"
#include "common/logging.h"
#include "defense/pipeline.h"
#include "fl/run_state.h"
#include "fl/simulation.h"
#include "nn/checkpoint.h"
#include "obs/journal.h"
#include "obs/registry.h"
#include "obs/trace.h"

using namespace fedcleanse;

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --dataset digits|fashion|objects   task (default digits)\n"
      "  --clients N        number of clients (default 10)\n"
      "  --attackers N      number of malicious clients (default 1)\n"
      "  --rounds N         training rounds (default 25)\n"
      "  --labels K         labels per client, non-IID (default 3)\n"
      "  --select N         clients sampled per round (default: all)\n"
      "  --samples-per-client N  local dataset size (default: even split)\n"
      "  --residency auto|materialized|virtual  client storage engine\n"
      "                     (auto = virtual for sampled populations >= 4096;\n"
      "                     e.g. --clients 1000000 --select 10 stays O(cohort))\n"
      "  --gamma G          model replacement amplification (default 5)\n"
      "  --victim L         victim label (default 9)\n"
      "  --target L         attack label (default 1)\n"
      "  --pixels N         trigger pixel count 1|3|5|7|9 (default 5)\n"
      "  --dba              split the trigger across attackers (DBA)\n"
      "  --rap | --mvp      pruning method (default mvp)\n"
      "  --prune-rate P     MVP vote rate (default 0.5)\n"
      "  --no-finetune      skip the fine-tuning stage\n"
      "  --no-aw            skip adjusting extreme weights\n"
      "  --scan-quant f32|int8  GEMM kernel for defense activation scans\n"
      "                     (default f32; int8 speeds profiling)\n"
      "  --update-codec f32|int8    wire codec for client model updates\n"
      "                     (int8 shrinks uplink ~4x; aggregation stays fp32)\n"
      "  --save PATH        checkpoint the cleansed model\n"
      "  --seed S           RNG seed (default 42)\n"
      "  --journal-out PATH write a JSONL run journal (one line per round)\n"
      "  --trace-out PATH   write a Chrome trace_event file (Perfetto-loadable)\n"
      "  --checkpoint-dir D write rotated crash-resume snapshots into D\n"
      "  --checkpoint-every N  snapshot every N rounds (default 5)\n"
      "  --resume           continue from the newest snapshot in --checkpoint-dir\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  common::init_log_level_from_env();
  obs::init_from_env();
  std::unique_ptr<obs::Journal> journal;
  fl::SimulationConfig cfg;
  cfg.rounds = 25;
  cfg.attack.victim_label = 9;
  cfg.attack.attack_label = 1;
  cfg.attack.gamma = 5.0;
  cfg.attack.poison_copies = 2;
  cfg.seed = 42;
  int pixels = 5;
  defense::DefenseConfig dcfg;
  dcfg.aw_acc_drop = 0.05;
  std::string save_path;
  std::string journal_path;
  std::string checkpoint_dir;
  int checkpoint_every = 5;
  bool resume = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    auto next_int = [&]() -> int { return cli::int_or_exit(arg.c_str(), next()); };
    auto next_double = [&]() -> double {
      const std::string v = next();
      char* end = nullptr;
      const double x = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !std::isfinite(x)) {
        std::fprintf(stderr, "%s wants a decimal number, got '%s'\n", arg.c_str(), v.c_str());
        std::exit(2);
      }
      return x;
    };
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--dataset") {
      const std::string v = next();
      if (v == "digits") {
        cfg.dataset = data::SynthKind::kDigits;
        cfg.arch = nn::Architecture::kMnistCnn;
      } else if (v == "fashion") {
        cfg.dataset = data::SynthKind::kFashion;
        cfg.arch = nn::Architecture::kFashionCnn;
      } else if (v == "objects") {
        cfg.dataset = data::SynthKind::kObjects;
        cfg.arch = nn::Architecture::kVggSmall;
        cfg.train.lr = 0.2;
      } else {
        std::fprintf(stderr, "unknown dataset %s\n", v.c_str());
        return 2;
      }
    } else if (arg == "--clients") {
      cfg.n_clients = next_int();
    } else if (arg == "--attackers") {
      cfg.n_attackers = next_int();
    } else if (arg == "--rounds") {
      cfg.rounds = next_int();
    } else if (arg == "--labels") {
      cfg.labels_per_client = next_int();
    } else if (arg == "--select") {
      cfg.clients_per_round = next_int();
    } else if (arg == "--samples-per-client") {
      cfg.samples_per_client = next_int();
    } else if (arg == "--residency") {
      const std::string v = next();
      if (v == "auto") {
        cfg.residency = fl::ClientResidency::kAuto;
      } else if (v == "materialized") {
        cfg.residency = fl::ClientResidency::kMaterialized;
      } else if (v == "virtual") {
        cfg.residency = fl::ClientResidency::kVirtual;
      } else {
        std::fprintf(stderr, "unknown residency %s\n", v.c_str());
        return 2;
      }
    } else if (arg == "--gamma") {
      cfg.attack.gamma = next_double();
    } else if (arg == "--victim") {
      cfg.attack.victim_label = next_int();
    } else if (arg == "--target") {
      cfg.attack.attack_label = next_int();
    } else if (arg == "--pixels") {
      pixels = next_int();
    } else if (arg == "--dba") {
      cfg.dba = true;
    } else if (arg == "--rap") {
      dcfg.method = defense::PruneMethod::kRAP;
    } else if (arg == "--mvp") {
      dcfg.method = defense::PruneMethod::kMVP;
    } else if (arg == "--prune-rate") {
      dcfg.vote_prune_rate = next_double();
    } else if (arg == "--no-finetune") {
      dcfg.enable_finetune = false;
    } else if (arg == "--no-aw") {
      dcfg.enable_adjust_weights = false;
    } else if (arg == "--scan-quant") {
      const std::string v = next();
      const auto kernel = tensor::parse_compute_kernel(v);
      if (!kernel) {
        std::fprintf(stderr, "unknown scan kernel %s (want f32|int8)\n", v.c_str());
        return 2;
      }
      cfg.train.scan_kernel = *kernel;
    } else if (arg == "--update-codec") {
      const std::string v = next();
      const auto codec = comm::parse_update_codec(v);
      if (!codec) {
        std::fprintf(stderr, "unknown update codec %s (want f32|int8)\n", v.c_str());
        return 2;
      }
      cfg.train.update_codec = *codec;
    } else if (arg == "--save") {
      save_path = next();
    } else if (arg == "--seed") {
      cfg.seed = cli::u64_or_exit("--seed", next());
    } else if (arg == "--journal-out") {
      journal_path = next();
    } else if (arg == "--checkpoint-dir") {
      checkpoint_dir = next();
    } else if (arg == "--checkpoint-every") {
      checkpoint_every = next_int();
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--trace-out") {
      obs::set_trace_path(next());
      obs::set_metrics_enabled(true);
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  if (resume && checkpoint_dir.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint-dir\n");
    return 2;
  }
  if (!journal_path.empty()) {
    // A resumed run appends (the snapshot's {"kind":"resume"} line marks the
    // boundary) instead of clobbering the crashed run's rounds.
    journal = std::make_unique<obs::Journal>(journal_path, resume);
    if (!journal->ok()) {
      std::fprintf(stderr, "cannot open journal %s\n", journal_path.c_str());
      return 2;
    }
    obs::set_ambient_journal(journal.get());
    obs::set_metrics_enabled(true);
  }

  if (cfg.n_attackers > 0) {
    cfg.attack.pattern = cfg.dba && cfg.dataset == data::SynthKind::kObjects
                             ? data::make_dba_global_pattern(16, 16)
                             : (cfg.dba ? data::make_dba_global_pattern(20, 20)
                                        : data::make_pixel_pattern(pixels));
  }

  std::printf("training: %d clients (%d malicious), %d rounds, %d-label non-IID\n",
              cfg.n_clients, cfg.n_attackers, cfg.rounds, cfg.labels_per_client);
  std::unique_ptr<fl::Simulation> owned_sim;
  try {
    owned_sim = std::make_unique<fl::Simulation>(cfg);
  } catch (const Error& e) {
    std::fprintf(stderr, "invalid configuration: %s\n", e.what());
    return 2;
  }
  fl::Simulation& sim = *owned_sim;
  std::unique_ptr<fl::CheckpointManager> manager;
  std::optional<fl::RunSnapshot> resumed;
  if (!checkpoint_dir.empty()) {
    manager = std::make_unique<fl::CheckpointManager>(checkpoint_dir, checkpoint_every);
    if (resume) {
      resumed = manager->load_latest();
      if (resumed) {
        fl::resume_simulation(sim, *resumed);
        std::printf("  resumed from %s snapshot (next round %d)\n",
                    resumed->stage.c_str(), resumed->next_round);
      } else {
        std::printf("  no snapshot in %s; starting fresh\n", checkpoint_dir.c_str());
      }
    }
    sim.set_checkpoint_manager(manager.get());
  }
  sim.run();
  std::printf("  trained: TA=%.3f AA=%.3f\n", sim.test_accuracy(), sim.attack_success());

  if (cfg.n_attackers > 0) {
    std::printf("defending (%s%s%s)...\n", prune_method_name(dcfg.method),
                dcfg.enable_finetune ? " + fine-tune" : "",
                dcfg.enable_adjust_weights ? " + adjust-weights" : "");
    auto report = defense::run_defense(sim, dcfg, manager.get(),
                                       resumed ? &*resumed : nullptr);
    std::printf("  after FP: TA=%.3f AA=%.3f (%d pruned)\n", report.after_fp.test_acc,
                report.after_fp.attack_acc, report.neurons_pruned);
    std::printf("  after FT: TA=%.3f AA=%.3f\n", report.after_ft.test_acc,
                report.after_ft.attack_acc);
    std::printf("  after AW: TA=%.3f AA=%.3f (%d zeroed, delta=%.2f)\n",
                report.after_aw.test_acc, report.after_aw.attack_acc,
                report.weights_zeroed, report.adjust.final_delta);
    for (const auto& [phase, seconds] : report.phase_seconds) {
      std::printf("  %s: %.2fs\n", phase.c_str(), seconds);
    }
  }

  if (!save_path.empty()) {
    nn::save_model_file(sim.server().model(), save_path);
    std::printf("saved cleansed model to %s\n", save_path.c_str());
  }

  if (journal) {
    FC_LOG(Info) << "run journal: " << journal->path() << " (" << journal->lines_written()
                 << " lines)";
    obs::set_ambient_journal(nullptr);
  }
  if (obs::flush_trace()) {
    FC_LOG(Info) << "chrome trace: " << obs::trace_path();
  }
  return 0;
}
