// Quickstart: train a backdoored federated model, then cleanse it.
//
// 10 clients (1 malicious) train a small CNN on the synthetic digit task
// with a 3-label non-IID distribution. The attacker poisons digit 9 with a
// 5-pixel trigger (target label 1) and uses model replacement. We then run
// the full defense pipeline — federated pruning (majority vote), federated
// fine-tuning, and adjusting extreme weights — and print the test accuracy
// (TA) and attack success rate (AA) after every stage.
//
// Usage: quickstart [seed] [--clients N] [--select K]
//                   [--scan-quant f32|int8] [--update-codec f32|int8]
//                   [--journal-out run.jsonl] [--trace-out trace.json]
//                   [--checkpoint-dir DIR] [--checkpoint-every N] [--resume]
//                   [--save model.fckp]
//
// --clients scales the population (--clients 1000000 is a valid, memory-flat
// run: large populations switch to the virtual-client engine, which keeps
// only the sampled cohort resident — DESIGN.md §14). --select sets the
// per-round cohort size; when omitted for a scaled population, 10 clients
// are sampled per round.
//
// Telemetry is opt-in and never changes the run: with --journal-out a JSONL
// run journal (one line per round; validate/tabulate with
// scripts/journal_check.py) is written, with --trace-out (or FEDCLEANSE_TRACE)
// a Chrome trace_event file loadable in chrome://tracing or
// https://ui.perfetto.dev — stdout and the trained model bytes stay identical
// either way.
//
// With --checkpoint-dir the run writes rotated crash-resume snapshots every
// --checkpoint-every rounds (DESIGN.md §13); kill the process at any point
// and rerun with --resume added to continue from the newest snapshot — the
// final model is byte-identical to the uninterrupted run.
//
// The seed is a bare decimal number; any other unrecognized argument, a flag
// missing its value, or a numeric flag whose value is not a whole decimal
// number exits 2.
//
// --scan-quant int8 runs the defense's activation-profiling scans under the
// int8 GEMM kernel (training math stays fp32). --update-codec
// int8 quantizes client→server update payloads on the wire (~4x smaller
// uplink); the server dequantizes before aggregation. EXPERIMENTS.md records
// the measured TA/AA deltas for both knobs.
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "common/logging.h"
#include "defense/pipeline.h"
#include "fl/run_state.h"
#include "fl/simulation.h"
#include "nn/checkpoint.h"
#include "obs/journal.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "tensor/quant.h"

using namespace fedcleanse;

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [seed] [--clients N] [--select K]\n"
               "       [--scan-quant f32|int8] [--update-codec f32|int8]\n"
               "       [--journal-out run.jsonl] [--trace-out trace.json]\n"
               "       [--checkpoint-dir DIR] [--checkpoint-every N] [--resume]\n"
               "       [--save model.fckp]\n",
               argv0);
}

bool is_seed(const char* arg) {
  if (*arg == '\0') return false;
  for (const char* c = arg; *c != '\0'; ++c) {
    if (*c < '0' || *c > '9') return false;
  }
  return true;
}

// A whole decimal number (optional leading '-') that fits an int, or nullopt.
std::optional<int> parse_int(const char* v) {
  if (!is_seed(*v == '-' ? v + 1 : v)) return std::nullopt;
  errno = 0;
  const long n = std::strtol(v, nullptr, 10);
  if (errno == ERANGE || n < INT_MIN || n > INT_MAX) return std::nullopt;
  return static_cast<int>(n);
}

}  // namespace

int main(int argc, char** argv) {
  common::init_log_level_from_env();
  obs::init_from_env();
  std::uint64_t seed = 42;
  std::string journal_path;
  std::string checkpoint_dir;
  std::string save_path;
  int checkpoint_every = 5;
  int clients = 0;  // 0 = the default 10-client demo
  int select = -1;  // per-round cohort; -1 = derive from the population
  bool resume = false;
  tensor::ComputeKernel scan_kernel = tensor::ComputeKernel::kF32;
  comm::UpdateCodec update_codec = comm::UpdateCodec::kF32;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg);
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    auto next_int = [&]() -> int {
      const char* v = next();
      const auto n = parse_int(v);
      if (!n) {
        std::fprintf(stderr, "%s wants a whole decimal number, got '%s'\n", arg, v);
        std::exit(2);
      }
      return *n;
    };
    if (std::strcmp(arg, "--clients") == 0) {
      clients = next_int();
    } else if (std::strcmp(arg, "--scan-quant") == 0) {
      const char* v = next();
      const auto kernel = tensor::parse_compute_kernel(v);
      if (!kernel) {
        std::fprintf(stderr, "unknown scan kernel %s (want f32|int8)\n", v);
        return 2;
      }
      scan_kernel = *kernel;
    } else if (std::strcmp(arg, "--update-codec") == 0) {
      const char* v = next();
      const auto codec = comm::parse_update_codec(v);
      if (!codec) {
        std::fprintf(stderr, "unknown update codec %s (want f32|int8)\n", v);
        return 2;
      }
      update_codec = *codec;
    } else if (std::strcmp(arg, "--select") == 0) {
      select = next_int();
    } else if (std::strcmp(arg, "--journal-out") == 0) {
      journal_path = next();
    } else if (std::strcmp(arg, "--trace-out") == 0) {
      obs::set_trace_path(next());
      obs::set_metrics_enabled(true);
    } else if (std::strcmp(arg, "--checkpoint-dir") == 0) {
      checkpoint_dir = next();
    } else if (std::strcmp(arg, "--checkpoint-every") == 0) {
      checkpoint_every = next_int();
    } else if (std::strcmp(arg, "--resume") == 0) {
      resume = true;
    } else if (std::strcmp(arg, "--save") == 0) {
      save_path = next();
    } else if (is_seed(arg)) {
      seed = std::strtoull(arg, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg);
      usage(argv[0]);
      return 2;
    }
  }
  if (resume && checkpoint_dir.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint-dir\n");
    return 2;
  }

  // Identity for the journal's {"kind":"open"} line and the trace's process
  // track. A resumed run appends a second open line — the new pid marks the
  // restart boundary alongside the snapshot's {"kind":"resume"}.
  obs::set_run_identity("quickstart", obs::hash_argv(argc, argv),
                        tensor::int8_dispatch_name());
  obs::set_trace_process_name("quickstart");

  // A resumed run appends to its journal (the snapshot marks the boundary
  // with a {"kind":"resume"} line) instead of clobbering the rounds the
  // crashed run already recorded.
  std::unique_ptr<obs::Journal> journal;
  if (!journal_path.empty()) {
    journal = std::make_unique<obs::Journal>(journal_path, resume);
    if (!journal->ok()) {
      std::fprintf(stderr, "cannot open journal %s\n", journal_path.c_str());
      return 2;
    }
    obs::set_ambient_journal(journal.get());
    obs::set_metrics_enabled(true);
  }

  fl::SimulationConfig cfg;
  cfg.arch = nn::Architecture::kMnistCnn;
  cfg.dataset = data::SynthKind::kDigits;
  cfg.n_clients = 10;
  cfg.n_attackers = 1;
  cfg.rounds = 25;
  cfg.labels_per_client = 3;
  cfg.attack.pattern = data::make_pixel_pattern(5);
  cfg.attack.victim_label = 9;
  cfg.attack.attack_label = 1;
  cfg.attack.gamma = 5.0;
  cfg.attack.poison_copies = 2;
  cfg.seed = seed;
  cfg.train.scan_kernel = scan_kernel;
  cfg.train.update_codec = update_codec;
  if (clients > 0) cfg.n_clients = clients;
  if (cfg.n_clients > 10) {
    // Scaled population: 1% malicious, fixed-size local datasets (the even
    // split would starve a million clients), sampled cohorts.
    cfg.n_attackers = std::max(1, cfg.n_clients / 100);
    cfg.samples_per_client = 32;
    cfg.clients_per_round = 10;
  }
  if (select >= 0) cfg.clients_per_round = select;

  std::printf("Training %d-client federated model (%d attacker%s, trigger: %s)...\n",
              cfg.n_clients, cfg.n_attackers, cfg.n_attackers == 1 ? "" : "s",
              cfg.attack.pattern.name.c_str());
  fl::Simulation sim(cfg);
  if (sim.virtual_clients()) {
    std::printf("  virtual clients: %d of %d sampled per round, slab-resident cohort only\n",
                cfg.clients_per_round, cfg.n_clients);
  }
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
  std::printf("  after training: TA=%.3f  AA=%.3f\n", sim.test_accuracy(),
              sim.attack_success());

  defense::DefenseConfig dcfg;
  dcfg.method = defense::PruneMethod::kMVP;
  dcfg.vote_prune_rate = 0.5;

  std::printf("Running defense pipeline (FP -> FT -> AW)...\n");
  auto report = defense::run_defense(sim, dcfg, manager.get(),
                                     resumed ? &*resumed : nullptr);

  std::printf("  stage          TA      AA\n");
  std::printf("  training     %.3f   %.3f\n", report.training.test_acc,
              report.training.attack_acc);
  std::printf("  after FP     %.3f   %.3f   (%d neurons pruned)\n",
              report.after_fp.test_acc, report.after_fp.attack_acc, report.neurons_pruned);
  std::printf("  after FT     %.3f   %.3f   (%d rounds)\n", report.after_ft.test_acc,
              report.after_ft.attack_acc, report.finetune.rounds_run);
  std::printf("  after AW     %.3f   %.3f   (%d weights zeroed, delta=%.2f)\n",
              report.after_aw.test_acc, report.after_aw.attack_acc, report.weights_zeroed,
              report.adjust.final_delta);
  std::printf("Network traffic: %.2f MiB\n",
              static_cast<double>(sim.network().total_bytes()) / (1024.0 * 1024.0));

  if (!save_path.empty()) {
    nn::save_model_file(sim.server().model(), save_path);
    std::printf("saved cleansed model to %s\n", save_path.c_str());
  }

  // Telemetry artifacts land on stderr-side reporting only: stdout above is
  // byte-identical whether or not a journal/trace was requested.
  if (journal) {
    FC_LOG(Info) << "run journal: " << journal->path() << " (" << journal->lines_written()
                 << " lines)";
    obs::set_ambient_journal(nullptr);
  }
  if (obs::flush_trace()) {
    FC_LOG(Info) << "chrome trace: " << obs::trace_path()
                 << " (open in chrome://tracing or ui.perfetto.dev)";
  }
  return 0;
}
