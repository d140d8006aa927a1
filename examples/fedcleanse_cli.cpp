// fedcleanse_cli — flag-driven experiment runner.
//
// Configure the dataset, attack, and defense from the command line, train a
// federated model, run the cleanse pipeline, and optionally checkpoint the
// cleansed model to disk.
//
// Examples:
//   fedcleanse_cli --dataset digits --rounds 25 --attackers 1 --gamma 5
//                  --victim 9 --target 1 --pixels 5 --mvp
//   fedcleanse_cli --dataset objects --dba --attackers 4 --save model.fckp
//   fedcleanse_cli --dataset fashion --no-finetune --rap
//
// `fedcleanse_cli --help` lists every flag with its default. A malformed
// flag or a config the simulation rejects exits 2.
#include <cstdio>
#include <string>

#include "run_setup.h"

using namespace fedcleanse;

int main(int argc, char** argv) {
  common::init_log_level_from_env();
  obs::init_from_env();
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
  run::Options opt;

  cli::Table rows = {
      cli::choice("--dataset", "digits|fashion|objects", "task (default digits)", "dataset",
                  [&](const std::string& v) {
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
                      return false;
                    }
                    return true;
                  }),
      cli::integer("--clients", "N", "number of clients", cfg.n_clients),
      cli::integer("--attackers", "N", "number of malicious clients", cfg.n_attackers),
      cli::integer("--rounds", "N", "training rounds", cfg.rounds),
      cli::integer("--labels", "K", "labels per client, non-IID", cfg.labels_per_client),
      cli::integer("--select", "N", "clients sampled per round; 0 = all", cfg.clients_per_round),
      cli::integer("--samples-per-client", "N", "local dataset size; 0 = even split",
                   cfg.samples_per_client),
      cli::choice("--residency", "auto|materialized|virtual",
                  "client storage engine; auto = virtual for sampled populations >= 4096 "
                  "(default auto)",
                  "residency",
                  [&](const std::string& v) {
                    if (v == "auto") {
                      cfg.residency = fl::ClientResidency::kAuto;
                    } else if (v == "materialized") {
                      cfg.residency = fl::ClientResidency::kMaterialized;
                    } else if (v == "virtual") {
                      cfg.residency = fl::ClientResidency::kVirtual;
                    } else {
                      return false;
                    }
                    return true;
                  }),
      cli::real("--gamma", "G", "model replacement amplification", cfg.attack.gamma),
      cli::integer("--victim", "L", "victim label", cfg.attack.victim_label),
      cli::integer("--target", "L", "attack label", cfg.attack.attack_label),
      cli::integer("--pixels", "N", "trigger pixel count, 1..9", pixels),
      cli::toggle("--dba", "split the trigger across attackers (DBA)", [&] { cfg.dba = true; }),
      cli::toggle("--rap", "prune by ranked activations (RAP)",
                  [&] { dcfg.method = defense::PruneMethod::kRAP; }),
      cli::toggle("--mvp", "prune by majority vote (MVP, the default)",
                  [&] { dcfg.method = defense::PruneMethod::kMVP; }),
      cli::real("--prune-rate", "P", "MVP vote rate", dcfg.vote_prune_rate),
      cli::toggle("--no-finetune", "skip the fine-tuning stage",
                  [&] { dcfg.enable_finetune = false; }),
      cli::toggle("--no-aw", "skip adjusting extreme weights",
                  [&] { dcfg.enable_adjust_weights = false; }),
      cli::u64("--seed", "S", "RNG seed", cfg.seed),
      run::save_flag(opt),
  };
  for (cli::Flag& f : run::flags(opt)) rows.push_back(std::move(f));
  cli::parse(argc, argv, rows);
  run::Session session("fedcleanse_cli", argc, argv, opt);
  cfg.train.scan_kernel = opt.scan_kernel;
  cfg.train.update_codec = opt.update_codec;

  if (cfg.n_attackers > 0) {
    cfg.attack.pattern = run::valid_or_exit([&] {
      if (cfg.dba) {
        return cfg.dataset == data::SynthKind::kObjects ? data::make_dba_global_pattern(16, 16)
                                                        : data::make_dba_global_pattern(20, 20);
      }
      return data::make_pixel_pattern(pixels);
    });
  }

  std::printf("training: %d clients (%d malicious), %d rounds, %d-label non-IID\n",
              cfg.n_clients, cfg.n_attackers, cfg.rounds, cfg.labels_per_client);
  auto sim = run::valid_or_exit([&] { return std::make_unique<fl::Simulation>(cfg); });
  session.attach(*sim);
  sim->run();
  std::printf("  trained: TA=%.3f AA=%.3f\n", sim->test_accuracy(), sim->attack_success());

  if (cfg.n_attackers > 0) {
    std::printf("defending (%s%s%s)...\n", prune_method_name(dcfg.method),
                dcfg.enable_finetune ? " + fine-tune" : "",
                dcfg.enable_adjust_weights ? " + adjust-weights" : "");
    const auto report = session.defend(*sim, dcfg);
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
  session.save(sim->server().model());
  return 0;
}
