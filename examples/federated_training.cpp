// Federated training dynamics demo (the Fig 3 style view).
//
// Trains a federated model and prints per-round test accuracy and attack
// success rate. Useful for eyeballing convergence under different non-IID
// distributions and attack settings.
//
// Usage: federated_training [rounds] [labels_per_client] [gamma] [n_attackers] [seed] [lr] [epochs] [spc]
#include <cstdio>

#include "cli.h"
#include "common/logging.h"
#include "fl/simulation.h"
#include "obs/trace.h"

using namespace fedcleanse;

int main(int argc, char** argv) {
  common::init_log_level_from_env();
  obs::init_from_env();  // FEDCLEANSE_TRACE=path enables span tracing
  fl::SimulationConfig cfg;
  cfg.arch = nn::Architecture::kMnistCnn;
  cfg.dataset = data::SynthKind::kDigits;
  cfg.rounds = 20;
  cfg.attack.gamma = 5.0;
  cli::parse(argc, argv,
             {cli::integer("rounds", "", "training rounds", cfg.rounds),
              cli::integer("labels_per_client", "", "labels per client, non-IID",
                           cfg.labels_per_client),
              cli::real("gamma", "", "model replacement amplification", cfg.attack.gamma),
              cli::integer("n_attackers", "", "malicious clients", cfg.n_attackers),
              cli::u64("seed", "", "RNG seed", cfg.seed),
              cli::real("lr", "", "local learning rate", cfg.train.lr),
              cli::integer("epochs", "", "local epochs per round", cfg.train.local_epochs),
              cli::integer("spc", "", "training samples per class",
                           cfg.samples_per_class_train)});
  cfg.attack.pattern = data::make_pixel_pattern(5);
  cfg.attack.victim_label = 9;
  cfg.attack.attack_label = 1;
  cfg.attack.poison_copies = 2;

  fl::Simulation sim(cfg);
  std::printf("round   TA      AA\n");
  for (int r = 0; r < cfg.rounds; ++r) {
    sim.run_round(static_cast<std::uint32_t>(r));
    std::printf("%4d  %.3f  %.3f\n", r, sim.test_accuracy(), sim.attack_success());
  }
  obs::flush_trace();
  return 0;
}
