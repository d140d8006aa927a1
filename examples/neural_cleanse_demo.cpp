// Neural Cleanse demo: reverse-engineer the implanted trigger from a
// backdoored federated model, flag the attacked label by MAD outlier
// detection on the reconstructed-mask norms, and mitigate by pruning.
//
// Renders the reconstructed trigger mask for the flagged label as ASCII art
// so you can see the recovered trigger location.
//
// Usage: neural_cleanse_demo [seed]
#include <cstdio>

#include "baselines/neural_cleanse.h"
#include "cli.h"
#include "common/logging.h"
#include "fl/metrics.h"
#include "fl/simulation.h"

using namespace fedcleanse;

int main(int argc, char** argv) {
  common::init_log_level_from_env();
  fl::SimulationConfig cfg;
  cfg.rounds = 20;
  cfg.attack.pattern = data::make_pixel_pattern(5);
  cfg.attack.victim_label = 9;
  cfg.attack.attack_label = 1;
  cfg.attack.gamma = 5.0;
  cfg.attack.poison_copies = 2;
  cli::parse(argc, argv, {cli::u64("seed", "", "RNG seed", cfg.seed)});

  std::printf("Training backdoored model (9 -> 1, 5-pixel trigger)...\n");
  fl::Simulation sim(cfg);
  sim.run(false);
  std::printf("  TA=%.3f  AA=%.3f\n\n", sim.test_accuracy(), sim.attack_success());

  auto model = sim.server().model().clone();
  baselines::NeuralCleanseConfig ncfg;
  ncfg.optimization_steps = 150;
  std::printf("Reverse-engineering triggers for all 10 labels...\n");
  auto report = baselines::run_neural_cleanse(model, sim.test_set(), ncfg);

  std::printf("label  mask-L1  anomaly  flip-rate\n");
  for (int l = 0; l < 10; ++l) {
    std::printf("  %d    %7.2f   %5.2f    %.3f\n", l, report.triggers[l].mask_l1,
                report.anomaly_index[l], report.triggers[l].flip_rate);
  }
  std::printf("flagged labels:");
  for (int l : report.flagged_labels) std::printf(" %d", l);
  std::printf("\n\n");

  for (int l : report.flagged_labels) {
    const auto& mask = report.triggers[static_cast<std::size_t>(l)].mask;
    std::printf("reconstructed trigger mask for label %d:\n", l);
    for (int y = 0; y < mask.shape()[1]; ++y) {
      for (int x = 0; x < mask.shape()[2]; ++x) {
        const float m = mask.at(0, y, x);
        std::putchar(m > 0.5f ? '#' : (m > 0.2f ? '+' : '.'));
      }
      std::putchar('\n');
    }
  }

  std::printf("\nmitigation: pruned %d neurons; clean accuracy %.3f -> %.3f\n",
              report.neurons_pruned, report.accuracy_before, report.accuracy_after);
  std::printf("attack success after mitigation: %.3f\n",
              fl::attack_success_rate(model.net, sim.backdoor_testset()));
  return 0;
}
