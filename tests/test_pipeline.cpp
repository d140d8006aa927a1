// Integration tests for the defense pipeline and fine-tuning on a tiny
// federation, plus the adaptive-attack staging helpers.
#include <gtest/gtest.h>

#include "comm/faulty_network.h"
#include "defense/majority_vote.h"
#include "defense/pipeline.h"
#include "fl/adaptive_attack.h"
#include "test_util.h"

using namespace fedcleanse;
using namespace fedcleanse::defense;

namespace {

fl::SimulationConfig pipeline_config(std::uint64_t seed = 21) {
  auto cfg = testutil::tiny_sim_config(seed);
  cfg.rounds = 3;
  return cfg;
}

// The mean of the accuracies `reporters` would report for the server's
// current model, asked directly instead of over the wire and summed in
// reporter order.
double mean_reported_accuracy(fl::Simulation& sim, const std::vector<int>& reporters) {
  const auto params = sim.server().params();
  double sum = 0.0;
  for (int c : reporters) sum += sim.client(c).report_accuracy(params);
  return sum / static_cast<double>(reporters.size());
}

}  // namespace

TEST(Pipeline, RunsAllStagesAndReports) {
  fl::Simulation sim(pipeline_config());
  sim.run(false);
  DefenseConfig cfg;
  cfg.finetune.max_rounds = 2;
  auto report = run_defense(sim, cfg);

  EXPECT_GT(report.training.test_acc, 0.0);
  EXPECT_GE(report.neurons_pruned, 0);
  EXPECT_GE(report.weights_zeroed, 0);
  EXPECT_TRUE(report.phase_seconds.count("pruning"));
  EXPECT_TRUE(report.phase_seconds.count("fine-tuning"));
  EXPECT_TRUE(report.phase_seconds.count("adjust-weights"));
  // The prune mask on the live model matches the reported count.
  auto& layer = sim.server().model().net.layer(sim.server().model().last_conv_index);
  int pruned = 0;
  for (int u = 0; u < layer.prunable_units(); ++u) pruned += layer.unit_active(u) ? 0 : 1;
  EXPECT_EQ(pruned, report.neurons_pruned);
}

TEST(Pipeline, StagesCanBeDisabled) {
  fl::Simulation sim(pipeline_config(22));
  sim.run(false);
  DefenseConfig cfg;
  cfg.enable_finetune = false;
  cfg.enable_adjust_weights = false;
  auto report = run_defense(sim, cfg);
  EXPECT_EQ(report.finetune.rounds_run, 0);
  EXPECT_EQ(report.weights_zeroed, 0);
  EXPECT_FALSE(report.phase_seconds.count("fine-tuning"));
  EXPECT_EQ(report.after_ft.test_acc, report.after_fp.test_acc);
}

TEST(Pipeline, PruningNeverDropsAccuracyBelowFloor) {
  fl::Simulation sim(pipeline_config(23));
  sim.run(false);
  const double baseline = sim.server().validation_accuracy();
  DefenseConfig cfg;
  cfg.enable_finetune = false;
  cfg.enable_adjust_weights = false;
  cfg.prune_acc_drop = 0.05;
  run_defense(sim, cfg);
  EXPECT_GE(sim.server().validation_accuracy(), baseline - 0.05 - 1e-9);
}

TEST(Pipeline, ClientAccuracyOracleWorks) {
  fl::Simulation sim(pipeline_config(24));
  sim.run(false);
  DefenseConfig cfg;
  cfg.use_client_accuracy = true;  // server has no validation data
  cfg.finetune.max_rounds = 1;
  EXPECT_NO_THROW(run_defense(sim, cfg));
}

TEST(Pipeline, ClientAccuracyOracleIsMeanOfValidReports) {
  // Pruning only: the final oracle reading is taken at the parameters the
  // server ends with, so it can be recomputed afterwards.
  DefenseConfig dcfg;
  dcfg.use_client_accuracy = true;
  dcfg.enable_finetune = false;
  dcfg.enable_adjust_weights = false;

  {
    fl::Simulation sim(pipeline_config(28));
    sim.run(false);
    const auto report = run_defense(sim, dcfg);
    EXPECT_DOUBLE_EQ(report.prune.final_accuracy,
                     mean_reported_accuracy(sim, sim.all_client_ids()));
  }

  // Lossy wire: one straggler whose every reply is delayed — a delayed reply
  // surfaces two dispatches later, so the straggler only ever reports on the
  // second retry — and one other client that goes silent from the first
  // accuracy request on (its round tag is 3000).
  auto cfg = pipeline_config(28);
  cfg.fault.straggler_fraction = 0.25;
  cfg.fault.straggler_miss_rate = 1.0;
  cfg.fault.max_request_retries = 2;
  cfg.fault.recv_timeout_ms = 2;
  int straggler = -1;
  {
    fl::Simulation probe(cfg);
    for (int c = 0; c < cfg.n_clients; ++c) {
      if (probe.faulty_network()->model().straggler(c)) straggler = c;
    }
  }
  ASSERT_GE(straggler, 0);
  const int silent = (straggler + 1) % cfg.n_clients;
  cfg.fault.crash_schedule = {{silent, 3000}};
  fl::Simulation sim(cfg);
  ASSERT_TRUE(sim.faulty_network()->model().straggler(straggler));
  sim.run(false);
  const auto report = run_defense(sim, dcfg);

  std::vector<int> reporters;
  std::vector<int> first_try_reporters;
  for (int c = 0; c < cfg.n_clients; ++c) {
    if (c != silent) reporters.push_back(c);
    if (c != silent && c != straggler) first_try_reporters.push_back(c);
  }
  const double expected = mean_reported_accuracy(sim, reporters);
  EXPECT_DOUBLE_EQ(report.prune.final_accuracy, expected);
  // The reading must tell both faults apart: dividing by every client asked,
  // or losing the straggler's retried report, gives a different value.
  EXPECT_GT(expected, 0.0);
  EXPECT_NE(expected, mean_reported_accuracy(sim, first_try_reporters));
}

TEST(Pipeline, RapAndMvpBothProduceFullOrders) {
  fl::Simulation sim(pipeline_config(25));
  sim.run(false);
  const int units =
      sim.server().model().net.layer(sim.server().model().last_conv_index).prunable_units();
  for (auto method : {PruneMethod::kRAP, PruneMethod::kMVP}) {
    DefenseConfig cfg;
    cfg.method = method;
    auto order = federated_pruning_order(sim, cfg);
    EXPECT_EQ(static_cast<int>(order.size()), units) << prune_method_name(method);
  }
}

TEST(FineTune, BroadcastsMasksAndKeepsBest) {
  fl::Simulation sim(pipeline_config(26));
  sim.run(false);
  auto& model = sim.server().model();
  model.net.layer(model.last_conv_index).set_unit_active(1, false);

  FineTuneConfig cfg;
  cfg.max_rounds = 2;
  auto outcome = federated_finetune(sim, cfg);
  EXPECT_GE(outcome.rounds_run, 1);
  EXPECT_EQ(outcome.history.size(), static_cast<std::size_t>(outcome.rounds_run));
  // Pruned unit stayed dead through fine-tuning, on server and clients.
  EXPECT_FALSE(model.net.layer(model.last_conv_index).unit_active(1));
  for (int c : sim.all_client_ids()) {
    EXPECT_FALSE(sim.client(c).model().net.layer(model.last_conv_index).unit_active(1));
  }
}

TEST(FineTune, ScalesClientLearningRate) {
  fl::Simulation sim(pipeline_config(27));
  sim.run(false);
  const double lr_before = sim.client(1).lr();
  FineTuneConfig cfg;
  cfg.max_rounds = 1;
  cfg.lr_scale = 0.25;
  federated_finetune(sim, cfg);
  EXPECT_NEAR(sim.client(1).lr(), lr_before * 0.25, 1e-12);
}

// --- adaptive attacks -----------------------------------------------------------

TEST(AdaptiveAttack, AnticipatedMasksPruneRequestedFraction) {
  fl::Simulation sim(pipeline_config(28));
  sim.run(false);
  auto masks = fl::anticipate_prune_masks(sim, 0.5);
  const auto& model = sim.server().model();
  const auto& mask = masks[static_cast<std::size_t>(model.last_conv_index)];
  int pruned = 0;
  for (auto v : mask) pruned += v == 0 ? 1 : 0;
  EXPECT_EQ(pruned, static_cast<int>(0.5 * mask.size()));
}

TEST(AdaptiveAttack, ArmingSetsAttackerMasks) {
  auto cfg = pipeline_config(29);
  cfg.attack.adaptive = fl::AdaptiveMode::kPruneAware;
  fl::Simulation sim(cfg);
  fl::arm_prune_aware_attackers(sim, 0.5);
  // A pruning-aware attacker trains with the mask applied; its update for
  // masked channels is therefore zero.
  auto global = sim.server().params();
  auto update = sim.client(0).compute_update(global);
  // The masked conv channels contribute zero delta: spot-check via model.
  const auto& model = sim.client(0).model();
  auto& layer = model.net.layer(model.last_conv_index);
  int masked = 0;
  for (int u = 0; u < layer.prunable_units(); ++u) masked += layer.unit_active(u) ? 0 : 1;
  EXPECT_GT(masked, 0);
  (void)update;
}

TEST(AdaptiveAttack, RankManipulationPromotesBackdoorNeurons) {
  auto cfg = pipeline_config(30);
  cfg.rounds = 2;
  fl::Simulation sim(cfg);
  sim.run(false);
  auto global = sim.server().params();

  auto& attacker = sim.client(0);
  auto honest_votes = attacker.vote_report(global, 0.5);

  // Same client, adaptive mode: ballots still meet the quota.
  auto cfg2 = pipeline_config(30);
  cfg2.rounds = 2;
  cfg2.attack.adaptive = fl::AdaptiveMode::kRankManipulation;
  fl::Simulation sim2(cfg2);
  sim2.run(false);
  auto votes = sim2.client(0).vote_report(sim2.server().params(), 0.5);
  std::size_t cast = 0;
  for (auto v : votes) cast += v;
  EXPECT_EQ(cast, defense::expected_votes(static_cast<int>(votes.size()), 0.5));
  (void)honest_votes;
}

TEST(AdaptiveAttack, SelfAdjustProducesValidUpdate) {
  auto cfg = pipeline_config(31);
  cfg.attack.adaptive = fl::AdaptiveMode::kSelfAdjust;
  fl::Simulation sim(cfg);
  EXPECT_NO_THROW(sim.run(false));
}
