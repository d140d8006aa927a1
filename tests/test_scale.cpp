// Million-client scale machinery: streaming aggregation equivalence against
// a buffered reference built here from the exchange's sink, virtual-client
// determinism and residency bounds, the peak-RSS probe (DESIGN.md §14), and
// the pinned malloc thresholds.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <set>

#include "common/serialize.h"
#include "common/sysinfo.h"
#include "defense/majority_vote.h"
#include "defense/pipeline.h"
#include "defense/rank_aggregation.h"
#include "fl/aggregation.h"
#include "fl/protocol.h"
#include "fl/reputation.h"
#include "fl/simulation.h"
#include "fl/streaming.h"
#include "test_util.h"

using namespace fedcleanse;
using namespace fedcleanse::fl;

namespace {

std::vector<std::vector<float>> random_updates(std::size_t n, std::size_t dim,
                                               std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<std::vector<float>> updates(n, std::vector<float>(dim));
  for (auto& u : updates) {
    for (auto& v : u) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return updates;
}

SimulationConfig virtual_config(std::uint64_t seed = 51) {
  auto cfg = testutil::tiny_sim_config(seed);
  cfg.n_clients = 64;
  cfg.clients_per_round = 8;
  cfg.samples_per_client = 4;
  cfg.residency = ClientResidency::kVirtual;
  cfg.defense_clients = 8;
  cfg.rounds = 3;
  return cfg;
}

// The buffered reference for the streaming-equivalence tests: drives the
// same round protocol as Simulation::run_round, but its sink buffers every
// update, and the test aggregates the compacted list itself with
// aggregate(kind, ·) — or a test-owned ReputationAggregator — before
// applying ω += η·Δ through Server::set_params. Trains every client each
// round (clients_per_round == 0), so no selection draw is involved.
struct BufferedRun {
  std::vector<float> params;
  std::vector<ExchangeStats> rounds;
  std::size_t total_bytes = 0;
  std::vector<double> reputations;  // empty unless reputation weighting is on
};

BufferedRun buffered_reference(const SimulationConfig& cfg) {
  EXPECT_EQ(cfg.clients_per_round, 0);
  Simulation sim(cfg);
  std::optional<ReputationAggregator> reputation;
  if (cfg.server.use_reputation) {
    reputation.emplace(cfg.n_clients, cfg.server.reputation_decay,
                       cfg.server.reputation_penalty_threshold);
  }
  BufferedRun run;
  const auto participants = sim.all_client_ids();
  for (int r = 0; r < cfg.rounds; ++r) {
    const auto round = static_cast<std::uint32_t>(r);
    std::vector<std::optional<std::vector<float>>> got(participants.size());
    auto ex = exchange_streaming<std::vector<float>>(
        sim, participants,
        [&](const std::vector<int>& ids) { sim.server().broadcast_model(ids, round); },
        [&](const std::vector<int>& ids, CollectStats* cs) {
          return sim.server().collect_updates(ids, round, cs);
        },
        [&got](std::size_t position, std::vector<float>&& update) {
          got[position] = std::move(update);
        },
        "training round");
    run.rounds.push_back(ex.stats);
    if (!ex.stats.quorum_met) continue;
    std::vector<std::vector<float>> updates;
    for (auto& slot : got) {
      if (slot.has_value()) updates.push_back(std::move(*slot));
    }
    const auto delta =
        reputation.has_value()
            ? reputation->aggregate(ex.clients, updates)
            : aggregate(cfg.server.aggregator, updates, cfg.server.byzantine_hint);
    auto params = sim.server().params();
    const float lr = static_cast<float>(cfg.server.global_lr);
    for (std::size_t i = 0; i < params.size(); ++i) params[i] += lr * delta[i];
    sim.server().set_params(params);
  }
  run.params = sim.server().params();
  run.total_bytes = sim.network().total_bytes();
  if (reputation.has_value()) run.reputations = reputation->reputations();
  return run;
}

// Runs `base` on the streaming production path at `n_threads` and compares it
// with the buffered reference at the same thread count. Returns the reference
// so callers can check what the wire actually did.
BufferedRun expect_same_run(const SimulationConfig& base, int n_threads) {
  auto cfg = base;
  cfg.n_threads = n_threads;
  Simulation streaming(cfg);
  streaming.run(true);
  const BufferedRun buffered = buffered_reference(cfg);

  EXPECT_EQ(streaming.server().params(), buffered.params) << "threads=" << n_threads;
  const auto& history = streaming.history();
  EXPECT_EQ(history.size(), buffered.rounds.size()) << "threads=" << n_threads;
  for (std::size_t r = 0; r < std::min(history.size(), buffered.rounds.size()); ++r) {
    const ExchangeStats& want = buffered.rounds[r];
    EXPECT_EQ(history[r].n_participants, want.n_participants) << "round " << r;
    EXPECT_EQ(history[r].n_valid, want.n_valid) << "round " << r;
    EXPECT_EQ(history[r].n_dropped, want.n_dropped) << "round " << r;
    EXPECT_EQ(history[r].n_corrupted, want.n_corrupted) << "round " << r;
    EXPECT_EQ(history[r].n_retried, want.n_retried) << "round " << r;
    EXPECT_EQ(history[r].quorum_met, want.quorum_met) << "round " << r;
  }
  EXPECT_EQ(streaming.network().total_bytes(), buffered.total_bytes)
      << "threads=" << n_threads;
  if (cfg.server.use_reputation) {
    EXPECT_NE(streaming.server().reputation(), nullptr);
    if (streaming.server().reputation() != nullptr) {
      EXPECT_EQ(streaming.server().reputation()->reputations(), buffered.reputations);
    }
  }
  return buffered;
}

}  // namespace

// --- streaming mean vs materialized mean ------------------------------------

TEST(StreamingMean, MatchesMaterializedMeanInOrder) {
  const auto updates = random_updates(7, 129, 3);
  StreamingAggregator acc(StreamingAggregator::Mode::kFold, updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) acc.accept(i, updates[i]);
  EXPECT_EQ(acc.buffered(), 0u);  // in-order arrivals never park
  EXPECT_EQ(acc.finalize_mean(), mean_update(updates));
}

TEST(StreamingMean, MatchesMaterializedMeanOutOfOrderWithGaps) {
  const auto updates = random_updates(5, 64, 4);
  // Positions 1 and 4 never report; survivors arrive out of order.
  StreamingAggregator acc(StreamingAggregator::Mode::kFold, updates.size());
  acc.accept(3, updates[3]);
  acc.accept(0, updates[0]);
  acc.accept(2, updates[2]);
  EXPECT_EQ(acc.buffered(), 2u);  // 2 and 3 wait behind the gap at 1
  // The buffered reference compacts survivors in position order.
  const std::vector<std::vector<float>> compacted{updates[0], updates[2], updates[3]};
  EXPECT_EQ(acc.finalize_mean(), mean_update(compacted));
}

TEST(StreamingMean, RejectsDuplicateAndOutOfRangePositions) {
  StreamingAggregator acc(StreamingAggregator::Mode::kFold, 3);
  acc.accept(1, {1.0f});
  EXPECT_THROW(acc.accept(1, {2.0f}), Error);
  EXPECT_THROW(acc.accept(3, {2.0f}), Error);
}

TEST(StreamingAggregator, RetainCompactsInPositionOrder) {
  const auto updates = random_updates(4, 16, 5);
  StreamingAggregator agg(StreamingAggregator::Mode::kRetain, updates.size());
  agg.accept(2, updates[2]);
  agg.accept(0, updates[0]);
  agg.accept(3, updates[3]);
  const std::vector<std::vector<float>> expected{updates[0], updates[2], updates[3]};
  EXPECT_EQ(agg.finalize_retained(), expected);
}

TEST(StreamingAggregator, ModeSelection) {
  EXPECT_EQ(StreamingAggregator::mode_for(AggregatorKind::kFedAvg, false),
            StreamingAggregator::Mode::kFold);
  EXPECT_EQ(StreamingAggregator::mode_for(AggregatorKind::kFedAvg, true),
            StreamingAggregator::Mode::kRetain);
  EXPECT_EQ(StreamingAggregator::mode_for(AggregatorKind::kMedian, false),
            StreamingAggregator::Mode::kRetain);
}

// --- streaming rank/vote histograms vs materialized aggregation --------------

TEST(StreamingRanks, MatchesMaterializedAggregation) {
  const int units = 6;
  std::vector<std::vector<std::uint32_t>> reports{
      {1, 2, 3, 4, 5, 6},
      {6, 5, 4, 3, 2, 1},
      {2, 1, 4, 3, 6, 5},
      {1, 1, 1, 1, 1, 1},  // invalid: not a permutation
      {1, 2, 3},           // invalid: wrong width
  };
  defense::StreamingRankAggregator agg(units);
  for (const auto& r : reports) agg.accept(r);
  EXPECT_EQ(agg.valid(), 3u);
  EXPECT_EQ(agg.mean_ranks(), defense::rap_aggregate(reports, units));
  EXPECT_EQ(agg.pruning_order(), defense::rap_pruning_order(reports, units));
}

TEST(StreamingVotes, MatchesMaterializedAggregation) {
  const int units = 6;
  const double rate = 0.5;
  std::vector<std::vector<std::uint8_t>> ballots{
      {1, 1, 1, 0, 0, 0},
      {0, 1, 1, 1, 0, 0},
      {1, 1, 1, 1, 0, 0},  // invalid: over quota
      {1, 0, 2, 0, 1, 0},  // invalid: not 0/1
      {0, 0, 0, 1, 1, 1},
  };
  defense::StreamingVoteAggregator agg(units, rate);
  for (const auto& b : ballots) agg.accept(b);
  EXPECT_EQ(agg.valid(), 3u);
  EXPECT_EQ(agg.shares(), defense::mvp_aggregate(ballots, units, rate));
  EXPECT_EQ(agg.pruning_order(), defense::mvp_pruning_order(ballots, units, rate));
}

TEST(StreamingRanks, ThrowsWithoutValidReports) {
  defense::StreamingRankAggregator ranks(4);
  EXPECT_THROW(ranks.mean_ranks(), ConfigError);
  defense::StreamingVoteAggregator votes(4, 0.5);
  EXPECT_THROW(votes.shares(), ConfigError);
}

// --- whole-run equivalence: streaming vs buffered ----------------------------

TEST(StreamingEquivalence, FedAvgMatchesBufferedAcrossThreadCounts) {
  auto cfg = testutil::tiny_sim_config(61);
  cfg.rounds = 3;
  for (int threads : {1, 2, 4}) expect_same_run(cfg, threads);
}

TEST(StreamingEquivalence, HoldsOnLossyWire) {
  auto cfg = testutil::tiny_sim_config(62);
  cfg.rounds = 3;
  cfg.fault.dropout_rate = 0.15;
  cfg.fault.delay_rate = 0.10;
  cfg.fault.corrupt_rate = 0.05;
  for (int threads : {1, 4}) {
    const BufferedRun buffered = expect_same_run(cfg, threads);
    // The wire must really have forced retries, or this proves nothing about
    // out-of-order folds.
    int retried = 0;
    for (const auto& round : buffered.rounds) retried += round.n_retried;
    EXPECT_GT(retried, 0) << "threads=" << threads;
  }
}

TEST(StreamingEquivalence, ReputationWeightingMatches) {
  auto cfg = testutil::tiny_sim_config(63);
  cfg.rounds = 3;
  cfg.server.use_reputation = true;
  const BufferedRun buffered = expect_same_run(cfg, 2);
  EXPECT_EQ(buffered.reputations.size(), static_cast<std::size_t>(cfg.n_clients));
}

TEST(StreamingEquivalence, RobustAggregatorMatches) {
  auto cfg = testutil::tiny_sim_config(64);
  cfg.rounds = 2;
  cfg.server.aggregator = AggregatorKind::kMedian;
  expect_same_run(cfg, 2);
}

TEST(StreamingEquivalence, FederatedPruneSetMatchesMaterializedReference) {
  // Same seed, both pruning methods: the streamed FP scan must select the
  // same prune set the buffered rap/mvp path would have.
  for (auto method : {defense::PruneMethod::kRAP, defense::PruneMethod::kMVP}) {
    auto cfg = testutil::tiny_sim_config(65);
    cfg.rounds = 2;
    Simulation streaming(cfg);
    Simulation reference(cfg);
    streaming.run(false);
    reference.run(false);
    ASSERT_EQ(streaming.server().params(), reference.server().params());

    defense::DefenseConfig dcfg;
    dcfg.method = method;
    auto order = defense::federated_pruning_order(streaming, dcfg);

    // Materialized reference: collect every report by hand, aggregate with
    // the classic buffered functions.
    auto& server = reference.server();
    const auto clients = reference.all_client_ids();
    const int units =
        server.model().net.layer(server.model().last_conv_index).prunable_units();
    std::vector<int> expected;
    if (method == defense::PruneMethod::kRAP) {
      std::vector<std::vector<std::uint32_t>> reports;
      server.request_ranks(clients, 2000);
      reference.dispatch_clients(clients);
      for (auto& reply : server.collect_ranks(clients, 2000)) {
        ASSERT_TRUE(reply.has_value());
        reports.push_back(std::move(*reply));
      }
      expected = defense::rap_pruning_order(reports, units);
    } else {
      std::vector<std::vector<std::uint8_t>> ballots;
      server.request_votes(clients, dcfg.vote_prune_rate, 2001);
      reference.dispatch_clients(clients);
      for (auto& reply : server.collect_votes(clients, 2001)) {
        ASSERT_TRUE(reply.has_value());
        ballots.push_back(std::move(*reply));
      }
      expected = defense::mvp_pruning_order(ballots, units, dcfg.vote_prune_rate);
    }
    EXPECT_EQ(order, expected);
  }
}

TEST(StreamingEquivalence, SurvivesMidRunCheckpointResume) {
  auto cfg = testutil::tiny_sim_config(66);
  cfg.rounds = 4;

  Simulation straight(cfg);
  straight.run(false);

  Simulation first_half(cfg);
  first_half.run_round(0);
  first_half.run_round(1);
  common::ByteWriter w;
  first_half.save_state(w);
  const auto bytes = w.take();

  Simulation resumed(cfg);
  common::ByteReader r(bytes);
  resumed.restore_state(r);
  resumed.run_round(2);
  resumed.run_round(3);
  EXPECT_EQ(resumed.server().params(), straight.server().params());
}

// --- virtual clients ---------------------------------------------------------

TEST(VirtualClients, AutoStaysMaterializedForSmallPopulations) {
  Simulation sim(testutil::tiny_sim_config(71));
  EXPECT_FALSE(sim.virtual_clients());
  EXPECT_EQ(sim.resident_clients(), 4u);
}

TEST(VirtualClients, RunIsDeterministicAndResidencyBounded) {
  auto cfg = virtual_config(72);
  Simulation a(cfg);
  Simulation b(cfg);
  EXPECT_TRUE(a.virtual_clients());
  EXPECT_EQ(a.n_clients(), 64);
  a.run(true);
  b.run(true);
  EXPECT_EQ(a.server().params(), b.server().params());
  EXPECT_EQ(a.history(), b.history());
  // Default capacity: max(2·clients_per_round, defense_clients) = 16 ≪ 64.
  EXPECT_LE(a.resident_clients(), 16u);
  EXPECT_GT(a.resident_clients(), 0u);
}

TEST(VirtualClients, AttackerRoleAndVictimDataAreDerived) {
  auto cfg = virtual_config(73);
  Simulation sim(cfg);
  EXPECT_TRUE(sim.client(0).malicious());
  EXPECT_FALSE(sim.client(1).malicious());
  EXPECT_FALSE(sim.client(0).local_data().indices_of_label(9).empty());
}

TEST(VirtualClients, StateSurvivesEviction) {
  auto cfg = virtual_config(74);
  Simulation sim(cfg);
  auto& probe = sim.client(50);
  const std::size_t data_size = probe.local_data().size();
  const int first_label = probe.local_data().label(0);
  probe.set_lr(0.0123);

  // Fill the slab past capacity with other clients; 50 gets evicted.
  std::vector<int> others;
  for (int c = 0; c < 20; ++c) others.push_back(c);
  sim.ensure_resident(others);
  EXPECT_LE(sim.resident_clients(), 21u);

  // Re-materialized client 50: same derived dataset, ledger-restored lr.
  auto& again = sim.client(50);
  EXPECT_EQ(again.local_data().size(), data_size);
  EXPECT_EQ(again.local_data().label(0), first_label);
  EXPECT_NEAR(again.lr(), 0.0123, 1e-15);
}

TEST(VirtualClients, CommitteeIsStridedSortedAndSized) {
  auto cfg = virtual_config(75);
  Simulation sim(cfg);
  const auto committee = sim.protocol_client_ids();
  ASSERT_EQ(committee.size(), 8u);
  EXPECT_TRUE(std::is_sorted(committee.begin(), committee.end()));
  EXPECT_EQ(std::set<int>(committee.begin(), committee.end()).size(), committee.size());
  EXPECT_EQ(committee.front(), 0);
  EXPECT_LT(committee.back(), 64);
}

TEST(VirtualClients, ResumeIsBitIdentical) {
  auto cfg = virtual_config(76);
  Simulation straight(cfg);
  straight.run(false);

  Simulation first_half(cfg);
  first_half.run_round(0);
  first_half.run_round(1);
  common::ByteWriter w;
  first_half.save_state(w);
  const auto bytes = w.take();

  Simulation resumed(cfg);
  common::ByteReader r(bytes);
  resumed.restore_state(r);
  resumed.run_round(2);
  EXPECT_EQ(resumed.server().params(), straight.server().params());
}

TEST(VirtualClients, ResidencyMismatchOnRestoreThrows) {
  auto cfg = virtual_config(77);
  Simulation sim(cfg);
  sim.run_round(0);
  common::ByteWriter w;
  sim.save_state(w);
  const auto bytes = w.take();

  auto materialized_cfg = cfg;
  materialized_cfg.residency = ClientResidency::kMaterialized;
  Simulation other(materialized_cfg);
  common::ByteReader r(bytes);
  EXPECT_THROW(other.restore_state(r), CheckpointError);
}

TEST(VirtualClients, RequiresSampledRounds) {
  auto cfg = virtual_config(78);
  cfg.clients_per_round = 0;
  EXPECT_THROW(Simulation sim(cfg), Error);
}

TEST(VirtualClients, DefensePipelineRunsOnCommittee) {
  auto cfg = virtual_config(79);
  Simulation sim(cfg);
  sim.run(false);
  defense::DefenseConfig dcfg;
  dcfg.finetune.max_rounds = 1;
  auto report = defense::run_defense(sim, dcfg);
  EXPECT_GE(report.neurons_pruned, 0);
  EXPECT_GE(report.after_aw.test_acc, 0.0);
  // The defense only ever touched the committee-bounded slab.
  EXPECT_LE(sim.resident_clients(), 16u);
}

// --- peak RSS ----------------------------------------------------------------

TEST(PeakRss, ProbeReportsAndIsMonotone) {
  const std::size_t before = common::peak_rss_bytes();
  EXPECT_GT(before, 0u);
  {
    std::vector<char> ballast(32u << 20, 1);
    volatile char sink = ballast[ballast.size() / 2];
    (void)sink;
  }
  const std::size_t after = common::peak_rss_bytes();
  EXPECT_GE(after, before);
  EXPECT_GT(common::current_rss_bytes(), 0u);
}

TEST(PeakRss, NeverReadsBelowAnEarlierRead) {
  // Grow and shrink the heap between reads: RSS falls after each free, and
  // the peak must not follow it down.
  std::size_t last = common::peak_rss_bytes();
  for (int i = 0; i < 20; ++i) {
    {
      std::vector<char> ballast(static_cast<std::size_t>(1 + i % 4) << 22, 1);
      volatile char sink = ballast[ballast.size() / 2];
      (void)sink;
    }
    const std::size_t now = common::peak_rss_bytes();
    ASSERT_GE(now, last) << "read " << i;
    last = now;
  }
}

TEST(MallocThresholds, FreedBatchMemoryIsReusedWithoutPageFaults) {
#if !defined(__GLIBC__)
  GTEST_SKIP() << "the thresholds are glibc's";
#endif
  const char* tunables = std::getenv("GLIBC_TUNABLES");
  if (tunables != nullptr && std::strstr(tunables, "glibc.malloc.") != nullptr) {
    GTEST_SKIP() << "GLIBC_TUNABLES sets the malloc options";
  }
  common::pin_malloc_thresholds();
  // One "batch": three 7 MiB tensors live at once, then all freed. Under
  // glibc's dynamic thresholds the 21 MiB freed top can be trimmed and
  // every batch faults its ~5,400 pages back in.
  auto batch = [] {
    std::vector<std::vector<float>> live;
    for (int t = 0; t < 3; ++t) live.emplace_back(7u << 18, 1.0f);
    volatile float sink = live[2][live[2].size() / 2];
    (void)sink;
  };
  auto minor_faults = [] {
    rusage ru{};
    getrusage(RUSAGE_THREAD, &ru);
    return ru.ru_minflt;
  };
  batch();
  const long before = minor_faults();
  for (int i = 0; i < 8; ++i) batch();
  EXPECT_LT(minor_faults() - before, 512);
}
