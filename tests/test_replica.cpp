// Clients own no model: every client step borrows a scratch replica
// (fl::Replica) and resets it first, so what a replica last ran must never
// leak into the next client's results (DESIGN.md §14).
#include <gtest/gtest.h>

#include <cstdlib>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include "fl/adaptive_attack.h"
#include "nn/conv2d.h"
#include "test_util.h"

using namespace fedcleanse;
using fl::ClientState;
using fl::Replica;
using fl::Simulation;

namespace {

// Sets (or unsets) FEDCLEANSE_THREADS for one scope and restores the
// caller's value afterwards, so CI's own setting survives the test.
class ThreadsEnv {
 public:
  explicit ThreadsEnv(const char* value) {
    if (const char* old = std::getenv("FEDCLEANSE_THREADS")) saved_ = old;
    if (value != nullptr) {
      setenv("FEDCLEANSE_THREADS", value, 1);
    } else {
      unsetenv("FEDCLEANSE_THREADS");
    }
  }
  ~ThreadsEnv() {
    if (saved_) {
      setenv("FEDCLEANSE_THREADS", saved_->c_str(), 1);
    } else {
      unsetenv("FEDCLEANSE_THREADS");
    }
  }

 private:
  std::optional<std::string> saved_;
};

std::vector<std::uint8_t> record_bytes(const ClientState& state) {
  common::ByteWriter w;
  fl::write_client_state(w, state);
  return w.take();
}

// Prune one unit of the server's last conv layer and push the masks to
// every client over the wire.
void push_pruned_unit(Simulation& sim, int unit) {
  auto& model = sim.server().model();
  model.net.layer(model.last_conv_index).set_unit_active(unit, false);
  const auto clients = sim.all_client_ids();
  sim.server().broadcast_masks(clients, 0);
  sim.dispatch_clients(clients);
}

class ReplicaReuse : public ::testing::TestWithParam<int> {};

TEST_P(ReplicaReuse, MatchesAFreshReplicaBitForBit) {
  ThreadsEnv env(nullptr);
  // The client that dirties the replica: a prune-aware attacker holding
  // server-pushed and anticipated masks, training under a larger weight
  // decay than the run under test.
  auto dirty_cfg = testutil::tiny_sim_config(81);
  dirty_cfg.attack.adaptive = fl::AdaptiveMode::kPruneAware;
  dirty_cfg.train.weight_decay = 0.05;
  dirty_cfg.n_threads = GetParam();
  Simulation other(dirty_cfg);
  push_pruned_unit(other, 1);
  fl::arm_prune_aware_attackers(other, 0.5);
  const auto other_params = other.server().params();

  auto cfg = testutil::tiny_sim_config(82);
  cfg.last_conv_weight_decay = 0.001;
  cfg.n_threads = GetParam();
  Simulation sim(cfg);
  ASSERT_EQ(sim.pool().size(), static_cast<std::size_t>(GetParam()));
  sim.run(false);
  const int last_conv = sim.server().model().last_conv_index;
  auto& client = sim.client(1);

  Replica& dirty = sim.replica();
  auto dirty_up = [&] {
    other.client(0).compute_update(dirty, other_params);
    // The dirtying really left pruned units and a raised weight decay.
    const auto& layer = dirty.model().net.layer(last_conv);
    int inactive = 0;
    for (int u = 0; u < layer.prunable_units(); ++u) inactive += layer.unit_active(u) ? 0 : 1;
    ASSERT_GT(inactive, 1);
    ASSERT_EQ(layer.weight_decay, 0.05);
  };
  // Run `call` on the dirtied replica, then again from the same client
  // record on a fresh clone of an equivalent template (the server model:
  // same architecture and per-layer weight decay).
  auto compare = [&](auto call) {
    const ClientState before = client.state();
    dirty_up();
    const auto on_dirty = call(dirty);
    const ClientState after = client.state();
    client.restore(before);
    Replica fresh(sim.server().model());
    const auto on_fresh = call(fresh);
    EXPECT_EQ(on_dirty, on_fresh);
    EXPECT_EQ(client.state(), after);
  };
  // First with no masks of its own (only the reset reactivates the units the
  // other client pruned), then with a server-pushed one.
  for (const bool masked : {false, true}) {
    if (masked) push_pruned_unit(sim, 2);
    ASSERT_EQ(client.prune_masks().empty(), !masked);
    const auto params = sim.server().params();
    compare([&](Replica& r) { return client.compute_update(r, params); });
    compare([&](Replica& r) { return client.rank_report(r, params); });
    compare([&](Replica& r) { return client.vote_report(r, params, 0.5); });
    compare([&](Replica& r) { return client.report_accuracy(r, params); });
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ReplicaReuse, ::testing::Values(1, 4));

TEST(Replica, ClientMasksHoldThroughLocalTraining) {
  Simulation sim(testutil::tiny_sim_config(87));
  push_pruned_unit(sim, 2);
  auto& scratch = sim.replica();
  sim.client(1).compute_update(scratch, sim.server().params());
  const auto& model = scratch.model();
  const auto* conv = dynamic_cast<const nn::Conv2d*>(&model.net.layer(model.last_conv_index));
  ASSERT_NE(conv, nullptr);
  EXPECT_FALSE(conv->unit_active(2));
  const std::size_t per_channel =
      conv->weight().size() / static_cast<std::size_t>(conv->out_channels());
  const auto w = conv->weight().data();
  for (std::size_t i = 2 * per_channel; i < 3 * per_channel; ++i) EXPECT_EQ(w[i], 0.0f);
  EXPECT_EQ(conv->bias().data()[2], 0.0f);
}

TEST(Replica, OnePerThreadThatRanClientWork) {
  ThreadsEnv env(nullptr);
  auto cfg = testutil::tiny_sim_config(83);
  cfg.n_clients = 16;
  cfg.n_threads = 4;
  Simulation sim(cfg);
  EXPECT_EQ(sim.live_replicas(), 0u);
  const auto params = sim.server().params();
  std::mutex mu;
  std::set<std::thread::id> ran;
  sim.pool().parallel_for(16, [&](std::size_t i) {
    {
      std::lock_guard<std::mutex> lock(mu);
      ran.insert(std::this_thread::get_id());
    }
    sim.client(static_cast<int>(i)).report_accuracy(sim.replica(), params);
  });
  EXPECT_GE(ran.size(), 1u);
  EXPECT_EQ(sim.live_replicas(), ran.size());
}

TEST(Replica, SingleThreadRunHoldsOneReplica) {
  ThreadsEnv env("1");
  auto cfg = testutil::tiny_sim_config(84);
  Simulation sim(cfg);
  sim.run(true);
  EXPECT_EQ(sim.live_replicas(), 1u);
}

// --- the client record ----------------------------------------------------------

TEST(ClientState, RecordRoundTripsAndHoldsNoParameters) {
  Simulation sim(testutil::tiny_sim_config(85));
  auto& client = sim.client(0);
  auto masks = sim.server().model().net.prune_masks();
  masks[static_cast<std::size_t>(sim.server().model().last_conv_index)][0] = 0;
  client.apply_prune_masks(sim.replica(), masks);
  client.set_anticipated_masks(masks);
  client.set_lr(0.0321);
  const auto bytes = record_bytes(client.state());
  common::ByteReader r(bytes);
  EXPECT_EQ(fl::read_client_state(r), client.state());
  EXPECT_TRUE(r.exhausted());
  EXPECT_LT(bytes.size(), sim.server().model().net.num_params() * sizeof(float));

  common::ByteWriter w;
  client.save_state(w);
  EXPECT_EQ(w.take(), bytes);

  // A mask count the bytes cannot hold is refused before any allocation.
  common::ByteWriter bad;
  common::write_rng_state(bad, client.state().rng);
  bad.write_f64(0.1);
  bad.write_u32(0xFFFFFFFFu);
  const auto bad_bytes = bad.take();
  common::ByteReader bad_reader(bad_bytes);
  EXPECT_THROW(fl::read_client_state(bad_reader), SerializationError);
}

TEST(ClientState, SurvivesEvictionAndRunSnapshot) {
  auto cfg = testutil::tiny_sim_config(86);
  cfg.n_clients = 64;
  cfg.clients_per_round = 8;
  cfg.samples_per_client = 4;
  cfg.residency = fl::ClientResidency::kVirtual;
  cfg.defense_clients = 8;
  Simulation sim(cfg);
  const int last_conv = sim.server().model().last_conv_index;
  auto masks = sim.server().model().net.prune_masks();
  masks[static_cast<std::size_t>(last_conv)][3] = 0;
  auto anticipated = masks;
  anticipated[static_cast<std::size_t>(last_conv)][5] = 0;

  auto& probe = sim.client(50);
  probe.apply_prune_masks(sim.replica(), masks);
  probe.set_anticipated_masks(anticipated);
  probe.set_lr(0.0123);
  (void)probe.rank_report(sim.replica(), sim.server().params());  // advances its RNG
  const ClientState want = probe.state();
  const ClientState resident_want = sim.client(3).state();

  // Fill the slab past capacity; 50's record moves into the ledger.
  std::vector<int> others;
  for (int c = 0; c < 20; ++c) others.push_back(c);
  sim.ensure_resident(others);

  common::ByteWriter w;
  sim.save_state(w);
  const auto snapshot = w.take();
  Simulation restored(cfg);
  common::ByteReader r(snapshot);
  restored.restore_state(r);

  EXPECT_EQ(sim.client(50).state(), want);
  EXPECT_EQ(restored.client(50).state(), want);
  EXPECT_EQ(restored.client(3).state(), resident_want);
}

}  // namespace
