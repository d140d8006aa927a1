#include "fl/client_factory.h"

#include <algorithm>

#include "common/error.h"
#include "fl/simulation.h"

namespace fedcleanse::fl {

namespace {
// k-th derived seed of a root: one splitmix64 step at offset k·γ along the
// root's walk. O(1), collision-free across k, independent of every other k.
std::uint64_t derive_seed(std::uint64_t root, std::uint64_t k) {
  std::uint64_t state = root + k * 0x9E3779B97F4A7C15ULL;
  return common::splitmix64(state);
}
}  // namespace

ClientFactory::ClientFactory(const SimulationConfig& config, data::Dataset full_train,
                             std::uint64_t partition_seed, std::uint64_t label_root,
                             std::uint64_t data_root, std::uint64_t seed_root)
    : config_(config),
      full_train_(std::move(full_train)),
      label_root_(label_root),
      data_root_(data_root),
      seed_root_(seed_root) {
  FC_REQUIRE(!full_train_.empty(), "client factory needs training data");
  if (config_.dba && config_.n_attackers > 1) {
    dba_patterns_ = data::split_dba(config_.attack.pattern, config_.n_attackers);
  }
  // Per-label sample pools, shuffled once so a client's with-replacement
  // draws inside a pool are decorrelated from synthesis order.
  common::Rng prng(partition_seed);
  label_pools_.resize(static_cast<std::size_t>(full_train_.num_classes()));
  for (int label = 0; label < full_train_.num_classes(); ++label) {
    auto& pool = label_pools_[static_cast<std::size_t>(label)];
    pool = full_train_.indices_of_label(label);
    prng.shuffle(pool);
  }
  samples_per_client_ =
      config_.samples_per_client > 0
          ? config_.samples_per_client
          : std::max(1, static_cast<int>(full_train_.size() /
                                         static_cast<std::size_t>(config_.n_clients)));
}

std::vector<int> ClientFactory::client_labels(int id) const {
  const int num_classes = full_train_.num_classes();
  const int k = std::min(config_.labels_per_client, num_classes);
  std::vector<int> labels;
  labels.reserve(static_cast<std::size_t>(k));
  // Attackers must hold victim-label data to poison it (mirrors the forced
  // assignment of the eager planner).
  if (id < config_.n_attackers) labels.push_back(config_.attack.victim_label);
  common::Rng rng(derive_seed(label_root_, static_cast<std::uint64_t>(id)));
  while (static_cast<int>(labels.size()) < k) {
    const int label = static_cast<int>(rng.index(static_cast<std::size_t>(num_classes)));
    if (std::find(labels.begin(), labels.end(), label) == labels.end()) {
      labels.push_back(label);
    }
  }
  std::sort(labels.begin(), labels.end());
  // The round-robin data draw fills labels front to back; rotate the victim
  // label to the front so an attacker holds victim data even when the local
  // set is smaller than its label set.
  if (id < config_.n_attackers) {
    auto it = std::find(labels.begin(), labels.end(), config_.attack.victim_label);
    std::rotate(labels.begin(), it, it + 1);
  }
  return labels;
}

Client ClientFactory::make_client(int id) const {
  FC_REQUIRE(id >= 0 && id < config_.n_clients, "client id out of range");
  const auto labels = client_labels(id);

  // Round-robin over the client's label set, sampling each label's pool with
  // replacement — clients share the pool, so no O(N) cursor state exists.
  common::Rng rng(derive_seed(data_root_, static_cast<std::uint64_t>(id)));
  data::Dataset local(full_train_.num_classes());
  for (int s = 0; s < samples_per_client_; ++s) {
    const int label = labels[static_cast<std::size_t>(s) % labels.size()];
    const auto& pool = label_pools_[static_cast<std::size_t>(label)];
    if (pool.empty()) continue;
    const std::size_t idx = pool[rng.index(pool.size())];
    local.add(full_train_.image(idx), full_train_.label(idx));
  }
  FC_REQUIRE(!local.empty(), "virtual client got no data — raise samples_per_class_train");

  Client client(id, std::move(local), config_.train,
                derive_seed(seed_root_, static_cast<std::uint64_t>(id)));
  if (id < config_.n_attackers) {
    AttackSpec attack = config_.attack;
    if (!dba_patterns_.empty()) {
      attack.pattern = dba_patterns_[static_cast<std::size_t>(id)];
    }
    client.make_malicious(std::move(attack));
  }
  return client;
}

}  // namespace fedcleanse::fl
