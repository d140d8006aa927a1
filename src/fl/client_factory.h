// Virtual clients: derive a client's entire identity — label assignment,
// dataset view, RNG stream, attacker role — lazily from (run_seed, client_id)
// at selection time, so a population of a million clients costs nothing until
// a client is actually sampled into a round's cohort (DESIGN.md §14).
//
// The factory owns the full synthesized training pool, the per-label sample
// pools (shuffled once from the partition seed), and three seed roots drawn from the simulation RNG at construction. Every
// per-client quantity is a pure function of (root, id): materialize → evict →
// re-materialize yields the same client every time, which is what lets the
// run snapshot store only the resident cohort plus the factory roots instead
// of N clients.
//
// A virtual population is NOT sample-for-sample identical to the eager
// partition_k_label() assignment (which walks shared per-label cursors in
// client order — inherently O(N) and order-coupled). Small populations
// default to the materialized path precisely so existing runs stay
// byte-identical; virtual mode is a different, self-consistent universe.
#pragma once

#include <cstdint>
#include <vector>

#include "data/backdoor.h"
#include "data/dataset.h"
#include "fl/client.h"

namespace fedcleanse::fl {

struct SimulationConfig;

class ClientFactory {
 public:
  // `full_train` is the complete synthesized training pool. `partition_seed`
  // shuffles the per-label pools; the three roots salt the per-client
  // derivations.
  ClientFactory(const SimulationConfig& config, data::Dataset full_train,
                std::uint64_t partition_seed, std::uint64_t label_root,
                std::uint64_t data_root, std::uint64_t seed_root);

  // Build client `id` from scratch: O(samples_per_client), independent of N
  // and of every other client.
  Client make_client(int id) const;

  // The sorted label set client `id` draws its local data from.
  std::vector<int> client_labels(int id) const;

  int samples_per_client() const { return samples_per_client_; }

 private:
  const SimulationConfig& config_;
  data::Dataset full_train_;
  std::vector<data::BackdoorPattern> dba_patterns_;
  std::vector<std::vector<std::size_t>> label_pools_;  // per label, shuffled
  int samples_per_client_ = 0;
  std::uint64_t label_root_ = 0;
  std::uint64_t data_root_ = 0;
  std::uint64_t seed_root_ = 0;
};

}  // namespace fedcleanse::fl
