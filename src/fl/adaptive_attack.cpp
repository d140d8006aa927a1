#include "fl/adaptive_attack.h"

#include <algorithm>
#include <numeric>

namespace fedcleanse::fl {

std::vector<std::vector<std::uint8_t>> anticipate_prune_masks(Simulation& sim,
                                                              double prune_rate) {
  FC_REQUIRE(prune_rate > 0.0 && prune_rate < 1.0, "prune_rate must be in (0,1)");
  auto params = sim.server().params();
  auto& model = sim.server().model();
  const int layer_index = model.last_conv_index;
  const int units = model.net.layer(layer_index).prunable_units();

  // Average the activation means over every client (attacker's best estimate
  // of the global dormancy ordering).
  std::vector<double> totals(static_cast<std::size_t>(units), 0.0);
  for (int c : sim.protocol_client_ids()) {
    auto means = sim.client(c).activation_means(sim.replica(), params);
    FC_REQUIRE(static_cast<int>(means.size()) == units, "activation width mismatch");
    for (std::size_t i = 0; i < totals.size(); ++i) totals[i] += means[i];
  }

  std::vector<std::size_t> order(totals.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return totals[a] < totals[b]; });

  const auto n_prune = static_cast<std::size_t>(prune_rate * static_cast<double>(units));
  auto masks = model.net.prune_masks();
  auto& mask = masks[static_cast<std::size_t>(layer_index)];
  FC_REQUIRE(mask.size() == totals.size(), "mask width mismatch");
  for (std::size_t i = 0; i < n_prune; ++i) mask[order[i]] = 0;
  return masks;
}

void arm_prune_aware_attackers(Simulation& sim, double prune_rate) {
  auto masks = anticipate_prune_masks(sim, prune_rate);
  for (int a : sim.attacker_ids()) {
    sim.client(a).set_anticipated_masks(masks);
  }
}

}  // namespace fedcleanse::fl
