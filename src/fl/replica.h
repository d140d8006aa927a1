// Scratch model replicas for client work (DESIGN.md §14). Clients own no
// model: every model-touching client step borrows a Replica and load()s it
// first, so a replica carries nothing from one client to the next.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/model_zoo.h"

namespace fedcleanse::fl {

// Per-layer prune masks in Sequential::prune_masks layout (1 = active). An
// empty entry leaves that layer as it is (Sequential::set_prune_masks).
using PruneMasks = std::vector<std::vector<std::uint8_t>>;

class Replica {
 public:
  // Clones the template; the template must outlive the replica.
  explicit Replica(const nn::ModelSpec& model_template);

  // Reset for one client step: every unit back to active, then `masks`,
  // then the template's per-layer weight_decay, then set_flat(global).
  nn::ModelSpec& load(const PruneMasks& masks, std::span<const float> global_params);
  nn::ModelSpec& model() { return model_; }

 private:
  const nn::ModelSpec* template_;
  nn::ModelSpec model_;
};

}  // namespace fedcleanse::fl
