#include "fl/replica.h"

namespace fedcleanse::fl {

Replica::Replica(const nn::ModelSpec& model_template)
    : template_(&model_template), model_(model_template.clone()) {}

nn::ModelSpec& Replica::load(const PruneMasks& masks, std::span<const float> global_params) {
  for (int li = 0; li < model_.net.size(); ++li) {
    auto& layer = model_.net.layer(li);
    for (int u = 0; u < layer.prunable_units(); ++u) {
      if (!layer.unit_active(u)) layer.set_unit_active(u, true);
    }
  }
  if (!masks.empty()) model_.net.set_prune_masks(masks);
  for (int li = 0; li < model_.net.size(); ++li) {
    model_.net.layer(li).weight_decay = template_->net.layer(li).weight_decay;
  }
  model_.net.set_flat(global_params);
  return model_;
}

}  // namespace fedcleanse::fl
