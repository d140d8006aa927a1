#include "defense/adjust_weights.h"

#include "nn/conv2d.h"
#include "nn/linear.h"
#include "tensor/ops.h"

namespace fedcleanse::defense {

namespace {

// The weight tensor of a supported layer (Conv2d or Linear).
tensor::Tensor& layer_weight(nn::Sequential& model, int layer_index) {
  FC_REQUIRE(layer_index >= 0 && layer_index < model.size(), "layer index out of range");
  if (auto* conv = dynamic_cast<nn::Conv2d*>(&model.layer(layer_index))) {
    return conv->weight();
  }
  if (auto* linear = dynamic_cast<nn::Linear*>(&model.layer(layer_index))) {
    return linear->weight();
  }
  throw ConfigError("adjust-weights target must be Conv2d or Linear");
}

struct LayerBounds {
  int layer_index;
  double mu, sigma;  // bounds are μ ± Δ·σ
};

// Zero all weights outside [μ − Δσ, μ + Δσ]; returns how many changed from
// non-zero to zero. Zeros are excluded from the clip (they are either pruned
// units or previously culled weights).
int clip_outside(tensor::Tensor& weight, double mu, double sigma, double delta) {
  const float lo = static_cast<float>(mu - delta * sigma);
  const float hi = static_cast<float>(mu + delta * sigma);
  int zeroed = 0;
  for (auto& w : weight.storage()) {
    if (w != 0.0f && (w < lo || w > hi)) {
      w = 0.0f;
      ++zeroed;
    }
  }
  return zeroed;
}

std::vector<LayerBounds> compute_bounds(nn::Sequential& model,
                                        const std::vector<int>& layer_indices) {
  FC_REQUIRE(!layer_indices.empty(), "adjust-weights needs at least one target layer");
  std::vector<LayerBounds> bounds;
  for (int li : layer_indices) {
    auto& weight = layer_weight(model, li);
    std::vector<float> population;
    population.reserve(weight.size());
    for (float w : weight.data()) {
      if (w != 0.0f) population.push_back(w);
    }
    FC_REQUIRE(!population.empty(), "layer has no non-zero weights");
    const auto [mu, sigma] = tensor::mean_stddev(population);
    bounds.push_back(LayerBounds{li, mu, sigma});
  }
  return bounds;
}

}  // namespace

std::vector<int> default_adjust_layers(nn::Sequential& model, int last_conv_index) {
  std::vector<int> layers{last_conv_index};
  for (int li = last_conv_index + 1; li < model.size(); ++li) {
    if (dynamic_cast<nn::Linear*>(&model.layer(li)) != nullptr) layers.push_back(li);
  }
  return layers;
}

AdjustOutcome adjust_extreme_weights(nn::Sequential& model,
                                     const std::vector<int>& layer_indices,
                                     const AdjustConfig& config,
                                     const std::function<double()>& accuracy_eval,
                                     const std::function<double()>& asr_eval) {
  FC_REQUIRE(config.delta_start >= config.delta_min && config.delta_step > 0.0,
             "bad AW sweep configuration");
  auto bounds = compute_bounds(model, layer_indices);

  AdjustOutcome outcome;
  outcome.final_delta = config.delta_start;
  outcome.final_accuracy = accuracy_eval();

  for (double delta = config.delta_start; delta >= config.delta_min - 1e-9;
       delta -= config.delta_step) {
    // Snapshot all target layers for revert.
    std::vector<std::vector<float>> saved;
    saved.reserve(bounds.size());
    int newly_zeroed = 0;
    for (const auto& b : bounds) {
      auto& weight = layer_weight(model, b.layer_index);
      saved.push_back(weight.storage());
      newly_zeroed += clip_outside(weight, b.mu, b.sigma, delta);
    }

    AdjustStep step;
    step.delta = delta;
    step.accuracy = accuracy_eval();
    step.attack_acc = asr_eval ? asr_eval() : 0.0;
    step.weights_zeroed = outcome.weights_zeroed + newly_zeroed;
    outcome.trace.push_back(step);

    if (step.accuracy < config.min_accuracy) {
      for (std::size_t i = 0; i < bounds.size(); ++i) {
        layer_weight(model, bounds[i].layer_index).storage() = std::move(saved[i]);
      }
      break;
    }
    outcome.weights_zeroed += newly_zeroed;
    outcome.final_delta = delta;
    outcome.final_accuracy = step.accuracy;
  }
  return outcome;
}

AdjustOutcome adjust_extreme_weights(nn::Sequential& model, int layer_index,
                                     const AdjustConfig& config,
                                     const std::function<double()>& accuracy_eval,
                                     const std::function<double()>& asr_eval) {
  return adjust_extreme_weights(model, std::vector<int>{layer_index}, config, accuracy_eval,
                                asr_eval);
}

int zero_extreme_weights_once(nn::Sequential& model, const std::vector<int>& layer_indices,
                              double delta) {
  auto bounds = compute_bounds(model, layer_indices);
  int zeroed = 0;
  for (const auto& b : bounds) {
    zeroed += clip_outside(layer_weight(model, b.layer_index), b.mu, b.sigma, delta);
  }
  return zeroed;
}

}  // namespace fedcleanse::defense
