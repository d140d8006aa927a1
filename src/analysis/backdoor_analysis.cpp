#include "analysis/backdoor_analysis.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "fl/metrics.h"
#include "nn/activation_stats.h"
#include "nn/conv2d.h"

namespace fedcleanse::analysis {

std::vector<double> channel_means(nn::ModelSpec& model, const data::Dataset& dataset,
                                  int batch_size) {
  FC_REQUIRE(!dataset.empty(), "channel_means needs data");
  nn::ChannelMeanAccumulator acc;
  tensor::Tensor tapped;
  std::vector<std::size_t> idx;
  for (std::size_t start = 0; start < dataset.size();
       start += static_cast<std::size_t>(batch_size)) {
    idx.clear();
    for (std::size_t i = start;
         i < std::min(dataset.size(), start + static_cast<std::size_t>(batch_size)); ++i) {
      idx.push_back(i);
    }
    auto batch = dataset.make_batch(idx);
    model.net.infer(batch.images, model.tap_index, &tapped);
    acc.add_batch(tapped);
  }
  return acc.means();
}

namespace {

// Run fn with the given channel pruned, restoring the layer exactly.
template <typename Fn>
void with_channel_pruned(nn::Layer& layer, int channel, Fn&& fn) {
  std::vector<std::vector<float>> saved;
  for (auto& p : layer.params()) saved.emplace_back(p.value->storage());
  layer.set_unit_active(channel, false);
  fn();
  auto params = layer.params();
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i].value->storage() = std::move(saved[i]);
  }
  layer.set_unit_active(channel, true);
}

}  // namespace

std::vector<ChannelProfile> profile_channels(nn::ModelSpec& model,
                                             const data::Dataset& clean_test,
                                             const data::Dataset& backdoor_test) {
  auto clean = channel_means(model, clean_test);
  auto backdoored = channel_means(model, backdoor_test);
  auto* conv = dynamic_cast<nn::Conv2d*>(&model.net.layer(model.last_conv_index));
  FC_REQUIRE(conv != nullptr, "pruning layer must be a Conv2d");
  const int units = conv->prunable_units();
  const std::size_t per_channel =
      conv->weight().size() / static_cast<std::size_t>(units);

  std::vector<ChannelProfile> profiles;
  profiles.reserve(static_cast<std::size_t>(units));
  for (int ch = 0; ch < units; ++ch) {
    ChannelProfile p;
    p.channel = ch;
    p.clean_activation = clean[static_cast<std::size_t>(ch)];
    p.backdoor_activation = backdoored[static_cast<std::size_t>(ch)];
    p.trigger_gap = p.backdoor_activation - p.clean_activation;
    for (std::size_t i = 0; i < per_channel; ++i) {
      p.max_abs_weight = std::max(
          p.max_abs_weight,
          std::abs(conv->weight()[static_cast<std::size_t>(ch) * per_channel + i]));
    }
    with_channel_pruned(*conv, ch, [&] {
      p.test_acc_without = fl::evaluate_accuracy(model.net, clean_test);
      p.attack_acc_without = fl::attack_success_rate(model.net, backdoor_test);
    });
    profiles.push_back(p);
  }
  return profiles;
}

std::vector<OracleStep> oracle_prune_curve(nn::ModelSpec& model,
                                           const data::Dataset& clean_test,
                                           const data::Dataset& backdoor_test,
                                           int max_steps) {
  auto clean = channel_means(model, clean_test);
  auto backdoored = channel_means(model, backdoor_test);
  auto& layer = model.net.layer(model.last_conv_index);
  const int units = layer.prunable_units();

  std::vector<int> order(static_cast<std::size_t>(units));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return backdoored[static_cast<std::size_t>(a)] - clean[static_cast<std::size_t>(a)] >
           backdoored[static_cast<std::size_t>(b)] - clean[static_cast<std::size_t>(b)];
  });

  // Snapshot the whole layer once; prune cumulatively; restore at the end.
  std::vector<std::vector<float>> saved;
  for (auto& p : layer.params()) saved.emplace_back(p.value->storage());
  const auto mask_before = layer.prune_mask();

  std::vector<OracleStep> curve;
  const int steps = std::min(max_steps, units - 1);
  for (int k = 0; k < steps; ++k) {
    layer.set_unit_active(order[static_cast<std::size_t>(k)], false);
    OracleStep step;
    step.channel = order[static_cast<std::size_t>(k)];
    step.test_acc = fl::evaluate_accuracy(model.net, clean_test);
    step.attack_acc = fl::attack_success_rate(model.net, backdoor_test);
    curve.push_back(step);
  }

  auto params = layer.params();
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i].value->storage() = std::move(saved[i]);
  }
  layer.set_prune_mask(mask_before);
  return curve;
}

}  // namespace fedcleanse::analysis
