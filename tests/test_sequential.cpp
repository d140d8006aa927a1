#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/activation_stats.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/model_zoo.h"

using namespace fedcleanse;
using namespace fedcleanse::nn;
using fedcleanse::common::Rng;

namespace {

ModelSpec make_spec(Rng& rng) { return make_small_nn(rng); }

}  // namespace

TEST(Sequential, FlatParamsRoundTrip) {
  Rng rng(1);
  auto spec = make_spec(rng);
  auto flat = spec.net.get_flat();
  EXPECT_EQ(flat.size(), spec.net.num_params());

  // Perturb then restore.
  auto perturbed = flat;
  for (auto& v : perturbed) v += 1.0f;
  spec.net.set_flat(perturbed);
  EXPECT_EQ(spec.net.get_flat(), perturbed);
  spec.net.set_flat(flat);
  EXPECT_EQ(spec.net.get_flat(), flat);
}

TEST(Sequential, SetFlatRejectsWrongSize) {
  Rng rng(1);
  auto spec = make_spec(rng);
  std::vector<float> tooShort(3);
  EXPECT_THROW(spec.net.set_flat(tooShort), Error);
}

TEST(Sequential, SetFlatReassertsPruning) {
  Rng rng(1);
  auto spec = make_spec(rng);
  const auto flat = spec.net.get_flat();
  spec.net.layer(spec.last_conv_index).set_unit_active(0, false);
  // Loading parameters that carry non-zero weights for the pruned channel
  // must not resurrect it.
  spec.net.set_flat(flat);
  auto* conv = dynamic_cast<Conv2d*>(&spec.net.layer(spec.last_conv_index));
  ASSERT_NE(conv, nullptr);
  EXPECT_FALSE(conv->unit_active(0));
  const std::size_t per_channel =
      static_cast<std::size_t>(conv->in_channels()) * conv->kernel() * conv->kernel();
  for (std::size_t i = 0; i < per_channel; ++i) EXPECT_EQ(conv->weight()[i], 0.0f);
}

TEST(Sequential, CloneIsIndependent) {
  Rng rng(2);
  auto spec = make_spec(rng);
  auto clone = spec.net.clone();
  auto flat = spec.net.get_flat();
  auto cloneFlat = clone.get_flat();
  EXPECT_EQ(flat, cloneFlat);
  // Mutating the clone leaves the original untouched.
  for (auto& v : cloneFlat) v = 0.0f;
  clone.set_flat(cloneFlat);
  EXPECT_EQ(spec.net.get_flat(), flat);
}

TEST(Sequential, PruneMasksRoundTrip) {
  Rng rng(3);
  auto spec = make_spec(rng);
  auto masks = spec.net.prune_masks();
  EXPECT_EQ(static_cast<int>(masks.size()), spec.net.size());
  masks[static_cast<std::size_t>(spec.last_conv_index)][1] = 0;
  spec.net.set_prune_masks(masks);
  EXPECT_FALSE(spec.net.layer(spec.last_conv_index).unit_active(1));
  EXPECT_EQ(spec.net.prune_masks(), masks);
}

TEST(Sequential, InferTapCapturesIntermediate) {
  Rng rng(4);
  auto spec = make_spec(rng);
  auto x = tensor::Tensor::rand_uniform(tensor::Shape{2, 1, 20, 20}, rng, 0.0f, 1.0f);
  tensor::Tensor tapped;
  auto out = spec.net.infer(x, spec.tap_index, &tapped);
  EXPECT_EQ(out.shape()[0], 2);
  ASSERT_EQ(tapped.shape().rank(), 4);
  EXPECT_EQ(tapped.shape()[1], spec.net.layer(spec.last_conv_index).prunable_units());
  // Post-ReLU tap is non-negative.
  EXPECT_GE(tapped.min(), 0.0f);
}

TEST(Sequential, TapIndexValidated) {
  Rng rng(4);
  auto spec = make_spec(rng);
  auto x = tensor::Tensor::rand_uniform(tensor::Shape{1, 1, 20, 20}, rng, 0.0f, 1.0f);
  tensor::Tensor tapped;
  EXPECT_THROW(spec.net.infer(x, 99, &tapped), Error);
}

TEST(Sequential, ZeroGradClearsAll) {
  Rng rng(5);
  auto spec = make_spec(rng);
  for (auto& p : spec.net.params()) p.grad->fill(1.0f);
  spec.net.zero_grad();
  for (auto& p : spec.net.params()) {
    for (float g : p.grad->data()) EXPECT_EQ(g, 0.0f);
  }
}

TEST(ModelZoo, ArchitectureMetadataConsistent) {
  Rng rng(6);
  for (auto arch : {Architecture::kMnistCnn, Architecture::kFashionCnn,
                    Architecture::kVggSmall, Architecture::kSmallNn,
                    Architecture::kLargeNn}) {
    auto spec = make_model(arch, rng);
    EXPECT_GE(spec.last_conv_index, 0) << arch_name(arch);
    EXPECT_EQ(spec.tap_index, spec.last_conv_index + 1) << arch_name(arch);
    EXPECT_GT(spec.net.layer(spec.last_conv_index).prunable_units(), 0);
    // Forward pass produces [N, num_classes].
    auto x = tensor::Tensor::rand_uniform(
        tensor::Shape{1, spec.input_shape[0], spec.input_shape[1], spec.input_shape[2]}, rng,
        0.0f, 1.0f);
    auto logits = spec.net.forward(x);
    EXPECT_EQ(logits.shape(), (tensor::Shape{1, spec.num_classes})) << arch_name(arch);
  }
}

TEST(ModelZoo, TableSixChannelCounts) {
  Rng rng(7);
  auto small = make_small_nn(rng);
  auto large = make_large_nn(rng);
  EXPECT_EQ(small.net.layer(small.last_conv_index).prunable_units(), 16);
  EXPECT_EQ(large.net.layer(large.last_conv_index).prunable_units(), 50);
}

TEST(ChannelMeanAccumulator, SpatialMeans) {
  ChannelMeanAccumulator acc;
  // Two samples, two channels, 2×2 planes.
  tensor::Tensor batch(tensor::Shape{2, 2, 2, 2},
                       {1, 1, 1, 1, 2, 2, 2, 2,    // sample 0: ch0=1, ch1=2
                        3, 3, 3, 3, 4, 4, 4, 4});  // sample 1: ch0=3, ch1=4
  acc.add_batch(batch);
  auto means = acc.means();
  ASSERT_EQ(means.size(), 2u);
  EXPECT_DOUBLE_EQ(means[0], 2.0);
  EXPECT_DOUBLE_EQ(means[1], 3.0);
  EXPECT_EQ(acc.count(), 2u);
}

TEST(ChannelMeanAccumulator, TwoDimensionalInput) {
  ChannelMeanAccumulator acc;
  tensor::Tensor batch(tensor::Shape{2, 3}, {1, 2, 3, 3, 4, 5});
  acc.add_batch(batch);
  auto means = acc.means();
  EXPECT_DOUBLE_EQ(means[0], 2.0);
  EXPECT_DOUBLE_EQ(means[1], 3.0);
  EXPECT_DOUBLE_EQ(means[2], 4.0);
}

TEST(ChannelMeanAccumulator, ChannelCountChangeThrows) {
  ChannelMeanAccumulator acc;
  acc.add_batch(tensor::Tensor(tensor::Shape{1, 3}));
  EXPECT_THROW(acc.add_batch(tensor::Tensor(tensor::Shape{1, 4})), Error);
}

TEST(ChannelMeanAccumulator, EmptyThrows) {
  ChannelMeanAccumulator acc;
  EXPECT_THROW(acc.means(), Error);
}
