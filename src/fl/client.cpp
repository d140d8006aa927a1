#include "fl/client.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "fl/metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "nn/activation_stats.h"
#include "nn/conv2d.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"

namespace fedcleanse::fl {

namespace {

// Ranks (1 = most active) from activation means, ties broken by index.
std::vector<std::uint32_t> ranks_from_activation(const std::vector<double>& means) {
  std::vector<std::size_t> order(means.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (means[a] != means[b]) return means[a] > means[b];
    return a < b;
  });
  std::vector<std::uint32_t> ranks(means.size());
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    ranks[order[pos]] = static_cast<std::uint32_t>(pos + 1);
  }
  return ranks;
}

}  // namespace

namespace {

void write_masks(common::ByteWriter& w, const PruneMasks& masks) {
  w.write_u32(static_cast<std::uint32_t>(masks.size()));
  for (const auto& m : masks) w.write_u8_vector(m);
}

PruneMasks read_masks(common::ByteReader& r) {
  const std::uint32_t n = r.read_u32();
  // Every entry carries at least its u32 length prefix.
  if (n > r.remaining() / 4) throw SerializationError("mask count exceeds buffer");
  PruneMasks masks(n);
  for (auto& m : masks) m = r.read_u8_vector();
  return masks;
}

// Sequential::set_prune_masks semantics on the record: a non-empty layer
// entry replaces that layer's mask, an empty one leaves it.
void merge_masks(PruneMasks& into, const PruneMasks& masks) {
  if (into.empty()) into.resize(masks.size());
  FC_REQUIRE(into.size() == masks.size(), "mask count must match layer count");
  for (std::size_t i = 0; i < masks.size(); ++i) {
    if (!masks[i].empty()) into[i] = masks[i];
  }
}

}  // namespace

void write_client_state(common::ByteWriter& w, const ClientState& state) {
  common::write_rng_state(w, state.rng);
  w.write_f64(state.lr);
  write_masks(w, state.prune_masks);
  write_masks(w, state.anticipated_masks);
}

ClientState read_client_state(common::ByteReader& r) {
  ClientState state;
  state.rng = common::read_rng_state(r);
  state.lr = r.read_f64();
  state.prune_masks = read_masks(r);
  state.anticipated_masks = read_masks(r);
  return state;
}

Client::Client(int id, data::Dataset local_data, TrainConfig config, std::uint64_t seed)
    : id_(id), data_(std::move(local_data)), config_(config), rng_(seed) {
  FC_REQUIRE(!data_.empty(), "client needs local data");
  FC_REQUIRE(config_.local_epochs > 0 && config_.batch_size > 0, "bad train config");
}

void Client::make_malicious(AttackSpec spec) {
  FC_REQUIRE(!spec.pattern.empty(), "attacker needs a trigger pattern");
  train_data_ = data::poison_training_set(data_, spec.pattern, spec.victim_label,
                                          spec.attack_label, spec.poison_copies);
  attack_ = std::move(spec);
}

void Client::set_anticipated_masks(PruneMasks masks) { anticipated_masks_ = std::move(masks); }

ClientState Client::state() const {
  return ClientState{rng_.state(), config_.lr, masks_, anticipated_masks_};
}

void Client::restore(ClientState state) {
  rng_.restore(state.rng);
  config_.lr = state.lr;
  masks_ = std::move(state.prune_masks);
  anticipated_masks_ = std::move(state.anticipated_masks);
}

void Client::save_state(common::ByteWriter& w) const { write_client_state(w, state()); }

void Client::restore_state(common::ByteReader& r) { restore(read_client_state(r)); }

void Client::train_locally(nn::ModelSpec& model) {
  if (config_.weight_decay > 0.0) {
    for (int li = 0; li < model.net.size(); ++li) {
      auto& layer = model.net.layer(li);
      layer.weight_decay = std::max(layer.weight_decay, config_.weight_decay);
    }
  }
  nn::Sgd sgd(model.net, {config_.lr, config_.momentum});
  nn::SoftmaxCrossEntropy loss;
  const data::Dataset& train = attack_ ? train_data_ : data_;
  for (int epoch = 0; epoch < config_.local_epochs; ++epoch) {
    for (const auto& batch_indices : train.shuffled_batches(config_.batch_size, rng_)) {
      auto batch = train.make_batch(batch_indices);
      model.net.zero_grad();
      // Fused forward: conv+ReLU pairs collapse into GEMM epilogues and the
      // classifier head emits softmax probabilities directly — bit-identical
      // to the layer-by-layer forward + softmax_rows pipeline.
      loss.forward_probs(model.net.forward_probs(batch.images), batch.labels);
      model.net.backward_params(loss.backward());
      sgd.step();
    }
  }
  model.net.release_caches();
}

std::vector<float> Client::compute_update(Replica& scratch,
                                          std::span<const float> global_params) {
  nn::ModelSpec& model = scratch.load(masks_, global_params);
  if (attack_ && attack_->adaptive == AdaptiveMode::kPruneAware && !anticipated_masks_.empty()) {
    // Applied after the sync, and kept: every later step runs under them.
    model.net.set_prune_masks(anticipated_masks_);
    merge_masks(masks_, anticipated_masks_);
  }

  train_locally(model);

  if (attack_ && attack_->adaptive == AdaptiveMode::kSelfAdjust) self_adjust_weights(model);

  const auto local = model.net.get_flat();
  if (!attack_) {
    std::vector<float> delta(local.size());
    for (std::size_t i = 0; i < delta.size(); ++i) delta[i] = local[i] - global_params[i];
    return delta;
  }
  return model_replacement_update(local, global_params, attack_->gamma);
}

void Client::apply_prune_masks(Replica& scratch, const PruneMasks& masks) {
  // Throws on a malformed shape before the record changes; the replica is
  // reset before its next use anyway.
  scratch.model().net.set_prune_masks(masks);
  merge_masks(masks_, masks);
}

std::vector<double> Client::channel_means(const nn::ModelSpec& model, const data::Dataset& ds) {
  nn::ChannelMeanAccumulator acc;
  tensor::Tensor tapped;
  for (const auto& batch_indices : ds.shuffled_batches(config_.batch_size, rng_)) {
    auto batch = ds.make_batch(batch_indices);
    model.net.infer(batch.images, model.tap_index, &tapped, config_.scan_kernel);
    acc.add_batch(tapped);
  }
  return acc.means();
}

std::vector<double> Client::activation_means(Replica& scratch,
                                             std::span<const float> global_params) {
  return channel_means(scratch.load(masks_, global_params), data_);
}

std::vector<double> Client::backdoor_neuron_scores(const nn::ModelSpec& model) {
  FC_REQUIRE(attack_.has_value(), "backdoor scores only exist for attackers");
  // Mean activation on backdoored victim-label images minus mean activation
  // on the same clean images: neurons that light up only under the trigger.
  auto victim_indices = data_.indices_of_label(attack_->victim_label);
  if (victim_indices.empty()) {
    return std::vector<double>(
        static_cast<std::size_t>(model.net.layer(model.last_conv_index).prunable_units()), 0.0);
  }
  auto clean = data_.subset(victim_indices);
  data::Dataset poisoned(clean.num_classes());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    poisoned.add(attack_->pattern.applied(clean.image(i)), attack_->attack_label);
  }
  auto on_poisoned = channel_means(model, poisoned);
  auto on_clean = channel_means(model, clean);
  std::vector<double> scores(on_poisoned.size());
  for (std::size_t i = 0; i < scores.size(); ++i) scores[i] = on_poisoned[i] - on_clean[i];
  return scores;
}

std::vector<std::uint32_t> Client::rank_report(Replica& scratch,
                                               std::span<const float> global_params) {
  auto means = activation_means(scratch, global_params);
  if (attack_ && attack_->adaptive == AdaptiveMode::kRankManipulation) {
    // Attack 1: pretend the backdoor-carrying neurons are the most active so
    // the aggregated ranking protects them from pruning.
    auto scores = backdoor_neuron_scores(scratch.model());
    const double max_mean = *std::max_element(means.begin(), means.end());
    const double threshold =
        *std::max_element(scores.begin(), scores.end()) * 0.5;  // top-scoring half
    for (std::size_t i = 0; i < means.size(); ++i) {
      if (scores[i] > 0.0 && scores[i] >= threshold) {
        means[i] = max_mean + 1.0 + scores[i];
      }
    }
  }
  return ranks_from_activation(means);
}

std::vector<std::uint8_t> Client::vote_report(Replica& scratch,
                                              std::span<const float> global_params,
                                              double prune_rate) {
  FC_REQUIRE(prune_rate > 0.0 && prune_rate < 1.0, "prune rate must be in (0,1)");
  auto means = activation_means(scratch, global_params);
  const std::size_t p_l = means.size();
  const std::size_t n_votes = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(p_l) - 1.0,
                       std::max(1.0, std::round(prune_rate * static_cast<double>(p_l)))));

  std::vector<double> vote_key = means;  // smaller key → vote to prune first
  if (attack_ && attack_->adaptive == AdaptiveMode::kRankManipulation) {
    // Never vote to prune the backdoor neurons.
    auto scores = backdoor_neuron_scores(scratch.model());
    const double max_mean = *std::max_element(means.begin(), means.end());
    for (std::size_t i = 0; i < vote_key.size(); ++i) {
      if (scores[i] > 0.0) vote_key[i] = max_mean + 1.0 + scores[i];
    }
  }

  std::vector<std::size_t> order(p_l);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return vote_key[a] < vote_key[b]; });
  std::vector<std::uint8_t> votes(p_l, 0);
  for (std::size_t i = 0; i < n_votes; ++i) votes[order[i]] = 1;
  return votes;
}

double Client::report_accuracy(Replica& scratch, std::span<const float> global_params) {
  const double acc =
      evaluate_accuracy(scratch.load(masks_, global_params).net, data_, config_.batch_size);
  if (attack_) {
    // An attacker reports an inflated accuracy so the server keeps pruning
    // past the point where the benign task degrades (or stops early) — it
    // always claims the model is fine.
    return std::min(1.0, acc + 0.05);
  }
  return acc;
}

void Client::self_adjust_weights(nn::ModelSpec& model) {
  // Clip this client's own extreme weights in the last conv layer so the
  // server's AW step finds nothing unusual (Discussion §VI-B).
  auto* conv = dynamic_cast<nn::Conv2d*>(&model.net.layer(model.last_conv_index));
  if (conv == nullptr) return;
  const auto active = conv->active_weights();
  if (active.empty()) return;
  const auto [mu, sigma] = tensor::mean_stddev(active);
  const double delta = attack_ ? attack_->self_adjust_delta : 3.0;
  const float lo = static_cast<float>(mu - delta * sigma);
  const float hi = static_cast<float>(mu + delta * sigma);
  for (auto& w : conv->weight().storage()) {
    if (w < lo) w = lo;
    if (w > hi) w = hi;
  }
}

void Client::handle_pending(comm::Network& net, Replica& scratch) {
  while (auto msg = net.client_try_recv(id_)) {
    handle_one(net, *msg, scratch);
  }
}

void Client::handle_one(comm::Network& net, const comm::Message& msg, Replica& scratch) {
  try {
    handle_message(net, msg, scratch);
  } catch (const Error& e) {
    // A corrupted wire must not kill the client: log what arrived (with
    // this client's id, the message type, and the round) and wait for the
    // server's retransmission.
    FC_LOG(Warn) << "client " << id_ << ": dropping "
                 << comm::message_type_name(msg.type) << " for round " << msg.round
                 << " — " << e.what();
  }
}

void Client::handle_message(comm::Network& net, const comm::Message& msg, Replica& scratch) {
  if (!msg.checksum_ok()) {
    throw comm::DecodeError("payload fails checksum");
  }
  // Outer span carries the correlation id; the per-type spans below keep the
  // client id. In a merged trace, the server's exchange span and this one
  // share the "corr" arg — that pairing is what trace_merge.py --verify
  // checks (server send must precede matching client handle).
  obs::Span handle_span("client.handle", "client");
  handle_span.set_arg("corr", static_cast<std::int64_t>(msg.correlation));
  comm::Message reply;
  reply.round = msg.round;
  reply.sender = id_;
  // Echo the exchange's correlation id so the merged trace can pair this
  // client's work with the server dispatch that caused it (DESIGN.md §17).
  reply.correlation = msg.correlation;
  FC_METRIC(current_round().set(msg.round));
  switch (msg.type) {
    case comm::MessageType::kModelBroadcast: {
      obs::Span span("client.train", "client");
      span.set_arg("client", id_);
      auto global = comm::decode_flat_params(msg.payload);
      auto update = compute_update(scratch, global);
      if (config_.update_codec == comm::UpdateCodec::kInt8) {
        reply.type = comm::MessageType::kModelUpdateQuantized;
        reply.payload = comm::encode_flat_params_q8(update);
      } else {
        reply.type = comm::MessageType::kModelUpdate;
        reply.payload = comm::encode_flat_params(update);
      }
      reply.stamp();
      net.send_to_server(id_, std::move(reply));
      break;
    }
    case comm::MessageType::kRankRequest: {
      obs::Span span("client.rank_scan", "client");
      span.set_arg("client", id_);
      auto global = comm::decode_flat_params(msg.payload);
      reply.type = comm::MessageType::kRankReport;
      reply.payload = comm::encode_ranks(rank_report(scratch, global));
      reply.stamp();
      net.send_to_server(id_, std::move(reply));
      break;
    }
    case comm::MessageType::kVoteRequest: {
      obs::Span span("client.vote_scan", "client");
      span.set_arg("client", id_);
      common::ByteReader r(msg.payload);
      const double p = r.read_f64();
      auto global = r.read_f32_vector();
      reply.type = comm::MessageType::kVoteReport;
      reply.payload = comm::encode_votes(vote_report(scratch, global, p));
      reply.stamp();
      net.send_to_server(id_, std::move(reply));
      break;
    }
    case comm::MessageType::kMaskBroadcast: {
      apply_prune_masks(scratch, comm::decode_masks(msg.payload));
      break;  // no reply
    }
    case comm::MessageType::kLrScale: {
      set_lr(lr() * comm::decode_lr_scale(msg.payload));
      break;  // no reply
    }
    case comm::MessageType::kAccuracyRequest: {
      obs::Span span("client.eval", "client");
      span.set_arg("client", id_);
      auto global = comm::decode_flat_params(msg.payload);
      reply.type = comm::MessageType::kAccuracyReport;
      reply.payload = comm::encode_accuracy(report_accuracy(scratch, global));
      reply.stamp();
      net.send_to_server(id_, std::move(reply));
      break;
    }
    default:
      // Mistyped (possibly corrupted) request: ignore it rather than die.
      FC_LOG(Warn) << "client " << id_ << ": unexpected "
                   << comm::message_type_name(msg.type) << " for round " << msg.round
                   << " — ignored";
      break;
  }
}

}  // namespace fedcleanse::fl
