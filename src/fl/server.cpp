#include "fl/server.h"

#include <chrono>

#include "common/logging.h"
#include "fl/metrics.h"
#include "nn/checkpoint.h"

namespace fedcleanse::fl {

namespace {

// Drain one client's channel until a valid reply of the expected type and
// round appears or the deadline passes. Mistyped, stale, duplicate, and
// undecodable messages are logged (with the client id and the type actually
// received) and skipped — a degraded round must be debuggable from the log
// alone. `decode` parses *and validates* the payload, throwing
// comm::DecodeError on anything unacceptable.
// `expected_alt` admits a second message type for protocols with two wire
// encodings of the same reply (float vs quantized model updates); the decode
// callback dispatches on msg.type.
template <typename T, typename Decode>
std::vector<std::optional<T>> collect_typed(comm::Network& net,
                                            const std::vector<int>& clients,
                                            std::uint32_t round,
                                            comm::MessageType expected, Decode decode,
                                            int timeout_ms, CollectStats* stats,
                                            std::optional<comm::MessageType> expected_alt =
                                                std::nullopt) {
  using Clock = std::chrono::steady_clock;
  std::vector<std::optional<T>> out(clients.size());
  CollectStats local;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const int c = clients[i];
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    while (true) {
      auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (remaining.count() < 0) remaining = std::chrono::milliseconds(0);
      auto msg = net.recv_from_client_for(c, remaining);
      if (!msg) {
        ++local.n_timed_out;
        FC_LOG(Debug) << "collect " << comm::message_type_name(expected) << ": client "
                      << c << " sent no reply before the deadline (round " << round << ")";
        break;
      }
      if ((msg->type != expected && msg->type != expected_alt) || msg->round != round) {
        ++local.n_malformed;
        FC_LOG(Warn) << "collect " << comm::message_type_name(expected) << " (round "
                     << round << "): client " << c << " sent "
                     << comm::message_type_name(msg->type) << " for round " << msg->round
                     << " — skipped";
        continue;  // keep draining; the real reply may be queued behind it
      }
      if (!msg->checksum_ok()) {
        ++local.n_malformed;
        FC_LOG(Warn) << "collect " << comm::message_type_name(expected) << " (round "
                     << round << "): client " << c << " sent a "
                     << comm::message_type_name(msg->type)
                     << " whose payload fails its checksum — skipped";
        continue;
      }
      try {
        out[i] = decode(*msg);
        ++local.n_valid;
        break;
      } catch (const SerializationError& e) {
        ++local.n_malformed;
        FC_LOG(Warn) << "collect " << comm::message_type_name(expected) << " (round "
                     << round << "): client " << c << " sent an undecodable "
                     << comm::message_type_name(msg->type) << ": " << e.what();
        continue;
      }
    }
  }
  if (stats != nullptr) {
    stats->n_valid += local.n_valid;
    stats->n_timed_out += local.n_timed_out;
    stats->n_malformed += local.n_malformed;
  }
  return out;
}

}  // namespace

Server::Server(nn::ModelSpec model, data::Dataset validation, comm::Network& net,
               ServerConfig config)
    : model_(std::move(model)),
      validation_(std::move(validation)),
      net_(net),
      config_(config) {
  if (config_.use_reputation) {
    reputation_ = std::make_unique<ReputationAggregator>(
        net_.n_clients(), config_.reputation_decay, config_.reputation_penalty_threshold);
  }
}

void Server::send_all(const std::vector<int>& clients, comm::MessageType type,
                      std::uint32_t round, std::vector<std::uint8_t> payload) {
  comm::Message m;
  m.type = type;
  m.round = round;
  m.sender = -1;
  m.correlation = comm::current_correlation_id();
  m.payload = std::move(payload);
  m.stamp();
  for (int c : clients) net_.send_to_client(c, m);
}

void Server::broadcast_model(const std::vector<int>& clients, std::uint32_t round) {
  auto payload = comm::encode_flat_params(params());
  send_all(clients, comm::MessageType::kModelBroadcast, round, std::move(payload));
}

std::vector<std::optional<std::vector<float>>> Server::collect_updates(
    const std::vector<int>& clients, std::uint32_t round, CollectStats* stats) {
  const std::size_t n_params = model_.net.num_params();
  // Clients pick their wire codec; the server accepts either and folds the
  // dequantized floats into the same aggregation path (the fp32 wire stays
  // byte-identical to the pre-codec protocol).
  return collect_typed<std::vector<float>>(
      net_, clients, round, comm::MessageType::kModelUpdate,
      [n_params](const comm::Message& msg) {
        auto update = msg.type == comm::MessageType::kModelUpdateQuantized
                          ? comm::decode_flat_params_q8(msg.payload)
                          : comm::decode_flat_params(msg.payload);
        if (update.size() != n_params) {
          throw comm::DecodeError("update has " + std::to_string(update.size()) +
                                  " params, model has " + std::to_string(n_params));
        }
        return update;
      },
      config_.recv_timeout_ms, stats, comm::MessageType::kModelUpdateQuantized);
}

StreamingAggregator Server::round_aggregator(std::size_t n_participants) const {
  return StreamingAggregator(
      StreamingAggregator::mode_for(config_.aggregator, config_.use_reputation),
      n_participants);
}

void Server::apply_round(StreamingAggregator& agg, const std::vector<int>& clients) {
  std::vector<float> delta;
  if (agg.mode() == StreamingAggregator::Mode::kFold) {
    delta = agg.finalize_mean();
  } else if (reputation_ != nullptr) {
    delta = reputation_->aggregate(clients, agg.finalize_retained());
  } else {
    delta = aggregate(config_.aggregator, agg.finalize_retained(), config_.byzantine_hint);
  }
  auto current = params();
  const float lr = static_cast<float>(config_.global_lr);
  for (std::size_t i = 0; i < current.size(); ++i) current[i] += lr * delta[i];
  set_params(current);
}

void Server::request_ranks(const std::vector<int>& clients, std::uint32_t round) {
  auto payload = comm::encode_flat_params(params());
  send_all(clients, comm::MessageType::kRankRequest, round, std::move(payload));
}

std::vector<std::optional<std::vector<std::uint32_t>>> Server::collect_ranks(
    const std::vector<int>& clients, std::uint32_t round, CollectStats* stats) {
  return collect_typed<std::vector<std::uint32_t>>(
      net_, clients, round, comm::MessageType::kRankReport,
      [](const comm::Message& msg) { return comm::decode_ranks(msg.payload); },
      config_.recv_timeout_ms, stats);
}

void Server::request_votes(const std::vector<int>& clients, double prune_rate,
                           std::uint32_t round) {
  common::ByteWriter w;
  w.write_f64(prune_rate);
  w.write_f32_vector(params());
  send_all(clients, comm::MessageType::kVoteRequest, round, w.take());
}

std::vector<std::optional<std::vector<std::uint8_t>>> Server::collect_votes(
    const std::vector<int>& clients, std::uint32_t round, CollectStats* stats) {
  return collect_typed<std::vector<std::uint8_t>>(
      net_, clients, round, comm::MessageType::kVoteReport,
      [](const comm::Message& msg) { return comm::decode_votes(msg.payload); },
      config_.recv_timeout_ms, stats);
}

void Server::broadcast_masks(const std::vector<int>& clients, std::uint32_t round) {
  send_all(clients, comm::MessageType::kMaskBroadcast, round,
           comm::encode_masks(model_.net.prune_masks()));
}

void Server::broadcast_lr_scale(const std::vector<int>& clients, double factor,
                                std::uint32_t round) {
  send_all(clients, comm::MessageType::kLrScale, round, comm::encode_lr_scale(factor));
}

void Server::request_accuracies(const std::vector<int>& clients, std::uint32_t round) {
  auto payload = comm::encode_flat_params(params());
  send_all(clients, comm::MessageType::kAccuracyRequest, round, std::move(payload));
}

std::vector<std::optional<double>> Server::collect_accuracies(
    const std::vector<int>& clients, std::uint32_t round, CollectStats* stats) {
  return collect_typed<double>(
      net_, clients, round, comm::MessageType::kAccuracyReport,
      [](const comm::Message& msg) {
        const double acc = comm::decode_accuracy(msg.payload);
        if (!(acc >= 0.0 && acc <= 1.0)) {
          throw comm::DecodeError("accuracy " + std::to_string(acc) +
                                  " outside [0, 1]");
        }
        return acc;
      },
      config_.recv_timeout_ms, stats);
}

void Server::broadcast_round_sync(const std::vector<int>& clients, std::uint32_t epoch,
                                  std::int32_t next_round) {
  comm::RoundSync sync;
  sync.epoch = epoch;
  sync.next_round = next_round;
  send_all(clients, comm::MessageType::kRoundSync, static_cast<std::uint32_t>(next_round),
           comm::encode_round_sync(sync));
}

std::vector<std::optional<comm::RoundSync>> Server::collect_round_sync_acks(
    const std::vector<int>& clients, std::uint32_t epoch, std::int32_t next_round,
    CollectStats* stats) {
  return collect_typed<comm::RoundSync>(
      net_, clients, static_cast<std::uint32_t>(next_round),
      comm::MessageType::kRoundSyncAck,
      [epoch, next_round](const comm::Message& msg) {
        const comm::RoundSync ack = comm::decode_round_sync(msg.payload);
        if (ack.epoch != epoch || ack.next_round != next_round) {
          throw comm::EpochError("round_sync ack for epoch " + std::to_string(ack.epoch) +
                                 " round " + std::to_string(ack.next_round) +
                                 ", expected epoch " + std::to_string(epoch) + " round " +
                                 std::to_string(next_round));
        }
        return ack;
      },
      config_.recv_timeout_ms, stats);
}

double Server::validation_accuracy() {
  return evaluate_accuracy(model_.net, validation_);
}

void Server::save_state(common::ByteWriter& w) const {
  w.write_u8_vector(nn::save_model(model_));
  w.write_bool(reputation_ != nullptr);
  if (reputation_ != nullptr) {
    const auto& scores = reputation_->reputations();
    w.write_u32(static_cast<std::uint32_t>(scores.size()));
    for (double s : scores) w.write_f64(s);
  }
}

void Server::restore_state(common::ByteReader& r) {
  auto loaded = nn::load_model(r.read_u8_vector());
  if (loaded.arch != model_.arch) {
    throw CheckpointError("server snapshot holds a different architecture");
  }
  model_ = std::move(loaded);
  const bool has_reputation = r.read_bool();
  if (has_reputation != (reputation_ != nullptr)) {
    throw CheckpointError("snapshot and configuration disagree on reputation weighting");
  }
  if (has_reputation) {
    const std::uint32_t n = r.read_u32();
    std::vector<double> scores;
    scores.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) scores.push_back(r.read_f64());
    reputation_->restore_scores(scores);
  }
}

}  // namespace fedcleanse::fl
