// Federated server: owns the global model, drives the round protocol over
// the comm network, aggregates updates, and answers the defense pipeline's
// needs (validation accuracy, rank/vote collection, mask broadcast).
//
// The collect paths are fault-tolerant: every collect_* returns one
// std::optional per requested client (nullopt = no valid reply before the
// deadline), logs the offending client id and received message type for
// anything mistyped, stale, or undecodable, and never blocks forever or
// throws on malformed client bytes. Quorum gating and retries live one layer
// up (fl/protocol.h), where the caller can re-drive the request.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "comm/network.h"
#include "data/dataset.h"
#include "fl/aggregation.h"
#include "fl/reputation.h"
#include "fl/streaming.h"
#include "nn/model_zoo.h"

namespace fedcleanse::fl {

struct ServerConfig {
  // Global learning rate η applied to the aggregated update (the paper's
  // simplified rule uses 1).
  double global_lr = 1.0;
  AggregatorKind aggregator = AggregatorKind::kFedAvg;
  // Robustness parameter f for the Byzantine-robust aggregators.
  int byzantine_hint = 0;
  // Per-client deadline for collect_* receives. Simulation keeps this in sync
  // with FaultConfig::recv_timeout_ms; on a perfect wire replies are already
  // queued when the server collects, so the deadline never actually elapses.
  int recv_timeout_ms = 25;
  // Weight training-round aggregates by cosine-similarity reputation
  // (fl/reputation.h) instead of the configured aggregator. Reputation
  // carries state across rounds, so run snapshots include the scores.
  bool use_reputation = false;
  double reputation_decay = 0.8;
  double reputation_penalty_threshold = 0.0;
};

// What a collect pass observed, from the protocol's point of view.
struct CollectStats {
  int n_valid = 0;      // clients whose reply decoded and validated
  int n_timed_out = 0;  // clients with no usable reply before the deadline
  int n_malformed = 0;  // messages skipped: undecodable, mistyped, or stale
};

class Server {
 public:
  Server(nn::ModelSpec model, data::Dataset validation, comm::Network& net,
         ServerConfig config = {});

  nn::ModelSpec& model() { return model_; }
  const data::Dataset& validation_set() const { return validation_; }
  std::vector<float> params() const { return model_.net.get_flat(); }
  void set_params(std::span<const float> params) { model_.net.set_flat(params); }

  // Deadline knob, exposed so the retry layer can apply capped backoff.
  int recv_timeout_ms() const { return config_.recv_timeout_ms; }
  void set_recv_timeout_ms(int ms) { config_.recv_timeout_ms = ms; }

  // --- training round -------------------------------------------------------
  // Send the current global model to the given clients.
  void broadcast_model(const std::vector<int>& clients, std::uint32_t round);
  // One slot per requested client: the decoded update, or nullopt if the
  // client timed out or replied malformed.
  std::vector<std::optional<std::vector<float>>> collect_updates(
      const std::vector<int>& clients, std::uint32_t round, CollectStats* stats = nullptr);
  // The sink for one round's updates: folds (plain FedAvg) or retains (robust
  // rules, reputation weighting), as the configured aggregation rule needs.
  StreamingAggregator round_aggregator(std::size_t n_participants) const;
  // ω_{t+1} = ω_t + η·Δ, where Δ is the fold mean, the reputation-weighted
  // aggregate, or aggregate(kind, ·) over whichever updates arrived.
  // `clients` are the senders in position order (the reputation scores are
  // per client).
  void apply_round(StreamingAggregator& agg, const std::vector<int>& clients);

  // The reputation tracker, or nullptr when ServerConfig::use_reputation is
  // off.
  const ReputationAggregator* reputation() const { return reputation_.get(); }

  // --- defense protocol -----------------------------------------------------
  void request_ranks(const std::vector<int>& clients, std::uint32_t round);
  std::vector<std::optional<std::vector<std::uint32_t>>> collect_ranks(
      const std::vector<int>& clients, std::uint32_t round, CollectStats* stats = nullptr);
  void request_votes(const std::vector<int>& clients, double prune_rate,
                     std::uint32_t round);
  std::vector<std::optional<std::vector<std::uint8_t>>> collect_votes(
      const std::vector<int>& clients, std::uint32_t round, CollectStats* stats = nullptr);
  void broadcast_masks(const std::vector<int>& clients, std::uint32_t round);
  // Tell the clients to multiply their local learning rate by `factor` (the
  // defense's fine-tune rescale, delivered over the wire in remote mode). No
  // acknowledgement — like masks, a lost copy degrades rather than blocks.
  void broadcast_lr_scale(const std::vector<int>& clients, double factor,
                          std::uint32_t round);
  void request_accuracies(const std::vector<int>& clients, std::uint32_t round);
  std::vector<std::optional<double>> collect_accuracies(const std::vector<int>& clients,
                                                        std::uint32_t round,
                                                        CollectStats* stats = nullptr);

  // --- failover protocol (DESIGN.md §18) ------------------------------------
  // Tell every client to roll back to its snapshot for `next_round` and adopt
  // the resumed server's epoch; clients reply kRoundSyncAck echoing the
  // payload. Sent before the resumed run replays, so FIFO per-connection
  // ordering guarantees the rollback precedes any rebroadcast.
  void broadcast_round_sync(const std::vector<int>& clients, std::uint32_t epoch,
                            std::int32_t next_round);
  // Acks whose (epoch, next_round) match; a mismatched ack (stale generation)
  // is rejected as malformed via comm::EpochError and counted in `stats`.
  std::vector<std::optional<comm::RoundSync>> collect_round_sync_acks(
      const std::vector<int>& clients, std::uint32_t epoch, std::int32_t next_round,
      CollectStats* stats = nullptr);

  // Accuracy of the current global model on the server's validation set.
  double validation_accuracy();

  // Checkpoint support: global model plus reputation scores (when enabled).
  // restore_state expects a server built from the same configuration and
  // throws CheckpointError on architecture or reputation-shape mismatch.
  void save_state(common::ByteWriter& w) const;
  void restore_state(common::ByteReader& r);

 private:
  // Build and stamp one server message, then send each client its own copy
  // (so a faulty link corrupts one copy without touching the others). The
  // payload is hashed once per broadcast, not once per client. Callers encode
  // the payload into a local and move it in, so the flat parameter vector it
  // was encoded from is freed before the per-client copies are made.
  void send_all(const std::vector<int>& clients, comm::MessageType type,
                std::uint32_t round, std::vector<std::uint8_t> payload);

  nn::ModelSpec model_;
  data::Dataset validation_;
  comm::Network& net_;
  ServerConfig config_;
  std::unique_ptr<ReputationAggregator> reputation_;
};

}  // namespace fedcleanse::fl
