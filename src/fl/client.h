// Federated client: local training, the defense-protocol reports
// (activation ranks / votes / accuracy), and the malicious behaviours.
//
// A client owns its private local dataset and the small record it evolves
// across rounds (RNG position, learning rate, prune masks), but no model:
// every model-touching step borrows a scratch Replica and resets it to the
// client's masks and the global parameters first (DESIGN.md §14). All
// interaction with the server flows through typed messages (comm::Network)
// via handle_pending(), or through the equivalent direct methods that the
// message handlers delegate to.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "comm/message.h"
#include "comm/network.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "data/dataset.h"
#include "fl/attack.h"
#include "fl/replica.h"
#include "nn/model_zoo.h"
#include "tensor/quant.h"

namespace fedcleanse::fl {

struct TrainConfig {
  int local_epochs = 2;
  int batch_size = 32;
  double lr = 0.1;
  double momentum = 0.0;
  // L2 weight decay applied to every layer during local training (per-layer
  // weight_decay set by the experiment, e.g. Fig 10, takes precedence when
  // larger).
  double weight_decay = 0.0;
  // Compute kernel for the defense's activation-profiling scans (rank/vote
  // reports). Training always runs fp32; the scans only feed rank order, so
  // the quantized kernels trade tiny activation error for throughput.
  tensor::ComputeKernel scan_kernel = tensor::ComputeKernel::kF32;
  // Wire codec for the client→server model update. kF32 keeps the original
  // byte-identical float wire; kInt8 quantizes the delta before sending.
  comm::UpdateCodec update_codec = comm::UpdateCodec::kF32;
};

// Everything a client evolves after construction; the rest (local data,
// attack spec, training config) is rebuilt from the run seed. Eviction
// ledgers, run snapshots and client-process snapshots all store this record.
struct ClientState {
  common::RngState rng{};
  double lr = 0.0;
  PruneMasks prune_masks;
  PruneMasks anticipated_masks;

  bool operator==(const ClientState&) const = default;
};

void write_client_state(common::ByteWriter& w, const ClientState& state);
ClientState read_client_state(common::ByteReader& r);

class Client {
 public:
  Client(int id, data::Dataset local_data, TrainConfig config, std::uint64_t seed);

  int id() const { return id_; }
  bool malicious() const { return attack_.has_value(); }
  std::size_t dataset_size() const { return data_.size(); }
  const data::Dataset& local_data() const { return data_; }
  // Structural masks every step applies: the server-pushed ones merged with
  // the anticipated ones a prune-aware attacker trained under. Empty until
  // the first mask arrives.
  const PruneMasks& prune_masks() const { return masks_; }

  // Adjust the local learning rate (the fine-tuning stage runs at a reduced
  // rate so the recovered model is not destabilized).
  void set_lr(double lr) { config_.lr = lr; }
  double lr() const { return config_.lr; }

  // Turn this client into an attacker: its training set is augmented with
  // backdoored victim-label copies and its updates are amplified.
  void make_malicious(AttackSpec spec);
  const AttackSpec* attack() const { return attack_ ? &*attack_ : nullptr; }

  // Anticipated pruning mask for the kPruneAware attacker (Attack 2): the
  // attacker trains with these masks applied so the backdoor moves into
  // essential neurons.
  void set_anticipated_masks(PruneMasks masks);
  const PruneMasks& anticipated_masks() const { return anticipated_masks_; }

  // The evolving record (see ClientState) and its restoration.
  ClientState state() const;
  void restore(ClientState state);

  // --- round protocol -------------------------------------------------------
  // Sync `scratch` to the global parameters, train locally, and return the
  // update Δω (= x_i − ω_t for honest clients, γ·(x_atk − ω_t) for
  // attackers). `scratch` holds the trained local model afterwards.
  std::vector<float> compute_update(Replica& scratch, std::span<const float> global_params);

  // --- defense protocol -----------------------------------------------------
  // Structural prune masks pushed by the server before fine-tuning, merged
  // into prune_masks(). Their shape is checked on `scratch` first.
  void apply_prune_masks(Replica& scratch, const PruneMasks& masks);

  // Mean post-ReLU activation per neuron of the pruning layer, over the
  // client's *clean* local data at the given global parameters.
  std::vector<double> activation_means(Replica& scratch, std::span<const float> global_params);

  // RAP report: rank position of every neuron, 1 = most active. Honest
  // clients rank by activation; a kRankManipulation attacker promotes its
  // backdoor neurons to the top ranks.
  std::vector<std::uint32_t> rank_report(Replica& scratch,
                                         std::span<const float> global_params);

  // MVP report: one vote per neuron, 1 = prune. Exactly
  // round(p·P) votes are cast. A kRankManipulation attacker never votes for
  // its backdoor neurons.
  std::vector<std::uint8_t> vote_report(Replica& scratch, std::span<const float> global_params,
                                        double prune_rate);

  // Local test accuracy at the given parameters (used when the server has no
  // validation data). An attacker reports a manipulated (inflated) value.
  double report_accuracy(Replica& scratch, std::span<const float> global_params);

  // Drain and answer all pending messages from the server. Malformed or
  // mistyped messages (a faulty wire) are logged and skipped, never fatal.
  void handle_pending(comm::Network& net, Replica& scratch);
  // Answer a single already-received message with the same log-and-skip
  // error handling. The client binary drains the queue itself (it intercepts
  // kRoundSync and snapshots after broadcasts — DESIGN.md §18) and hands
  // everything else here.
  void handle_one(comm::Network& net, const comm::Message& msg, Replica& scratch);

  // Checkpoint support: write_client_state(state()) and its inverse.
  void save_state(common::ByteWriter& w) const;
  void restore_state(common::ByteReader& r);

 private:
  // Decode and answer one server message; throws fedcleanse::Error on
  // anything malformed (handle_pending catches and logs).
  void handle_message(comm::Network& net, const comm::Message& msg, Replica& scratch);
  void train_locally(nn::ModelSpec& model);
  // Mean tapped activation per neuron over `ds`, in shuffled batches.
  std::vector<double> channel_means(const nn::ModelSpec& model, const data::Dataset& ds);
  // Activation increase caused by the trigger, per neuron — the attacker's
  // estimate of which neurons carry its backdoor.
  std::vector<double> backdoor_neuron_scores(const nn::ModelSpec& model);
  void self_adjust_weights(nn::ModelSpec& model);

  int id_;
  data::Dataset data_;         // clean local data
  data::Dataset train_data_;   // attackers' poisoned superset; empty otherwise
  TrainConfig config_;
  std::optional<AttackSpec> attack_;
  PruneMasks masks_;
  PruneMasks anticipated_masks_;
  common::Rng rng_;
};

}  // namespace fedcleanse::fl
