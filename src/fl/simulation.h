// End-to-end federated training simulation: synthesizes the dataset,
// partitions it non-IID, wires server and clients over the in-memory
// network, runs the round protocol (with attackers), and records per-round
// test accuracy and attack success rate.
//
// Two client-residency engines share one protocol (DESIGN.md §14):
//  - materialized (small populations, the default): every client is built
//    eagerly at construction, exactly as before the virtual-client refactor,
//    so existing runs stay byte-identical.
//  - virtual (million-client scale): clients are derived lazily from
//    (run_seed, client_id) by fl::ClientFactory when sampled into a cohort;
//    only the resident cohort lives in memory, recycled through a pooled
//    slab, with evicted clients' evolving state (RNG position, learning
//    rate, masks) parked in a small per-id ledger.
//
// Clients own no model. Client work runs on scratch replicas, one per
// thread that runs it (pool workers and the coordinating thread), cloned
// lazily from one template.
//
// The defense pipeline (defense/pipeline.h) operates on a finished
// Simulation: it reuses the same clients for the pruning protocol and
// fine-tuning rounds.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "comm/fault_model.h"
#include "comm/transport.h"
#include "common/threadpool.h"
#include "common/timer.h"
#include "data/partition.h"
#include "data/synth.h"
#include "fl/client.h"
#include "fl/server.h"

namespace fedcleanse::comm {
class FaultyNetwork;
}

namespace fedcleanse::fl {

class ClientFactory;

// Client storage policy. kAuto picks kVirtual only for large populations
// (≥ 4096 clients) with per-round sampling — every small-population config
// keeps the materialized engine and its exact historical numerics.
enum class ClientResidency { kAuto, kMaterialized, kVirtual };

// Round-protocol robustness knobs (retry backoff + the socket transport's
// timeouts/heartbeats). Both deployment binaries expose every field as a
// flag — nothing here is a hardcoded cap.
struct ProtocolConfig {
  // exchange_streaming's retry deadline grows as base << min(attempt, shift).
  int max_backoff_shift = 3;
  // Connect/accept/heartbeat/backoff knobs for the socket transport; unused
  // (but harmless) on the in-process wire.
  comm::TransportConfig transport;
};

struct SimulationConfig {
  nn::Architecture arch = nn::Architecture::kMnistCnn;
  data::SynthKind dataset = data::SynthKind::kDigits;
  int n_clients = 10;
  int n_attackers = 1;
  int rounds = 12;
  // Clients sampled per round; 0 = all clients every round (the paper's
  // simplified rule; Fig 7 restores random selection).
  int clients_per_round = 0;
  int samples_per_class_train = 100;
  int samples_per_class_test = 30;
  int labels_per_client = 3;      // K-label non-IID distribution
  int samples_per_client = 0;     // 0 = even split
  double data_noise = 0.10;
  TrainConfig train;
  AttackSpec attack;
  // Distributed Backdoor Attack: split attack.pattern into one slice per
  // attacker; evaluation always uses the full pattern.
  bool dba = false;
  // L2 penalty applied to the last conv layer only (Fig 10).
  double last_conv_weight_decay = 0.0;
  ServerConfig server;
  // Wire fault injection + degraded-mode protocol knobs. With every rate at
  // zero (the default) the plain Network is used and results are
  // byte-identical to a build without the fault layer.
  comm::FaultConfig fault;
  // Retry/backoff/heartbeat knobs shared by the in-process retry protocol and
  // the socket transport.
  ProtocolConfig protocol;
  // Client storage engine; see ClientResidency.
  ClientResidency residency = ClientResidency::kAuto;
  // Virtual mode: resident-slab capacity (0 = derived from the cohort and
  // defense committee sizes). Residents hold data and a small record, no
  // model, so memory stays independent of n_clients.
  int max_resident_clients = 0;
  // Virtual mode: size of the deterministic strided committee that stands in
  // for "all clients" in the defense protocol (pruning reports, mask
  // broadcast, accuracy oracle). Materialized mode always uses all clients.
  int defense_clients = 64;
  std::uint64_t seed = 42;
  // Worker threads for the per-client round work and the batch-parallel
  // tensor kernels. 0 = hardware concurrency; the FEDCLEANSE_THREADS
  // environment variable overrides whatever is configured here. Results are
  // bit-identical for every thread count.
  int n_threads = 0;
};

// What one request→dispatch→collect exchange observed at the server, after
// all retries (filled by fl/protocol.h's exchange_streaming).
struct ExchangeStats {
  int n_participants = 0;
  int n_valid = 0;      // clients that produced a valid report (possibly late)
  int n_dropped = 0;    // clients with no valid report after all retries
  int n_corrupted = 0;  // malformed/stale/mistyped messages skipped along the way
  int n_retried = 0;    // request retransmissions issued
  bool quorum_met = true;
};

struct RoundRecord {
  int round = 0;
  double test_acc = 0.0;
  double attack_acc = 0.0;
  // Degraded-mode bookkeeping for the round's update exchange. On a perfect
  // wire: n_valid == n_participants, everything else zero/true.
  int n_participants = 0;
  int n_valid = 0;
  int n_dropped = 0;
  int n_corrupted = 0;
  int n_retried = 0;
  bool quorum_met = true;
  // Client→server bytes this round's exchanges put on the wire (uplink
  // delta across run_round) — the observable the int8 update codec shrinks.
  std::uint64_t wire_bytes = 0;

  bool operator==(const RoundRecord&) const = default;
};

// RoundRecord / ExchangeStats ↔ bytes, for the run-snapshot format
// (fl/run_state.h).
void write_round_record(common::ByteWriter& w, const RoundRecord& rec);
RoundRecord read_round_record(common::ByteReader& r);
void write_exchange_stats(common::ByteWriter& w, const ExchangeStats& stats);
ExchangeStats read_exchange_stats(common::ByteReader& r);

class CheckpointManager;

class Simulation {
 public:
  // In-process simulation (the deterministic reference): every client lives
  // in this address space, wired over an in-memory Network.
  //
  // `remote_net` switches the server role to a remote deployment: the round
  // protocol runs over the given transport (not owned; typically a
  // SocketServerNetwork) and dispatch_clients is a no-op — the cohort trains
  // in other processes. The constructor still builds the full local client
  // population so the RNG draw sequence (data → server model → validation →
  // per-client initial weights/seeds) matches the in-process reference draw
  // for draw; these stand-in clients hold data and a record but no model,
  // and are never dispatched. Remote mode requires the
  // materialized engine and a fault-free config (real processes provide the
  // faults); checkpointing uses server-scope snapshots (DESIGN.md §18)
  // instead of the full-run format.
  explicit Simulation(SimulationConfig config, comm::Network* remote_net = nullptr);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // Run every remaining configured round, starting at completed_rounds()
  // (0 on a fresh simulation, the restored position after a resume). Appends
  // to history and, when a checkpoint manager is installed, writes a run
  // snapshot at every due round boundary.
  void run(bool record_history = true);
  // Run a single round; returns the participating client ids.
  std::vector<int> run_round(std::uint32_t round);
  // Run a single round over an explicit cohort (no selection draw) — the
  // defense's fine-tune stage uses this in virtual mode to keep cleansing on
  // the committee that actually received masks and rescaled learning rates.
  std::vector<int> run_round(std::uint32_t round, const std::vector<int>& participants);

  Server& server() { return *server_; }
  comm::Network& network() { return remote_net_ != nullptr ? *remote_net_ : *net_; }
  // The fault-injection wrapper, or nullptr when running on a perfect wire.
  comm::FaultyNetwork* faulty_network();
  // True when the round protocol runs over an external transport and the
  // local clients are RNG stand-ins only.
  bool remote() const { return remote_net_ != nullptr; }
  const SimulationConfig& config() const { return config_; }

  // --- clients --------------------------------------------------------------
  // Configured population size (NOT the number in memory; see
  // resident_clients()).
  int n_clients() const { return config_.n_clients; }
  // True when clients are derived lazily and only the sampled cohort is
  // resident.
  bool virtual_clients() const { return virtual_mode_; }
  // Clients currently materialized (== n_clients() in materialized mode).
  std::size_t resident_clients() const;
  // Access one client, materializing it first in virtual mode. The reference
  // stays valid until the next ensure_resident()/dispatch — do not hold it
  // across rounds in virtual mode.
  Client& client(int id);
  // Make every listed client resident (coordinating thread only). In virtual
  // mode this may evict unneeded residents — their RNG position, learning
  // rate, and masks persist in the ledger and survive re-materialization.
  void ensure_resident(const std::vector<int>& ids);

  // The simulation's execution context (also installed as the process-wide
  // ambient pool for the tensor kernels while this Simulation is alive).
  common::ThreadPool& pool() { return *pool_; }

  // The calling thread's scratch replica for client work: one per pool
  // worker plus one for the coordinating thread, cloned from the template on
  // first use. Call only from the coordinating thread or a pool() worker.
  Replica& replica();
  // Replicas cloned so far (coordinating thread only, between tasks).
  std::size_t live_replicas() const;

  // Drain each listed client's pending server messages, one client per pool
  // task, sharded over contiguous blocks of the (sorted) cohort. Clients
  // share no mutable state (own data, record, RNG, channel; each task runs
  // on its worker's replica), and the server's collect loops fix the
  // aggregation order afterwards, so the result is identical to a serial
  // drain.
  void dispatch_clients(const std::vector<int>& ids);

  const data::Dataset& test_set() const { return test_; }
  const data::Dataset& backdoor_testset() const { return backdoor_test_; }

  // Current global-model metrics.
  double test_accuracy();
  double attack_success();

  const std::vector<RoundRecord>& history() const { return history_; }
  // Stats of the most recent run_round() update exchange (perfect-wire
  // defaults before the first round).
  const ExchangeStats& last_round_stats() const { return last_round_stats_; }
  double training_seconds() const { return training_seconds_; }

  // Ids of all / malicious clients.
  std::vector<int> all_client_ids() const;
  std::vector<int> attacker_ids() const;
  // The client set the defense protocol addresses: every client when
  // materialized; a deterministic strided committee of defense_clients ids
  // in virtual mode (no RNG consumed — resume-neutral).
  std::vector<int> protocol_client_ids() const;

  // --- crash-resume (DESIGN.md §13) ----------------------------------------
  // Install a checkpoint manager (not owned; may be nullptr to detach). While
  // installed, run() snapshots the whole run at every due round boundary, and
  // the defense stages snapshot their own progress through the same manager.
  void set_checkpoint_manager(CheckpointManager* manager) { checkpoint_ = manager; }
  CheckpointManager* checkpoint_manager() { return checkpoint_; }
  // Training rounds finished so far (== the next round index run() will run).
  int completed_rounds() const { return next_round_; }

  // Serialize / restore everything that evolves after construction: the
  // server-scope state (save_server_state below), then the clients (every
  // client when materialized; only the resident cohort + eviction ledger in
  // virtual mode — the rest re-derive from the factory roots), and the
  // network (queues, fault state). Must be called at a round boundary — no
  // client tasks running, wire quiescent. restore_state expects a Simulation
  // built from the *same* config and throws CheckpointError on any
  // structural mismatch.
  void save_state(common::ByteWriter& w) const;
  void restore_state(common::ByteReader& r);

  // --- distributed failover (DESIGN.md §18) --------------------------------
  // Server-node scope only: round cursor, protocol RNG stream, exchange
  // stats, round history, and the server (model + reputation). Excludes the
  // clients (rebuilt from config at restart; never dispatched in remote
  // mode) and the transport (live sockets cannot be snapshotted —
  // clients reconnect and are rolled back via kRoundSync). Unlike
  // save_state/restore_state, valid in remote mode; also usable in-process
  // (the unit tests do).
  void save_server_state(common::ByteWriter& w) const;
  void restore_server_state(common::ByteReader& r);

  // Snapshot epoch this run executes at: 0 until a resume installs a higher
  // one. Stamped into server-scope snapshots and the round-sync handshake.
  std::uint32_t run_epoch() const { return run_epoch_; }
  void set_run_epoch(std::uint32_t epoch) { run_epoch_ = epoch; }

 private:
  // Direct storage access; the id must already be resident in virtual mode.
  Client& resident_client(int id);
  // Move client `id`'s record out of the slab into the ledger (virtual mode).
  void evict(int id);
  // Build client `id` from the factory, restoring any ledger record.
  void materialize(int id);
  std::size_t resident_capacity(std::size_t needed) const;

  SimulationConfig config_;
  comm::Network* remote_net_ = nullptr;  // not owned; null = in-process
  std::unique_ptr<common::ThreadPool> pool_;
  common::Rng rng_;
  data::Dataset test_;
  data::Dataset backdoor_test_;
  std::unique_ptr<comm::Network> net_;
  std::unique_ptr<Server> server_;
  // Architecture and per-layer weight decay for every replica; replicas_[0]
  // is the coordinating thread's, replicas_[1 + w] pool worker w's.
  nn::ModelSpec replica_template_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  // Materialized engine: the whole population, indexed by id.
  std::vector<Client> clients_;
  // Virtual engine: factory + pooled slab of resident clients + ledger.
  bool virtual_mode_ = false;
  std::unique_ptr<ClientFactory> factory_;
  std::vector<std::optional<Client>> slab_;
  std::vector<std::size_t> free_slots_;
  std::map<int, std::size_t> resident_;  // client id → slab slot
  // Evicted clients' records; everything else a virtual client holds is a
  // pure function of (run_seed, id).
  std::map<int, ClientState> ledger_;
  std::vector<RoundRecord> history_;
  ExchangeStats last_round_stats_;
  double training_seconds_ = 0.0;
  int next_round_ = 0;
  std::uint32_t run_epoch_ = 0;
  CheckpointManager* checkpoint_ = nullptr;
};

}  // namespace fedcleanse::fl
