// Durable run checkpoints with bit-identical crash resume (DESIGN.md §13).
//
// A RunSnapshot captures an entire run at a round boundary: which stage was
// executing ("train" or "finetune"), the full Simulation state (round
// position, RNG streams, server model + reputation, every client record, the
// wire including fault state), and an opaque stage-progress payload owned by the
// defense layer. CheckpointManager writes snapshots atomically (tmp + fsync
// + rename) with N-generation rotation, and falls back a generation when the
// newest file is truncated or bit-flipped. A run killed at any point and
// resumed from its latest snapshot produces a final model byte-identical to
// the uninterrupted run, at any thread count, with fault injection on.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "fl/simulation.h"

namespace fedcleanse::fl {

// Stage tags stored in RunSnapshot::stage.
namespace run_stage {
inline constexpr const char* kTrain = "train";
inline constexpr const char* kFinetune = "finetune";
// Distributed-failover scopes (DESIGN.md §18): a server-only snapshot taken
// by the remote-mode server at round boundaries, and one client's own state.
// Distinct tags so a full-run snapshot can never cross-resume into a
// node-scope one (or vice versa) — the stage check throws CheckpointError.
inline constexpr const char* kServerTrain = "server_train";
inline constexpr const char* kClientTrain = "client_train";
}  // namespace run_stage

struct RunSnapshot {
  std::string stage = run_stage::kTrain;
  // Next round index *within the stage* (training round for kTrain,
  // fine-tuning round for kFinetune).
  std::int32_t next_round = 0;
  // Simulation::save_state bytes.
  std::vector<std::uint8_t> sim_state;
  // Stage-specific progress, opaque to this layer. Empty for kTrain; the
  // defense layer stores its fine-tune keep-best loop and pipeline progress
  // here (defense/pipeline.h) so fl/ never depends on defense/. The
  // node-scope failover stages store their (run_seed[, client_id]) key here.
  std::vector<std::uint8_t> stage_state;
  // Snapshot epoch (DESIGN.md §18): 0 for a run never resumed; each resume
  // restores epoch E and continues at E+1, stamping the new epoch into the
  // round-sync handshake so stale pre-crash traffic is rejected with typed
  // errors instead of silently mixing generations.
  std::uint32_t epoch = 0;
};

// RunSnapshot ↔ bytes. The on-disk format is magic "FCRS" + version +
// XXH64 checksum over the payload; decode_run_snapshot throws
// CheckpointError on anything malformed (bad magic/version, failed checksum,
// truncation, trailing bytes).
std::vector<std::uint8_t> encode_run_snapshot(const RunSnapshot& snap);
RunSnapshot decode_run_snapshot(const std::vector<std::uint8_t>& bytes);

// Read and decode one snapshot file. Throws CheckpointError on I/O failure
// or a malformed file.
RunSnapshot load_snapshot_file(const std::string& path);

// Capture the current run into a snapshot (wire must be quiescent: call only
// from the coordinating thread at a round boundary).
RunSnapshot make_run_snapshot(const Simulation& sim, std::string stage,
                              int next_round);

// Restore `sim` from a snapshot and append a {"kind":"resume"} line to the
// ambient journal (if one is installed) so downstream tooling can tell
// replayed rounds from live ones. The simulation must have been built from
// the same SimulationConfig that produced the snapshot.
void resume_simulation(Simulation& sim, const RunSnapshot& snap);

// --- distributed failover snapshots (DESIGN.md §18) -------------------------

// Server-scope snapshot for the remote deployment: captures only the state
// that evolves on the server node (round cursor, protocol RNG, server model +
// reputation, per-round history/exchange stats) — the stand-in clients
// are rebuilt from the config at restart and the live clients re-synchronized
// via kRoundSync. stage_state carries the run seed so a snapshot can never
// resume under a different seed.
RunSnapshot make_server_snapshot(const Simulation& sim, int next_round,
                                 std::uint32_t epoch);

// Restore a remote-mode server from a server-scope snapshot and continue at
// `new_epoch` (the caller passes snap.epoch + 1). Journals
// {"kind":"server_resume"}. Throws CheckpointError on a stage or run-seed
// mismatch.
void resume_server_simulation(Simulation& sim, const RunSnapshot& snap,
                              std::uint32_t new_epoch);

// One client process's own evolving state (its ClientState record: RNG
// stream, learning rate, prune and anticipated masks), keyed by
// (run_seed, client_id): restoring under a different seed or id throws
// CheckpointError instead of silently producing a divergent client.
RunSnapshot make_client_snapshot(const Client& client, std::uint64_t run_seed,
                                 int client_id, int next_round, std::uint32_t epoch);
void restore_client_snapshot(Client& client, const RunSnapshot& snap,
                             std::uint64_t run_seed, int client_id);

// Writes rotated snapshot generations into a directory and loads the newest
// decodable one back.
//
//   snapshot-000000.fcrs, snapshot-000001.fcrs, ...
//
// save() is atomic: the snapshot is written to a ".tmp" sibling, flushed and
// fsync'd, then renamed into place — a crash mid-save can never destroy an
// older generation. The `keep` newest generations are retained; older ones
// are pruned after each successful save.
class CheckpointManager {
 public:
  // `every` <= 0 disables checkpointing (enabled() false, due() never).
  // The directory is created if missing (only when enabled).
  CheckpointManager(std::string dir, int every, int keep = 3);

  bool enabled() const { return every_ > 0; }
  // True when a snapshot should be written after `completed` of `total`
  // stage rounds: every `every` rounds, and always at the stage's end (so a
  // resumed defense never has to replay training).
  bool due(int completed, int total) const;

  // Write one snapshot generation; returns the path written.
  std::string save(const RunSnapshot& snap);

  // Load the newest decodable snapshot. A truncated or corrupt generation is
  // logged as a warning and skipped in favour of the next-older one.
  // Returns nullopt when the directory holds no snapshot files at all;
  // throws CheckpointError when snapshots exist but every one is unusable.
  std::optional<RunSnapshot> load_latest() const;

  const std::string& dir() const { return dir_; }
  int keep() const { return keep_; }

 private:
  std::string snapshot_path(std::uint64_t generation) const;
  void prune_old_generations() const;

  std::string dir_;
  int every_;
  int keep_;
  std::uint64_t next_generation_ = 0;
};

}  // namespace fedcleanse::fl
