#include "fl/run_state.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>

#include "common/logging.h"
#include "obs/journal.h"
#include "obs/metrics.h"

namespace fedcleanse::fl {

namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kMagic = 0x46435253;  // "FCRS"
// v5: snapshot epoch for distributed failover. v6: the header checksum and
// the in-flight messages' stored checksums are XXH64 (FNV-1a before), so a v5
// file is refused by version, not by a misleading checksum failure. v7: a
// client is its record (fl::ClientState: RNG, lr, masks), with no model
// parameters.
constexpr std::uint32_t kVersion = 7;
// magic + version + checksum + payload length prefix.
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 4;

constexpr const char* kPrefix = "snapshot-";
constexpr const char* kSuffix = ".fcrs";

// snapshot-NNNNNN.fcrs → NNNNNN, or nullopt for any other filename (including
// the .tmp siblings a crash mid-save can leave behind).
std::optional<std::uint64_t> parse_generation(const std::string& name) {
  const std::string prefix = kPrefix;
  const std::string suffix = kSuffix;
  if (name.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return std::nullopt;
  }
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  if (digits.empty()) return std::nullopt;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
  }
  return std::strtoull(digits.c_str(), nullptr, 10);
}

// All snapshot generations in `dir`, newest first. Missing directory → empty.
std::vector<std::pair<std::uint64_t, std::string>> list_generations(const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return found;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (auto gen = parse_generation(entry.path().filename().string())) {
      found.emplace_back(*gen, entry.path().string());
    }
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return found;
}

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(std::fopen(path.c_str(), "rb"),
                                                       &std::fclose);
  if (file == nullptr) {
    throw CheckpointError("cannot open run snapshot for reading: " + path);
  }
  std::fseek(file.get(), 0, SEEK_END);
  const long size = std::ftell(file.get());
  if (size < 0) throw CheckpointError("cannot stat run snapshot: " + path);
  std::fseek(file.get(), 0, SEEK_SET);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  const std::size_t read = std::fread(bytes.data(), 1, bytes.size(), file.get());
  if (read != bytes.size()) throw CheckpointError("short read from run snapshot: " + path);
  return bytes;
}

// Write + flush + fsync. A snapshot that rename() publishes must already be
// on stable storage, or a power loss could leave a truncated "newest"
// generation that shadows an intact older one until fallback kicks in.
void write_file_durable(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(std::fopen(path.c_str(), "wb"),
                                                       &std::fclose);
  if (file == nullptr) {
    throw CheckpointError("cannot open run snapshot for writing: " + path);
  }
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), file.get());
  if (written != bytes.size() || std::fflush(file.get()) != 0) {
    throw CheckpointError("short write to run snapshot: " + path);
  }
  if (::fsync(::fileno(file.get())) != 0) {
    throw CheckpointError("fsync failed for run snapshot: " + path);
  }
}

// fsync the directory so the rename itself is durable. Best-effort: some
// filesystems refuse O_DIRECTORY fsync, and the file contents are already
// safe by this point.
void sync_directory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

std::vector<std::uint8_t> encode_run_snapshot(const RunSnapshot& snap) {
  common::ByteWriter payload;
  payload.write_string(snap.stage);
  payload.write_i32(snap.next_round);
  payload.write_u32(snap.epoch);
  payload.write_u8_vector(snap.sim_state);
  payload.write_u8_vector(snap.stage_state);

  common::ByteWriter w;
  w.write_u32(kMagic);
  w.write_u32(kVersion);
  w.write_u64(common::xxh64(payload.bytes()));
  w.write_u8_vector(payload.take());
  return w.take();
}

RunSnapshot decode_run_snapshot(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kHeaderBytes) {
    throw CheckpointError("run snapshot truncated: " + std::to_string(bytes.size()) +
                          " bytes, header needs " + std::to_string(kHeaderBytes));
  }
  common::ByteReader header(bytes);
  if (header.read_u32() != kMagic) throw CheckpointError("not a fedcleanse run snapshot");
  const std::uint32_t version = header.read_u32();
  if (version != kVersion) {
    throw CheckpointError("unsupported run snapshot version " + std::to_string(version) +
                          " (expected " + std::to_string(kVersion) + ")");
  }
  const std::uint64_t stored = header.read_u64();
  std::vector<std::uint8_t> payload;
  try {
    payload = header.read_u8_vector();
  } catch (const SerializationError& e) {
    throw CheckpointError(std::string("run snapshot truncated: ") + e.what());
  }
  if (!header.exhausted()) throw CheckpointError("run snapshot has trailing bytes");
  if (common::xxh64(payload) != stored) {
    throw CheckpointError("run snapshot payload fails its checksum");
  }

  try {
    common::ByteReader r(payload);
    RunSnapshot snap;
    snap.stage = r.read_string();
    snap.next_round = r.read_i32();
    snap.epoch = r.read_u32();
    snap.sim_state = r.read_u8_vector();
    snap.stage_state = r.read_u8_vector();
    if (!r.exhausted()) throw CheckpointError("run snapshot payload has trailing bytes");
    return snap;
  } catch (const CheckpointError&) {
    throw;
  } catch (const Error& e) {
    throw CheckpointError(std::string("run snapshot payload undecodable: ") + e.what());
  }
}

RunSnapshot load_snapshot_file(const std::string& path) {
  return decode_run_snapshot(read_file_bytes(path));
}

RunSnapshot make_run_snapshot(const Simulation& sim, std::string stage, int next_round) {
  RunSnapshot snap;
  snap.stage = std::move(stage);
  snap.next_round = next_round;
  common::ByteWriter w;
  sim.save_state(w);
  snap.sim_state = w.take();
  return snap;
}

void resume_simulation(Simulation& sim, const RunSnapshot& snap) {
  common::ByteReader r(snap.sim_state);
  try {
    sim.restore_state(r);
  } catch (const CheckpointError&) {
    throw;
  } catch (const Error& e) {
    throw CheckpointError(std::string("run snapshot sim state undecodable: ") + e.what());
  }
  if (!r.exhausted()) {
    throw CheckpointError("run snapshot sim state has trailing bytes");
  }
  if (obs::Journal* journal = obs::ambient_journal()) {
    obs::JsonObject entry;
    entry.add("kind", "resume").add("stage", snap.stage).add("round", snap.next_round);
    journal->write(entry);
  }
  FC_LOG(Info) << "resumed run from snapshot: stage=" << snap.stage << " round="
               << snap.next_round;
}

RunSnapshot make_server_snapshot(const Simulation& sim, int next_round,
                                 std::uint32_t epoch) {
  RunSnapshot snap;
  snap.stage = run_stage::kServerTrain;
  snap.next_round = next_round;
  snap.epoch = epoch;
  common::ByteWriter state;
  sim.save_server_state(state);
  snap.sim_state = state.take();
  common::ByteWriter key;
  key.write_u64(sim.config().seed);
  snap.stage_state = key.take();
  return snap;
}

void resume_server_simulation(Simulation& sim, const RunSnapshot& snap,
                              std::uint32_t new_epoch) {
  if (snap.stage != run_stage::kServerTrain) {
    throw CheckpointError("snapshot stage '" + snap.stage +
                          "' is not a server-scope snapshot");
  }
  common::ByteReader key(snap.stage_state);
  const std::uint64_t snap_seed = key.read_u64();
  if (!key.exhausted()) {
    throw CheckpointError("server snapshot key has trailing bytes");
  }
  if (snap_seed != sim.config().seed) {
    throw CheckpointError("server snapshot keyed to seed " + std::to_string(snap_seed) +
                          ", this run uses seed " + std::to_string(sim.config().seed));
  }
  common::ByteReader r(snap.sim_state);
  try {
    sim.restore_server_state(r);
  } catch (const CheckpointError&) {
    throw;
  } catch (const Error& e) {
    throw CheckpointError(std::string("server snapshot state undecodable: ") + e.what());
  }
  if (!r.exhausted()) {
    throw CheckpointError("server snapshot state has trailing bytes");
  }
  sim.set_run_epoch(new_epoch);
  FC_METRIC(server_resumes().inc());
  if (obs::Journal* journal = obs::ambient_journal()) {
    obs::JsonObject entry;
    entry.add("kind", "server_resume")
        .add("stage", run_stage::kTrain)
        .add("round", snap.next_round)
        .add("epoch", static_cast<std::int64_t>(new_epoch));
    journal->write(entry);
  }
  FC_LOG(Info) << "server resumed from snapshot: round=" << snap.next_round
               << " epoch=" << new_epoch;
}

RunSnapshot make_client_snapshot(const Client& client, std::uint64_t run_seed,
                                 int client_id, int next_round, std::uint32_t epoch) {
  RunSnapshot snap;
  snap.stage = run_stage::kClientTrain;
  snap.next_round = next_round;
  snap.epoch = epoch;
  common::ByteWriter state;
  client.save_state(state);
  snap.sim_state = state.take();
  common::ByteWriter key;
  key.write_u64(run_seed);
  key.write_i32(client_id);
  snap.stage_state = key.take();
  return snap;
}

void restore_client_snapshot(Client& client, const RunSnapshot& snap,
                             std::uint64_t run_seed, int client_id) {
  if (snap.stage != run_stage::kClientTrain) {
    throw CheckpointError("snapshot stage '" + snap.stage +
                          "' is not a client-scope snapshot");
  }
  common::ByteReader key(snap.stage_state);
  const std::uint64_t snap_seed = key.read_u64();
  const std::int32_t snap_id = key.read_i32();
  if (!key.exhausted()) {
    throw CheckpointError("client snapshot key has trailing bytes");
  }
  if (snap_seed != run_seed || snap_id != client_id) {
    throw CheckpointError("client snapshot keyed to (seed " + std::to_string(snap_seed) +
                          ", client " + std::to_string(snap_id) + "), this process is (seed " +
                          std::to_string(run_seed) + ", client " + std::to_string(client_id) +
                          ")");
  }
  common::ByteReader r(snap.sim_state);
  try {
    client.restore_state(r);
  } catch (const CheckpointError&) {
    throw;
  } catch (const Error& e) {
    throw CheckpointError(std::string("client snapshot state undecodable: ") + e.what());
  }
  if (!r.exhausted()) {
    throw CheckpointError("client snapshot state has trailing bytes");
  }
}

CheckpointManager::CheckpointManager(std::string dir, int every, int keep)
    : dir_(std::move(dir)), every_(every), keep_(keep) {
  FC_REQUIRE(keep_ >= 1, "checkpoint manager must keep at least one generation");
  if (!enabled()) return;
  FC_REQUIRE(!dir_.empty(), "checkpoint manager needs a directory");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw CheckpointError("cannot create checkpoint directory " + dir_ + ": " +
                          ec.message());
  }
  // Continue numbering after whatever a previous (crashed) run left behind,
  // so its generations stay available for fallback until rotation prunes
  // them.
  const auto existing = list_generations(dir_);
  if (!existing.empty()) next_generation_ = existing.front().first + 1;
}

bool CheckpointManager::due(int completed, int total) const {
  if (!enabled() || completed <= 0) return false;
  return completed % every_ == 0 || completed == total;
}

std::string CheckpointManager::snapshot_path(std::uint64_t generation) const {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%06llu%s", kPrefix,
                static_cast<unsigned long long>(generation), kSuffix);
  return (fs::path(dir_) / name).string();
}

std::string CheckpointManager::save(const RunSnapshot& snap) {
  FC_REQUIRE(enabled(), "checkpoint manager is disabled");
  const std::string path = snapshot_path(next_generation_);
  const std::string tmp = path + ".tmp";
  write_file_durable(tmp, encode_run_snapshot(snap));
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    throw CheckpointError("cannot publish run snapshot " + path + ": " + ec.message());
  }
  sync_directory(dir_);
  ++next_generation_;
  prune_old_generations();
  FC_LOG(Debug) << "wrote run snapshot " << path << " (stage=" << snap.stage
                << " round=" << snap.next_round << ")";
  return path;
}

void CheckpointManager::prune_old_generations() const {
  const auto generations = list_generations(dir_);
  std::error_code ec;
  for (std::size_t i = static_cast<std::size_t>(keep_); i < generations.size(); ++i) {
    fs::remove(generations[i].second, ec);
  }
}

std::optional<RunSnapshot> CheckpointManager::load_latest() const {
  const auto generations = list_generations(dir_);
  if (generations.empty()) return std::nullopt;
  for (const auto& [gen, path] : generations) {
    try {
      return load_snapshot_file(path);
    } catch (const CheckpointError& e) {
      // The headline fallback: a snapshot torn by a crash mid-save (or rotted
      // on disk) must cost at most `every` rounds of recompute, never the run.
      FC_LOG(Warn) << "run snapshot " << path << " unusable (" << e.what()
                   << "); falling back a generation";
    }
  }
  throw CheckpointError("all " + std::to_string(generations.size()) +
                        " run snapshot(s) in " + dir_ + " are unusable");
}

}  // namespace fedcleanse::fl
