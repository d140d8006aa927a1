#include "fl/simulation.h"

#include <algorithm>
#include <set>

#include "comm/faulty_network.h"
#include "common/logging.h"
#include "common/sysinfo.h"
#include "fl/client_factory.h"
#include "fl/metrics.h"
#include "fl/protocol.h"
#include "fl/run_state.h"
#include "obs/journal.h"
#include "obs/trace.h"

namespace fedcleanse::fl {

namespace {
// kAuto flips to the virtual engine only at this population size and above:
// below it the eager engine is cheap, and keeping it the default preserves
// byte-identical results for every pre-existing configuration.
constexpr int kVirtualAutoThreshold = 4096;
}  // namespace

Simulation::Simulation(SimulationConfig config, comm::Network* remote_net)
    : config_(std::move(config)),
      remote_net_(remote_net),
      pool_(std::make_unique<common::ThreadPool>(
          common::resolve_n_threads(static_cast<std::size_t>(
              config_.n_threads < 0 ? 0 : config_.n_threads)))),
      rng_(config_.seed) {
  common::set_ambient_pool(pool_.get());
  FC_REQUIRE(config_.n_clients > 0, "need at least one client");
  FC_REQUIRE(config_.n_attackers >= 0 && config_.n_attackers <= config_.n_clients,
             "attacker count out of range");
  FC_REQUIRE(!config_.attack.pattern.empty() || config_.n_attackers == 0,
             "attackers configured without a trigger pattern");
  config_.fault.validate(config_.n_clients);
  config_.protocol.transport.validate();
  FC_REQUIRE(config_.protocol.max_backoff_shift >= 0,
             "max_backoff_shift must be non-negative");
  if (remote_net_ != nullptr) {
    // Real processes supply the faults; the injection layer would desync the
    // fate streams between the server's and clients' Simulation replicas.
    FC_REQUIRE(!config_.fault.any_faults() && !config_.fault.force_faulty_network,
               "remote transport excludes the fault-injection layer");
    FC_REQUIRE(remote_net_->n_clients() == config_.n_clients,
               "remote transport sized for a different population");
  }
  // The server's recv deadline is a fault-protocol knob; keep them in sync.
  config_.server.recv_timeout_ms = config_.fault.recv_timeout_ms;

  const bool sampled_rounds = config_.clients_per_round > 0 &&
                              config_.clients_per_round < config_.n_clients;
  switch (config_.residency) {
    case ClientResidency::kMaterialized:
      virtual_mode_ = false;
      break;
    case ClientResidency::kVirtual:
      virtual_mode_ = true;
      break;
    case ClientResidency::kAuto:
      virtual_mode_ = config_.n_clients >= kVirtualAutoThreshold && sampled_rounds;
      break;
  }
  FC_REQUIRE(remote_net_ == nullptr || !virtual_mode_,
             "remote transport requires the materialized client engine");
  if (virtual_mode_) {
    FC_REQUIRE(sampled_rounds,
               "virtual clients need 0 < clients_per_round < n_clients");
    FC_REQUIRE(config_.defense_clients > 0,
               "virtual clients need a positive defense_clients committee");
    FC_REQUIRE(config_.max_resident_clients >= 0,
               "max_resident_clients must be non-negative");
  }

  // --- data ------------------------------------------------------------------
  data::SynthConfig train_cfg{config_.samples_per_class_train, rng_.next_u64(),
                              config_.data_noise};
  data::SynthConfig test_cfg{config_.samples_per_class_test, rng_.next_u64(),
                             config_.data_noise};
  auto full_train = data::make_synth(config_.dataset, train_cfg);
  test_ = data::make_synth(config_.dataset, test_cfg);
  if (config_.n_attackers > 0) {
    backdoor_test_ =
        data::make_backdoor_testset(test_, config_.attack.pattern,
                                    config_.attack.victim_label, config_.attack.attack_label);
  }

  const std::uint64_t part_seed = rng_.next_u64();
  std::vector<data::Dataset> locals;
  if (!virtual_mode_) {
    data::PartitionConfig part;
    part.n_clients = config_.n_clients;
    part.labels_per_client = config_.labels_per_client;
    part.samples_per_client = config_.samples_per_client;
    part.seed = part_seed;
    // Attackers must hold victim-label data to poison it.
    for (int a = 0; a < config_.n_attackers; ++a) {
      part.forced_labels.emplace_back(a, config_.attack.victim_label);
    }
    locals = data::partition_k_label(full_train, part);
  }

  // --- network, server, clients ----------------------------------------------
  if (remote_net_ != nullptr) {
    // The round protocol runs over the caller's transport; no in-process
    // wire exists (and no fault layer — checked above).
  } else if (config_.fault.any_faults() || config_.fault.force_faulty_network) {
    // The fault seed is derived from the experiment seed but NOT drawn from
    // rng_: enabling faults must not shift the data/init/selection streams,
    // so a zero-rate faulty run stays byte-identical to the plain network.
    std::uint64_t fseed = config_.fault.fault_seed;
    if (fseed == 0) {
      std::uint64_t state = config_.seed ^ 0xFA171FA171FA171FULL;
      fseed = common::splitmix64(state);
    }
    net_ = std::make_unique<comm::FaultyNetwork>(config_.n_clients, config_.fault, fseed);
  } else {
    net_ = std::make_unique<comm::Network>(config_.n_clients);
  }
  auto server_model = nn::make_model(config_.arch, rng_);
  if (config_.last_conv_weight_decay > 0.0) {
    server_model.net.layer(server_model.last_conv_index).weight_decay =
        config_.last_conv_weight_decay;
  }
  // Server validation set: an independent draw (the paper's "small
  // validation set" assumption).
  data::SynthConfig val_cfg{config_.samples_per_class_test, rng_.next_u64(),
                            config_.data_noise};
  auto validation = data::make_synth(config_.dataset, val_cfg);
  server_ = std::make_unique<Server>(std::move(server_model), std::move(validation),
                                     remote_net_ != nullptr ? *remote_net_ : *net_,
                                     config_.server);

  if (virtual_mode_) {
    // One template replica carries the architecture; per-client weights are
    // irrelevant (every protocol step syncs to the global parameters first).
    auto template_model = nn::make_model(config_.arch, rng_);
    if (config_.last_conv_weight_decay > 0.0) {
      template_model.net.layer(template_model.last_conv_index).weight_decay =
          config_.last_conv_weight_decay;
    }
    const std::uint64_t label_root = rng_.next_u64();
    const std::uint64_t data_root = rng_.next_u64();
    const std::uint64_t seed_root = rng_.next_u64();
    factory_ = std::make_unique<ClientFactory>(config_, std::move(full_train),
                                               std::move(template_model), part_seed,
                                               label_root, data_root, seed_root);
    return;
  }

  // DBA: split the global trigger across the attackers.
  std::vector<data::BackdoorPattern> local_patterns;
  if (config_.dba && config_.n_attackers > 1) {
    local_patterns = data::split_dba(config_.attack.pattern, config_.n_attackers);
  }

  clients_.reserve(static_cast<std::size_t>(config_.n_clients));
  for (int c = 0; c < config_.n_clients; ++c) {
    auto spec = nn::make_model(config_.arch, rng_);
    if (config_.last_conv_weight_decay > 0.0) {
      spec.net.layer(spec.last_conv_index).weight_decay = config_.last_conv_weight_decay;
    }
    Client client(c, std::move(spec), std::move(locals[static_cast<std::size_t>(c)]),
                  config_.train, rng_.next_u64());
    if (c < config_.n_attackers) {
      AttackSpec spec_c = config_.attack;
      if (!local_patterns.empty()) {
        spec_c.pattern = local_patterns[static_cast<std::size_t>(c)];
      }
      client.make_malicious(std::move(spec_c));
    }
    clients_.push_back(std::move(client));
  }
}

Simulation::~Simulation() {
  // Only un-install our own pool; a newer Simulation may have replaced it.
  if (common::ambient_pool() == pool_.get()) common::set_ambient_pool(nullptr);
}

comm::FaultyNetwork* Simulation::faulty_network() {
  return dynamic_cast<comm::FaultyNetwork*>(net_.get());
}

std::size_t Simulation::resident_clients() const {
  return virtual_mode_ ? resident_.size() : clients_.size();
}

Client& Simulation::resident_client(int id) {
  if (!virtual_mode_) return clients_[static_cast<std::size_t>(id)];
  auto it = resident_.find(id);
  FC_REQUIRE(it != resident_.end(), "client is not resident");
  return *slab_[it->second];
}

Client& Simulation::client(int id) {
  FC_REQUIRE(id >= 0 && id < config_.n_clients, "client id out of range");
  if (virtual_mode_ && resident_.find(id) == resident_.end()) {
    ensure_resident({id});
  }
  return resident_client(id);
}

std::size_t Simulation::resident_capacity(std::size_t needed) const {
  std::size_t cap = static_cast<std::size_t>(config_.max_resident_clients);
  if (config_.max_resident_clients <= 0) {
    // Room for two cohorts (the protocol may touch last round's stragglers
    // while this round's cohort trains) and the defense committee.
    const std::size_t cohort =
        config_.clients_per_round > 0
            ? 2 * static_cast<std::size_t>(config_.clients_per_round)
            : 0;
    const std::size_t committee =
        static_cast<std::size_t>(std::min(config_.defense_clients, config_.n_clients));
    cap = std::max({std::size_t{2}, cohort, committee});
  }
  return std::max(cap, needed);
}

void Simulation::evict(int id) {
  auto it = resident_.find(id);
  Client& client = *slab_[it->second];
  ClientPersist persist;
  persist.rng = client.rng_state();
  persist.lr = client.lr();
  persist.prune_masks = client.model().net.prune_masks();
  persist.anticipated_masks = client.anticipated_masks();
  ledger_.insert_or_assign(id, std::move(persist));
  slab_[it->second].reset();
  free_slots_.push_back(it->second);
  resident_.erase(it);
}

void Simulation::materialize(int id) {
  Client client = factory_->make_client(id);
  auto it = ledger_.find(id);
  if (it != ledger_.end()) {
    ClientPersist& persist = it->second;
    client.restore_rng(persist.rng);
    client.set_lr(persist.lr);
    if (!persist.prune_masks.empty()) {
      client.model().net.set_prune_masks(persist.prune_masks);
    }
    if (!persist.anticipated_masks.empty()) {
      client.set_anticipated_masks(std::move(persist.anticipated_masks));
    }
    ledger_.erase(it);
  }
  std::size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot].emplace(std::move(client));
  } else {
    slot = slab_.size();
    slab_.emplace_back(std::move(client));
  }
  resident_.insert_or_assign(id, slot);
}

void Simulation::ensure_resident(const std::vector<int>& ids) {
  for (int id : ids) {
    FC_REQUIRE(id >= 0 && id < config_.n_clients, "client id out of range");
  }
  if (!virtual_mode_) return;
  const std::set<int> wanted(ids.begin(), ids.end());
  std::vector<int> missing;
  for (int id : wanted) {
    if (resident_.find(id) == resident_.end()) missing.push_back(id);
  }
  if (missing.empty()) return;
  // Capacity-based eviction only (never evict just because an id is absent
  // from this call): sequential per-client phases like the fine-tune lr scan
  // would otherwise thrash the slab one client at a time.
  const std::size_t capacity = resident_capacity(wanted.size());
  if (resident_.size() + missing.size() > capacity) {
    std::vector<int> evictable;
    for (const auto& [id, slot] : resident_) {
      (void)slot;
      if (wanted.find(id) == wanted.end()) evictable.push_back(id);
    }
    std::size_t excess = resident_.size() + missing.size() - capacity;
    for (std::size_t i = 0; i < evictable.size() && excess > 0; ++i, --excess) {
      evict(evictable[i]);
    }
  }
  for (int id : missing) materialize(id);
}

void Simulation::dispatch_clients(const std::vector<int>& ids) {
  // Remote deployment: the cohort trains in other processes, driven by the
  // frames the request phase already put on the wire. The local replicas are
  // RNG stand-ins and must never consume (or answer) protocol traffic.
  if (remote_net_ != nullptr) return;
  // Open a new delivery phase first: messages delayed during an earlier phase
  // surface now (stale, overtaken by newer traffic), while messages delayed
  // from here on are held until the *next* dispatch — so a delayed reply
  // always misses at least one collect deadline. Called only from the
  // coordinating thread, never inside pool tasks.
  net_->flush_delayed();
  // Materialize the cohort before fanning out: pool tasks read the resident
  // map concurrently but never mutate it.
  ensure_resident(ids);
  pool_->parallel_for(ids.size(), [&](std::size_t i) {
    obs::Span span("client.dispatch", "fl");
    span.set_arg("client", ids[i]);
    resident_client(ids[i]).handle_pending(*net_);
  });
}

std::vector<int> Simulation::all_client_ids() const {
  std::vector<int> ids(static_cast<std::size_t>(config_.n_clients));
  for (int i = 0; i < config_.n_clients; ++i) ids[static_cast<std::size_t>(i)] = i;
  return ids;
}

std::vector<int> Simulation::attacker_ids() const {
  std::vector<int> ids;
  for (int i = 0; i < config_.n_attackers; ++i) ids.push_back(i);
  return ids;
}

std::vector<int> Simulation::protocol_client_ids() const {
  if (!virtual_mode_) return all_client_ids();
  // Deterministic strided committee over the population: id_k = ⌊k·n/m⌋,
  // strictly increasing, covers the id range evenly, consumes no RNG (so
  // defense phases stay resume-neutral).
  const std::int64_t n = config_.n_clients;
  const std::int64_t m = std::min<std::int64_t>(config_.defense_clients, n);
  std::vector<int> ids(static_cast<std::size_t>(m));
  for (std::int64_t k = 0; k < m; ++k) {
    ids[static_cast<std::size_t>(k)] = static_cast<int>((k * n) / m);
  }
  return ids;
}

std::vector<int> Simulation::run_round(std::uint32_t round) {
  std::vector<int> participants;
  if (config_.clients_per_round <= 0 || config_.clients_per_round >= config_.n_clients) {
    participants = all_client_ids();
  } else if (virtual_mode_) {
    // Floyd's algorithm: a uniform k-subset in O(k) draws — never touches a
    // population-sized pool. Sorted ascending so pool sharding works over
    // contiguous client-id blocks and the streaming fold order is the fixed
    // client-id order.
    std::set<int> picked;
    const int n = config_.n_clients;
    const int k = config_.clients_per_round;
    for (int j = n - k; j < n; ++j) {
      const int t = static_cast<int>(rng_.index(static_cast<std::size_t>(j) + 1));
      if (!picked.insert(t).second) picked.insert(j);
    }
    participants.assign(picked.begin(), picked.end());
  } else {
    auto sampled = rng_.sample_without_replacement(
        static_cast<std::size_t>(config_.n_clients),
        static_cast<std::size_t>(config_.clients_per_round));
    participants.assign(sampled.begin(), sampled.end());
  }
  return run_round(round, participants);
}

std::vector<int> Simulation::run_round(std::uint32_t round,
                                       const std::vector<int>& participants) {
  obs::Span span("fl.round", "fl");
  span.set_arg("round", round);

  auto request = [&](const std::vector<int>& ids) {
    server_->broadcast_model(ids, round);
  };
  auto collect = [&](const std::vector<int>& ids, CollectStats* cs) {
    return server_->collect_updates(ids, round, cs);
  };
  StreamingAggregator agg = server_->round_aggregator(participants.size());
  auto ex = exchange_streaming<std::vector<float>>(
      *this, participants, request, collect,
      [&agg](std::size_t position, std::vector<float>&& update) {
        agg.accept(position, std::move(update));
      },
      "training round");
  last_round_stats_ = ex.stats;
  if (ex.stats.quorum_met) {
    server_->apply_round(agg, ex.clients);
  } else {
    // Degraded round: too few valid updates to trust an aggregate. Keep the
    // current global model and move on — training rounds are skippable.
    FC_LOG(Warn) << "round " << round << ": aggregation skipped ("
                 << ex.stats.n_valid << "/" << participants.size()
                 << " valid updates)";
  }
  return participants;
}

void Simulation::run(bool record_history) {
  common::Timer timer;
  for (int r = next_round_; r < config_.rounds; ++r) {
    FC_METRIC(current_round().set(static_cast<double>(r)));
    const std::size_t uplink_before = network().uplink_bytes();
    run_round(static_cast<std::uint32_t>(r));
    const std::uint64_t round_wire_bytes =
        static_cast<std::uint64_t>(network().uplink_bytes() - uplink_before);
    next_round_ = r + 1;
    if (record_history) {
      RoundRecord rec;
      rec.round = r;
      rec.test_acc = test_accuracy();
      rec.attack_acc = attack_success();
      rec.n_participants = last_round_stats_.n_participants;
      rec.n_valid = last_round_stats_.n_valid;
      rec.n_dropped = last_round_stats_.n_dropped;
      rec.n_corrupted = last_round_stats_.n_corrupted;
      rec.n_retried = last_round_stats_.n_retried;
      rec.quorum_met = last_round_stats_.quorum_met;
      rec.wire_bytes = round_wire_bytes;
      history_.push_back(rec);
      const std::uint64_t peak_rss = static_cast<std::uint64_t>(common::peak_rss_bytes());
      FC_METRIC(peak_rss_bytes().set(static_cast<double>(peak_rss)));
      if (obs::Journal* journal = obs::ambient_journal()) {
        obs::JsonObject entry;
        entry.add("kind", "train_round")
            .add("round", rec.round)
            .add("ta", rec.test_acc)
            .add("asr", rec.attack_acc)
            .add("n_participants", rec.n_participants)
            .add("n_valid", rec.n_valid)
            .add("n_dropped", rec.n_dropped)
            .add("n_corrupted", rec.n_corrupted)
            .add("n_retried", rec.n_retried)
            .add("quorum_met", rec.quorum_met)
            .add("wire_bytes", rec.wire_bytes)
            .add("update_codec", comm::update_codec_name(config_.train.update_codec))
            .add("peak_rss", peak_rss);
        journal->write(entry);
      }
      FC_LOG(Debug) << "round " << r << " TA=" << rec.test_acc << " AA=" << rec.attack_acc
                    << " valid=" << rec.n_valid << "/" << rec.n_participants;
    }
    // Snapshot after the journal line so a resumed journal never misses a
    // round the snapshot already contains. Remote mode writes server-scope
    // snapshots (the clients persist their own state in their processes);
    // in-process runs keep the full-run format.
    if (checkpoint_ != nullptr && checkpoint_->enabled() &&
        checkpoint_->due(next_round_, config_.rounds)) {
      checkpoint_->save(remote_net_ != nullptr
                            ? make_server_snapshot(*this, next_round_, run_epoch_)
                            : make_run_snapshot(*this, run_stage::kTrain, next_round_));
    }
  }
  training_seconds_ += timer.elapsed_seconds();
}

void write_round_record(common::ByteWriter& w, const RoundRecord& rec) {
  w.write_i32(rec.round);
  w.write_f64(rec.test_acc);
  w.write_f64(rec.attack_acc);
  w.write_i32(rec.n_participants);
  w.write_i32(rec.n_valid);
  w.write_i32(rec.n_dropped);
  w.write_i32(rec.n_corrupted);
  w.write_i32(rec.n_retried);
  w.write_bool(rec.quorum_met);
  w.write_u64(rec.wire_bytes);
}

RoundRecord read_round_record(common::ByteReader& r) {
  RoundRecord rec;
  rec.round = r.read_i32();
  rec.test_acc = r.read_f64();
  rec.attack_acc = r.read_f64();
  rec.n_participants = r.read_i32();
  rec.n_valid = r.read_i32();
  rec.n_dropped = r.read_i32();
  rec.n_corrupted = r.read_i32();
  rec.n_retried = r.read_i32();
  rec.quorum_met = r.read_bool();
  rec.wire_bytes = r.read_u64();
  return rec;
}

void write_exchange_stats(common::ByteWriter& w, const ExchangeStats& stats) {
  w.write_i32(stats.n_participants);
  w.write_i32(stats.n_valid);
  w.write_i32(stats.n_dropped);
  w.write_i32(stats.n_corrupted);
  w.write_i32(stats.n_retried);
  w.write_bool(stats.quorum_met);
}

ExchangeStats read_exchange_stats(common::ByteReader& r) {
  ExchangeStats stats;
  stats.n_participants = r.read_i32();
  stats.n_valid = r.read_i32();
  stats.n_dropped = r.read_i32();
  stats.n_corrupted = r.read_i32();
  stats.n_retried = r.read_i32();
  stats.quorum_met = r.read_bool();
  return stats;
}

void Simulation::save_server_state(common::ByteWriter& w) const {
  w.write_i32(next_round_);
  w.write_f64(training_seconds_);
  common::write_rng_state(w, rng_.state());
  write_exchange_stats(w, last_round_stats_);
  w.write_u32(static_cast<std::uint32_t>(history_.size()));
  for (const auto& rec : history_) write_round_record(w, rec);
  server_->save_state(w);
}

void Simulation::restore_server_state(common::ByteReader& r) {
  next_round_ = r.read_i32();
  training_seconds_ = r.read_f64();
  rng_.restore(common::read_rng_state(r));
  last_round_stats_ = read_exchange_stats(r);
  const std::uint32_t n_history = r.read_u32();
  history_.clear();
  history_.reserve(n_history);
  for (std::uint32_t i = 0; i < n_history; ++i) history_.push_back(read_round_record(r));
  server_->restore_state(r);
}

void Simulation::save_state(common::ByteWriter& w) const {
  FC_REQUIRE(remote_net_ == nullptr,
             "run snapshots cover the in-process wire only, not a live transport");
  save_server_state(w);
  w.write_u8(virtual_mode_ ? 1 : 0);
  if (!virtual_mode_) {
    w.write_u32(static_cast<std::uint32_t>(clients_.size()));
    for (const auto& client : clients_) client.save_state(w);
  } else {
    // Resident cohort in full; everyone else is a pure function of the
    // factory roots plus (at most) a small ledger record.
    w.write_u32(static_cast<std::uint32_t>(resident_.size()));
    for (const auto& [id, slot] : resident_) {
      w.write_i32(id);
      slab_[slot]->save_state(w);
    }
    w.write_u32(static_cast<std::uint32_t>(ledger_.size()));
    for (const auto& [id, persist] : ledger_) {
      w.write_i32(id);
      common::write_rng_state(w, persist.rng);
      w.write_f64(persist.lr);
      w.write_u32(static_cast<std::uint32_t>(persist.prune_masks.size()));
      for (const auto& mask : persist.prune_masks) w.write_u8_vector(mask);
      w.write_u32(static_cast<std::uint32_t>(persist.anticipated_masks.size()));
      for (const auto& mask : persist.anticipated_masks) w.write_u8_vector(mask);
    }
  }
  const bool faulty = dynamic_cast<const comm::FaultyNetwork*>(net_.get()) != nullptr;
  w.write_bool(faulty);
  net_->save_state(w);
}

void Simulation::restore_state(common::ByteReader& r) {
  FC_REQUIRE(remote_net_ == nullptr,
             "run snapshots cover the in-process wire only, not a live transport");
  restore_server_state(r);
  const bool snapshot_virtual = r.read_u8() != 0;
  if (snapshot_virtual != virtual_mode_) {
    throw CheckpointError("snapshot and configuration disagree on client residency");
  }
  if (!virtual_mode_) {
    const std::uint32_t n_clients = r.read_u32();
    if (n_clients != clients_.size()) {
      throw CheckpointError("run snapshot has " + std::to_string(n_clients) +
                            " clients, expected " + std::to_string(clients_.size()));
    }
    for (auto& client : clients_) client.restore_state(r);
  } else {
    slab_.clear();
    free_slots_.clear();
    resident_.clear();
    ledger_.clear();
    const std::uint32_t n_resident = r.read_u32();
    for (std::uint32_t i = 0; i < n_resident; ++i) {
      const int id = r.read_i32();
      if (id < 0 || id >= config_.n_clients) {
        throw CheckpointError("run snapshot names client " + std::to_string(id) +
                              " outside the population");
      }
      materialize(id);
      resident_client(id).restore_state(r);
    }
    const std::uint32_t n_ledger = r.read_u32();
    for (std::uint32_t i = 0; i < n_ledger; ++i) {
      const int id = r.read_i32();
      if (id < 0 || id >= config_.n_clients) {
        throw CheckpointError("run snapshot ledger names client " + std::to_string(id) +
                              " outside the population");
      }
      ClientPersist persist;
      persist.rng = common::read_rng_state(r);
      persist.lr = r.read_f64();
      const std::uint32_t n_prune = r.read_u32();
      persist.prune_masks.reserve(n_prune);
      for (std::uint32_t m = 0; m < n_prune; ++m) {
        persist.prune_masks.push_back(r.read_u8_vector());
      }
      const std::uint32_t n_anticipated = r.read_u32();
      persist.anticipated_masks.reserve(n_anticipated);
      for (std::uint32_t m = 0; m < n_anticipated; ++m) {
        persist.anticipated_masks.push_back(r.read_u8_vector());
      }
      ledger_.insert_or_assign(id, std::move(persist));
    }
  }
  const bool faulty = r.read_bool();
  if (faulty != (dynamic_cast<comm::FaultyNetwork*>(net_.get()) != nullptr)) {
    throw CheckpointError("snapshot and configuration disagree on fault injection");
  }
  net_->restore_state(r);
}

double Simulation::test_accuracy() {
  return evaluate_accuracy(server_->model().net, test_);
}

double Simulation::attack_success() {
  if (backdoor_test_.empty()) return 0.0;
  return attack_success_rate(server_->model().net, backdoor_test_);
}

}  // namespace fedcleanse::fl
