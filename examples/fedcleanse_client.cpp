// Deployment client: one federated participant as its own process
// (DESIGN.md §15).
//
// The process builds the *same* Simulation the server builds (identical
// flags → identical RNG draws → identical local dataset, client record and
// training stream for every id), discovers the server through the scheduler,
// and then answers whatever protocol messages arrive on the wire by routing
// them through the ordinary Client::handle_one on the Simulation's scratch
// replica — the same code path the in-process simulation exercises. It
// exits when the server broadcasts kShutdown.
//
// Robustness: the transport's io thread owns the link. If the connection
// drops (server restart, transient network failure) it reconnects and
// reregisters with capped exponential backoff while this loop keeps waiting;
// a reply that raced the outage is lost and the server's retry layer
// re-drives the request. Killing this process mid-round (SIGKILL) is the
// chaos test's bread and butter: the server detects the EOF, declares the
// client dead, and finishes the round under its quorum gate.
//
// Usage: fedcleanse_client --id N --scheduler-port P
//                          [--wait-timeout-ms N]
//                          [shared deployment flags — see --help]
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "comm/scheduler.h"
#include "comm/socket_network.h"
#include "common/serialize.h"
#include "common/sysinfo.h"
#include "deploy_common.h"
#include "obs/metrics.h"

using namespace fedcleanse;

int main(int argc, char** argv) {
  common::init_log_level_from_env();
  obs::init_from_env();
  deploy::Options opt;
  int id = -1;
  int wait_timeout_ms = 120000;
  cli::Table rows = {
      cli::integer("--id", "N", "this client's id, in [0, clients)", id),
      cli::integer("--wait-timeout-ms", "N", "wait this long for the server", wait_timeout_ms),
  };
  for (cli::Flag& f : deploy::flags(opt)) rows.push_back(std::move(f));
  cli::parse(argc, argv, rows);
  if (id < 0 || id >= opt.clients) {
    std::fprintf(stderr, "--id must be in [0, %d)\n", opt.clients);
    return 2;
  }
  if (opt.scheduler_port <= 0) {
    std::fprintf(stderr, "--scheduler-port is required\n");
    return 2;
  }
  run::Session session = deploy::open_session("client-" + std::to_string(id), argc, argv, opt);

  const auto cfg = deploy::make_simulation_config(opt);
  int rc = 0;
  try {
    // Register first (the server's barrier counts registrations), then build
    // the client population while the server builds its own.
    comm::SocketClientNetwork net(cfg.n_clients, id, deploy::make_transport(opt),
                                  opt.scheduler_host,
                                  static_cast<std::uint16_t>(opt.scheduler_port));
    auto exporter = deploy::make_exporter(opt);
    if (exporter && exporter->ok()) {
      exporter->set_status_provider([&net, id] {
        obs::JsonObject s;
        s.add("role", "client")
            .add("id", id)
            .add("round", obs::metrics::current_round().value())
            .add("connected", net.connected())
            .add("wire_bytes", obs::metrics::transport_bytes_sent().value())
            .add("peak_rss", static_cast<std::uint64_t>(common::peak_rss_bytes()));
        return s.str();
      });
    }
    fl::Simulation sim(cfg);
    if (!net.wait_connected(wait_timeout_ms)) {
      std::fprintf(stderr, "client %d: no server registration within %d ms\n", id,
                   wait_timeout_ms);
      return 1;
    }
    // With telemetry on, open a persistent scheduler link that beacons this
    // client's progress snapshots — the rows in the scheduler's fleet table.
    // Telemetry off keeps the pre-§17 topology: clients touch the scheduler
    // only during discovery.
    std::unique_ptr<comm::SchedulerSession> fleet_link;
    if (obs::metrics_enabled()) {
      comm::RegisterInfo beacon_info;
      beacon_info.role = comm::NodeRole::kClient;
      beacon_info.node_id = id;
      try {
        fleet_link = std::make_unique<comm::SchedulerSession>(
            opt.scheduler_host, static_cast<std::uint16_t>(opt.scheduler_port),
            beacon_info, deploy::make_transport(opt));
      } catch (const comm::TransportError& e) {
        FC_LOG(Warn) << "client " << id << ": fleet beacon link failed — " << e.what();
      }
    }
    fl::Client& self = sim.client(id);

    // Failover state (DESIGN.md §18). `ring` maps a committed-round index R
    // to this client's state *before* training round R, so a resumed server's
    // kRoundSync can roll us back to exactly the round it replays from. The
    // manager persists the same states across our own crashes, keyed by
    // (run_seed, id) so a snapshot can never resume as a different client.
    std::uint32_t epoch = 0;
    int position = 0;  // training rounds this client has locally completed
    std::map<int, std::vector<std::uint8_t>> ring;
    std::unique_ptr<fl::CheckpointManager> manager;
    if (!opt.run.checkpoint_dir.empty()) {
      manager = std::make_unique<fl::CheckpointManager>(
          opt.run.checkpoint_dir + "/client-" + std::to_string(id), opt.run.checkpoint_every);
      if (opt.run.resume) {
        if (std::optional<fl::RunSnapshot> snap = manager->load_latest()) {
          fl::restore_client_snapshot(self, *snap, cfg.seed, id);
          epoch = snap->epoch;
          position = snap->next_round;
          net.set_epoch(epoch);
          std::printf("client %d: resumed at epoch %u (next round %d)\n", id,
                      static_cast<unsigned>(epoch), snap->next_round);
          if (obs::Journal* j = obs::ambient_journal()) {
            obs::JsonObject entry;
            entry.add("kind", "client_resume")
                .add("client", id)
                .add("round", snap->next_round)
                .add("epoch", static_cast<std::int64_t>(epoch));
            j->write(entry);
          }
        } else {
          std::printf("client %d: no snapshot to resume; starting fresh\n", id);
        }
      }
    }
    {
      // Seed the ring with the current position (round 0 fresh, or the
      // restored round after --resume) so a kRoundSync that arrives before
      // any broadcast still finds its target.
      common::ByteWriter w;
      self.save_state(w);
      ring[position] = w.take();
    }

    std::printf("client %d: registered%s\n", id, self.malicious() ? " (malicious)" : "");
    std::fflush(stdout);

    while (!net.shutdown_received()) {
      if (!net.client_wait_for_message(id, std::chrono::milliseconds(200))) continue;
      while (std::optional<comm::Message> msg = net.client_try_recv(id)) {
        if (msg->type == comm::MessageType::kRoundSync) {
          // A restarted server is re-synchronizing the fleet: roll back to
          // its committed round and adopt its epoch so pre-crash traffic is
          // rejected from here on.
          try {
            const comm::RoundSync sync = comm::decode_round_sync(msg->payload);
            if (sync.epoch < epoch) {
              throw comm::EpochError("round_sync: stale epoch " +
                                     std::to_string(sync.epoch) + " < " +
                                     std::to_string(epoch));
            }
            const auto it = ring.find(sync.next_round);
            if (it == ring.end()) {
              std::fprintf(stderr,
                           "client %d: no round-%d state to sync to (have %zu entries)\n",
                           id, sync.next_round, ring.size());
              rc = 1;
              goto done;
            }
            common::ByteReader r(it->second);
            self.restore_state(r);
            epoch = sync.epoch;
            net.set_epoch(epoch);
            // Rounds past the sync point were never committed server-side;
            // the replay will regenerate them.
            ring.erase(ring.upper_bound(sync.next_round), ring.end());
            comm::Message ack;
            ack.type = comm::MessageType::kRoundSyncAck;
            ack.round = msg->round;
            ack.sender = id;
            ack.correlation = msg->correlation;
            ack.payload = comm::encode_round_sync(sync);
            ack.stamp();
            net.send_to_server(id, std::move(ack));
            FC_METRIC(round_syncs().inc());
            if (obs::Journal* j = obs::ambient_journal()) {
              obs::JsonObject entry;
              entry.add("kind", "round_sync")
                  .add("node", "client")
                  .add("client", id)
                  .add("round", sync.next_round)
                  .add("epoch", static_cast<std::int64_t>(epoch));
              j->write(entry);
            }
            std::printf("client %d: synced to round %d at epoch %u\n", id,
                        sync.next_round, static_cast<unsigned>(epoch));
            std::fflush(stdout);
          } catch (const comm::TransportError& e) {
            FC_LOG(Warn) << "client " << id << ": round-sync ack lost: " << e.what();
          } catch (const Error& e) {
            FC_LOG(Warn) << "client " << id << ": dropping round sync — " << e.what();
          }
          continue;
        }
        // Ring entries are captured for *training* broadcasts only: fine-tune
        // rounds arrive tagged >= 1000 (defense/finetune.cpp) and must not
        // clobber the training-round states a kRoundSync targets.
        const bool training_broadcast =
            msg->type == comm::MessageType::kModelBroadcast &&
            msg->round < static_cast<std::uint32_t>(cfg.rounds);
        self.handle_one(net, *msg, sim.replica());
        if (training_broadcast) {
          const int next_round = static_cast<int>(msg->round) + 1;
          common::ByteWriter w;
          self.save_state(w);
          ring[next_round] = w.take();
          if (manager && manager->due(next_round, cfg.rounds)) {
            manager->save(
                fl::make_client_snapshot(self, cfg.seed, id, next_round, epoch));
          }
        }
      }
    }
  done:
    std::printf("client %d: %s, exiting\n", id,
                rc == 0 ? "shutdown received" : "round sync failed");
  } catch (const comm::TransportError& e) {
    std::fprintf(stderr, "client %d: transport failure: %s\n", id, e.what());
    rc = 1;
  }
  return rc;
}
