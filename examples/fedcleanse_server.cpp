// Deployment server: drives federated training and the defense pipeline over
// real TCP connections to client processes (DESIGN.md §15).
//
// Remote mode (default): register the data port with the scheduler, wait for
// the full population to register on the data plane, then run the identical
// round protocol the in-process simulation runs — the Simulation is
// constructed with the socket transport, so Server::collect_* and the defense
// stages run unchanged. The run ends by broadcasting kShutdown to the clients
// and notifying the scheduler.
//
// --local runs the in-process reference instead: the same flags, the same
// config, no sockets. A no-fault socket run and the --local run save
// byte-identical models (scripts/multiproc_identity.sh asserts this with
// cmp) — that equivalence is the transport's correctness contract.
//
// Usage: fedcleanse_server --scheduler-port P [--save model.fckp]
//                          [--local] [--no-defense] [--wait-timeout-ms N]
//                          [shared deployment flags — see --help]
//
// Degradation: if clients die mid-run (SIGKILL, network loss), training
// rounds proceed while the quorum gate holds and skip aggregation below it;
// the defense protocol instead refuses to cleanse from a sliver of reports
// and the run exits nonzero after still shutting the deployment down.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "comm/scheduler.h"
#include "comm/socket_network.h"
#include "common/sysinfo.h"
#include "deploy_common.h"
#include "fl/protocol.h"
#include "obs/metrics.h"

using namespace fedcleanse;

int main(int argc, char** argv) {
  common::init_log_level_from_env();
  obs::init_from_env();
  deploy::Options opt;
  bool local = false;
  bool with_defense = true;
  int wait_timeout_ms = 120000;
  cli::Table rows = {
      cli::toggle("--local", "run the in-process reference instead", [&] { local = true; }),
      cli::toggle("--no-defense", "stop after training", [&] { with_defense = false; }),
      run::save_flag(opt.run),
      cli::integer("--wait-timeout-ms", "N", "wait this long for every client to register",
                   wait_timeout_ms),
  };
  for (cli::Flag& f : deploy::flags(opt)) rows.push_back(std::move(f));
  cli::parse(argc, argv, rows);
  if (!local && opt.scheduler_port <= 0) {
    std::fprintf(stderr, "--scheduler-port is required (or pass --local)\n");
    return 2;
  }
  // A resumed run appends to its journal: the {"kind":"server_resume"} line
  // marks the restart boundary.
  run::Session session = deploy::open_session("server", argc, argv, opt);

  const auto cfg = deploy::make_simulation_config(opt);
  const auto dcfg = deploy::make_defense_config(opt);

  int rc = 0;
  try {
    if (local) {
      // In-process reference: the byte-identity baseline for the socket path.
      std::printf("server: local reference run (%d clients, %d rounds)\n",
                  cfg.n_clients, cfg.rounds);
      auto sim = run::valid_or_exit([&] { return std::make_unique<fl::Simulation>(cfg); });
      // Full-run checkpointing, exactly quickstart's flow: the whole
      // simulation (clients included) lives in this process.
      session.attach(*sim);
      sim->run();
      std::printf("  after training: TA=%.3f  AA=%.3f\n", sim->test_accuracy(),
                  sim->attack_success());
      if (with_defense) run::print_stage_table(session.defend(*sim, dcfg));
      session.save(sim->server().model(), "model");
      return 0;
    }

    comm::SocketServerNetwork net(cfg.n_clients, deploy::make_transport(opt));
    auto exporter = deploy::make_exporter(opt);
    if (exporter && exporter->ok()) {
      const std::size_t quorum_need =
          fl::quorum_count(static_cast<std::size_t>(cfg.n_clients),
                           cfg.fault.min_collect_fraction);
      exporter->set_status_provider([&net, &cfg, quorum_need] {
        obs::JsonObject s;
        s.add("role", "server")
            .add("round", obs::metrics::current_round().value())
            .add("cohort", cfg.n_clients)
            .add("n_alive", net.n_alive())
            .add("quorum_need", static_cast<std::uint64_t>(quorum_need))
            .add("quorum_met",
                 static_cast<std::size_t>(net.n_alive()) >= quorum_need)
            .add("wire_bytes", obs::metrics::transport_bytes_sent().value())
            .add("peak_rss", static_cast<std::uint64_t>(common::peak_rss_bytes()))
            .add_raw("clients", net.peers_status_json());
        return s.str();
      });
    }
    comm::RegisterInfo info;
    info.role = comm::NodeRole::kServer;
    info.port = net.port();
    comm::SchedulerSession scheduler(opt.scheduler_host,
                                     static_cast<std::uint16_t>(opt.scheduler_port), info,
                                     deploy::make_transport(opt));
    std::printf("server: data port %u registered, waiting for %d clients...\n",
                static_cast<unsigned>(net.port()), cfg.n_clients);
    std::fflush(stdout);
    if (!net.wait_for_clients(cfg.n_clients, wait_timeout_ms)) {
      std::fprintf(stderr, "server: only %d of %d clients registered within %d ms\n",
                   net.n_alive(), cfg.n_clients, wait_timeout_ms);
      net.broadcast_shutdown();
      scheduler.notify_shutdown();
      return 1;
    }
    std::printf("server: all %d clients registered, training %d rounds\n", cfg.n_clients,
                cfg.rounds);
    std::fflush(stdout);

    fl::Simulation sim(cfg, &net);
    // Server-scope failover (DESIGN.md §18): snapshot only this node's state
    // at round boundaries; on --resume, restore it at a bumped epoch and
    // roll the live clients to the committed round before replaying.
    std::unique_ptr<fl::CheckpointManager> manager;
    if (!opt.run.checkpoint_dir.empty()) {
      manager = std::make_unique<fl::CheckpointManager>(opt.run.checkpoint_dir + "/server",
                                                        opt.run.checkpoint_every);
      if (opt.run.resume) {
        if (std::optional<fl::RunSnapshot> snap = manager->load_latest()) {
          const std::uint32_t epoch = snap->epoch + 1;
          fl::resume_server_simulation(sim, *snap, epoch);
          net.set_epoch(epoch);
          const int acked = fl::synchronize_round(sim, sim.all_client_ids());
          std::printf("  resumed at epoch %u (next round %d, %d of %d clients synced)\n",
                      static_cast<unsigned>(epoch), snap->next_round, acked,
                      cfg.n_clients);
        } else {
          std::printf("  no snapshot in %s/server; starting fresh\n",
                      opt.run.checkpoint_dir.c_str());
        }
      }
      sim.set_checkpoint_manager(manager.get());
    }
    try {
      sim.run();
      std::printf("  after training: TA=%.3f  AA=%.3f  (%d clients alive)\n",
                  sim.test_accuracy(), sim.attack_success(), net.n_alive());
      // No checkpoint manager here: defense-stage snapshots are full-run
      // scope (they capture every client), which a remote server cannot
      // take — a crash during defense restarts from the last training
      // snapshot (DESIGN.md §18 recovery matrix).
      if (with_defense) run::print_stage_table(defense::run_defense(sim, dcfg));
      session.save(sim.server().model(), "model");
    } catch (const QuorumError& e) {
      // Too few live clients to trust a protocol decision: shut the
      // deployment down cleanly rather than hang or crash.
      std::fprintf(stderr, "server: below quorum, abandoning run: %s\n", e.what());
      rc = 1;
    }
    net.broadcast_shutdown();
    scheduler.notify_shutdown();
    std::printf("server: run %s (%d of %d clients alive at shutdown)\n",
                rc == 0 ? "complete" : "abandoned", net.n_alive(), cfg.n_clients);
  } catch (const comm::TransportError& e) {
    std::fprintf(stderr, "server: transport failure: %s\n", e.what());
    rc = 1;
  }
  return rc;
}
