// Deployment scheduler node (DESIGN.md §15): the registration and heartbeat
// endpoint every other process finds first.
//
// The server registers its ephemeral data port here; clients poll until the
// registration ack carries the server's address, then connect to the server
// directly. The scheduler never sees model traffic — it is discovery plus
// observability (registrations, reconnects, and heartbeat-detected deaths
// land in its journal).
//
// Usage: fedcleanse_scheduler [--port P] [--port-file PATH] [--registry PATH]
//                             [--journal-out run.jsonl] [transport flags]
// (`fedcleanse_scheduler --help` lists them all)
//
// With --port 0 (the default) the OS picks the port; --port-file publishes
// whatever was bound (written atomically, so launch scripts can poll for the
// file and read a complete value). The process exits when the server sends
// kShutdown at the end of its run.
//
// --registry journals every accepted registration to a plain-text file; a
// restarted scheduler run with --registry PATH --resume rebuilds its
// distinct-client roster from it (DESIGN.md §18) while the live nodes'
// scheduler sessions reconnect and re-register on their own.
#include <cstdio>
#include <string>

#include "comm/scheduler.h"
#include "deploy_common.h"

using namespace fedcleanse;

namespace {

bool write_port_file(const std::string& path, std::uint16_t port) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%u\n", static_cast<unsigned>(port));
  std::fclose(f);
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  common::init_log_level_from_env();
  obs::init_from_env();
  deploy::Options opt;
  int port = 0;
  std::string port_file;
  std::string registry_path;
  cli::Table rows = {
      cli::integer("--port", "P", "listen port; 0 = the OS picks one", port),
      cli::text("--port-file", "PATH", "publish the bound port here", port_file),
      cli::text("--registry", "PATH", "journal registrations; --resume restores from it",
                registry_path),
  };
  for (cli::Flag& f : deploy::flags(opt)) rows.push_back(std::move(f));
  cli::parse(argc, argv, rows);
  if (opt.run.resume && registry_path.empty()) {
    std::fprintf(stderr, "--resume requires --registry\n");
    return 2;
  }
  run::Session session =
      deploy::open_session("scheduler", argc, argv, opt, /*checkpointed=*/false);

  try {
    comm::Scheduler scheduler(deploy::make_transport(opt), "127.0.0.1",
                              static_cast<std::uint16_t>(port));
    if (!registry_path.empty()) {
      if (opt.run.resume) {
        const int restored = scheduler.load_registry(registry_path);
        std::printf("scheduler: restored %d client(s) from %s\n", restored,
                    registry_path.c_str());
      }
      scheduler.enable_registry(registry_path);
    }
    auto exporter = deploy::make_exporter(opt);
    if (exporter && exporter->ok()) {
      // The fleet table: per-node round progress and heartbeat ages,
      // aggregated from the status snapshots nodes attach to their beacons.
      exporter->set_status_provider(
          [&scheduler] { return scheduler.fleet_status_json(); });
    }
    if (!port_file.empty() && !write_port_file(port_file, scheduler.port())) {
      std::fprintf(stderr, "cannot write port file %s\n", port_file.c_str());
      return 2;
    }
    std::printf("scheduler: listening on 127.0.0.1:%u\n",
                static_cast<unsigned>(scheduler.port()));
    std::fflush(stdout);
    scheduler.run_until_shutdown();
    std::printf("scheduler: run complete (server %s, %d distinct clients registered)\n",
                scheduler.server_known() ? "seen" : "never registered",
                scheduler.n_clients_seen());
  } catch (const comm::TransportError& e) {
    std::fprintf(stderr, "scheduler: transport failure: %s\n", e.what());
    return 1;
  }
  return 0;
}
