// Shared configuration for the multi-process deployment binaries
// (fedcleanse_scheduler / fedcleanse_server / fedcleanse_client).
//
// Byte-identity across processes hinges on every node building the *same*
// SimulationConfig: the server's Simulation and each client's must make
// identical RNG draws (data → server model → validation → per-client
// weights/seeds). Every node therefore parses the same flag rows (flags())
// and derives its config through make_simulation_config — a flag passed to
// the server but not the clients is a silent divergence, so the launch
// scripts pass one flag set to every node.
//
// The demo task is quickstart's (synthetic digits, 3-label non-IID, pixel
// trigger 9→1 with model replacement) at a reduced scale that a single-core
// host finishes in seconds.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "cli.h"
#include "defense/pipeline.h"
#include "fl/simulation.h"
#include "obs/exporter.h"
#include "obs/registry.h"
#include "run_setup.h"

namespace deploy {

struct Options {
  Options() { run.checkpoint_every = 1; }

  std::uint64_t seed = 42;
  int clients = 5;
  int rounds = 3;
  int ft_rounds = 3;
  int samples_train = 60;
  int samples_test = 20;
  // Server-side per-client collect deadline. Large on the socket wire: a
  // retransmit in the no-fault path would make the client retrain and
  // desynchronize its RNG stream from the in-process reference.
  int recv_timeout_ms = 60000;
  int max_backoff_shift = 3;
  std::string scheduler_host = "127.0.0.1";
  int scheduler_port = 0;
  // Observability plane (DESIGN.md §17). All default-off; none of them may
  // perturb model bytes or stdout when enabled.
  int metrics_port = -1;          // -1 = no /metricsz listener; 0 = ephemeral port
  std::string metrics_port_file;  // the node writes its chosen port here
  fedcleanse::comm::TransportConfig transport;
  // Journal, trace, quantization and failover flags (DESIGN.md §18). The
  // server keeps server-scope snapshots under <checkpoint_dir>/server, each
  // client under <checkpoint_dir>/client-<id>. The quantization knobs must
  // match on every node: the server accepts both update codecs on the wire,
  // but the in-process reference replica only stays byte-identical when the
  // clients it mirrors use the same codec.
  run::Options run;
};

// The rows every node takes: nothing operational is a hardcoded cap.
inline cli::Table flags(Options& opt) {
  auto& t = opt.transport;
  cli::Table rows = {
      cli::u64("--seed", "N", "run seed, the same on every node", opt.seed),
      cli::integer("--clients", "N", "number of clients", opt.clients),
      cli::integer("--rounds", "N", "training rounds", opt.rounds),
      cli::integer("--ft-rounds", "N", "fine-tuning rounds", opt.ft_rounds),
      cli::integer("--samples-train", "N", "training samples per class", opt.samples_train),
      cli::integer("--samples-test", "N", "test samples per class", opt.samples_test),
      cli::text("--scheduler-host", "H", "scheduler address", opt.scheduler_host),
      cli::integer("--scheduler-port", "P", "scheduler port", opt.scheduler_port),
      cli::integer("--metrics-port", "P", "/metricsz listener; -1 = none, 0 = ephemeral",
                   opt.metrics_port),
      cli::text("--metrics-port-file", "PATH", "write the metrics port here",
                opt.metrics_port_file),
      cli::integer("--recv-timeout-ms", "N", "server's per-client collect deadline",
                   opt.recv_timeout_ms),
      cli::integer("--max-backoff-shift", "N", "retry deadline grows as base << min(try, N)",
                   opt.max_backoff_shift),
      cli::integer("--connect-timeout-ms", "N", "deadline of one connect attempt",
                   t.connect_timeout_ms),
      cli::integer("--accept-timeout-ms", "N", "poll granularity of accept loops",
                   t.accept_timeout_ms),
      cli::integer("--max-connect-retries", "N", "connect attempts before giving up",
                   t.max_connect_retries),
      cli::integer("--backoff-base-ms", "N", "first reconnect delay", t.backoff_base_ms),
      cli::integer("--backoff-cap-ms", "N", "largest reconnect delay", t.backoff_cap_ms),
      cli::integer("--heartbeat-interval-ms", "N", "liveness beacon period",
                   t.heartbeat_interval_ms),
      cli::integer("--heartbeat-timeout-ms", "N", "silence before a peer is dead",
                   t.heartbeat_timeout_ms),
  };
  for (cli::Flag& f : run::flags(opt.run)) rows.push_back(std::move(f));
  return rows;
}

// run::Session for a deployment node; --metrics-port turns metrics on too.
inline run::Session open_session(const std::string& role, int argc, char** argv,
                                 const Options& opt, bool checkpointed = true) {
  if (opt.metrics_port >= 0) fedcleanse::obs::set_metrics_enabled(true);
  return run::Session(role, argc, argv, opt.run, checkpointed);
}

// Transport config for the node's own sockets. The run seed doubles as the
// jitter seed so reconnect backoff is deterministic per (run, node) without
// touching the protocol RNG streams.
inline fedcleanse::comm::TransportConfig make_transport(const Options& opt) {
  fedcleanse::comm::TransportConfig transport = opt.transport;
  transport.jitter_seed = opt.seed;
  return transport;
}

// /metricsz + /statusz listener when --metrics-port was given; nullptr
// otherwise. Writes the chosen port to --metrics-port-file so launch scripts
// can scrape an ephemeral port.
inline std::unique_ptr<fedcleanse::obs::MetricsExporter> make_exporter(const Options& opt) {
  if (opt.metrics_port < 0) return nullptr;
  auto exporter = std::make_unique<fedcleanse::obs::MetricsExporter>(
      static_cast<std::uint16_t>(opt.metrics_port));
  if (exporter->ok() && !opt.metrics_port_file.empty()) {
    if (std::FILE* f = std::fopen(opt.metrics_port_file.c_str(), "w")) {
      std::fprintf(f, "%u\n", static_cast<unsigned>(exporter->port()));
      std::fclose(f);
    }
  }
  return exporter;
}

inline fedcleanse::fl::SimulationConfig make_simulation_config(const Options& opt) {
  namespace fl = fedcleanse::fl;
  fl::SimulationConfig cfg;
  cfg.arch = fedcleanse::nn::Architecture::kMnistCnn;
  cfg.dataset = fedcleanse::data::SynthKind::kDigits;
  cfg.n_clients = opt.clients;
  cfg.n_attackers = 1;
  cfg.rounds = opt.rounds;
  cfg.labels_per_client = 3;
  cfg.samples_per_class_train = opt.samples_train;
  cfg.samples_per_class_test = opt.samples_test;
  cfg.attack.pattern = fedcleanse::data::make_pixel_pattern(5);
  cfg.attack.victim_label = 9;
  cfg.attack.attack_label = 1;
  cfg.attack.gamma = 5.0;
  cfg.attack.poison_copies = 2;
  cfg.seed = opt.seed;
  // recv_timeout is deadline-only: on a wire with no faults the deadline
  // never elapses, so the in-process reference run uses the same value and
  // stays byte-identical.
  cfg.fault.recv_timeout_ms = opt.recv_timeout_ms;
  cfg.protocol.max_backoff_shift = opt.max_backoff_shift;
  cfg.protocol.transport = make_transport(opt);
  cfg.train.scan_kernel = opt.run.scan_kernel;
  cfg.train.update_codec = opt.run.update_codec;
  return cfg;
}

inline fedcleanse::defense::DefenseConfig make_defense_config(const Options& opt) {
  fedcleanse::defense::DefenseConfig dcfg;
  dcfg.method = fedcleanse::defense::PruneMethod::kMVP;
  dcfg.vote_prune_rate = 0.5;
  dcfg.finetune.max_rounds = opt.ft_rounds;
  return dcfg;
}

}  // namespace deploy
