// Shared configuration for the multi-process deployment binaries
// (fedcleanse_scheduler / fedcleanse_server / fedcleanse_client).
//
// Byte-identity across processes hinges on every node building the *same*
// SimulationConfig: the server's Simulation and each client's replica must
// make identical RNG draws (data → server model → validation → per-client
// models/seeds). Both binaries therefore parse the same flags through
// parse_deploy_flag and derive their config through make_simulation_config —
// a flag passed to the server but not the clients is a silent divergence, so
// the launch scripts pass one flag set to every node.
//
// The demo task is quickstart's (synthetic digits, 3-label non-IID, pixel
// trigger 9→1 with model replacement) at a reduced scale that a single-core
// host finishes in seconds.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "cli_numbers.h"
#include "defense/pipeline.h"
#include "fl/simulation.h"
#include "obs/exporter.h"
#include "obs/journal.h"
#include "obs/trace.h"
#include "tensor/quant.h"

namespace deploy {

struct Options {
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
  std::string journal_path;
  // Observability plane (DESIGN.md §17). All default-off; none of them may
  // perturb model bytes or stdout when enabled.
  int metrics_port = -1;       // -1 = no /metricsz listener; 0 = ephemeral port
  std::string trace_path;      // Chrome trace written at process exit
  std::string metrics_port_file;  // scheduler writes its chosen port here
  fedcleanse::comm::TransportConfig transport;
  // Failover (DESIGN.md §18). The server keeps server-scope snapshots under
  // <checkpoint_dir>/server, each client under <checkpoint_dir>/client-<id>;
  // --resume restores the latest snapshot instead of starting fresh.
  std::string checkpoint_dir;
  int checkpoint_every = 1;
  bool resume = false;
  // Quantization knobs. Must match on every node: the server accepts both
  // update codecs on the wire, but the in-process reference replica only
  // stays byte-identical when the clients it mirrors use the same codec.
  fedcleanse::tensor::ComputeKernel scan_kernel =
      fedcleanse::tensor::ComputeKernel::kF32;
  fedcleanse::comm::UpdateCodec update_codec = fedcleanse::comm::UpdateCodec::kF32;
};

// Every tunable the transport and retry layers expose, as flags shared by
// server and client (ISSUE: nothing operational is a hardcoded cap).
inline const char* deploy_flag_help() {
  return "  --seed N --clients N --rounds N --ft-rounds N\n"
         "  --samples-train N --samples-test N\n"
         "  --scheduler-host H --scheduler-port P --journal-out PATH\n"
         "  --metrics-port P (0=ephemeral) --metrics-port-file PATH --trace-out PATH\n"
         "  --recv-timeout-ms N --max-backoff-shift N\n"
         "  --connect-timeout-ms N --accept-timeout-ms N --max-connect-retries N\n"
         "  --backoff-base-ms N --backoff-cap-ms N\n"
         "  --heartbeat-interval-ms N --heartbeat-timeout-ms N\n"
         "  --scan-quant f32|int8 --update-codec f32|int8\n"
         "  --checkpoint-dir PATH --checkpoint-every N --resume\n";
}

// Try to consume argv[i] (and its value) as a shared deployment flag.
// Advances i past the value on a match; returns false on an unknown flag.
inline bool parse_deploy_flag(int argc, char** argv, int& i, Options& opt) {
  const auto has_value = [&](const char* name) {
    return std::strcmp(argv[i], name) == 0 && i + 1 < argc;
  };
  // The flag's value as a whole decimal number; anything else exits 2.
  const auto int_value = [&] {
    const char* flag = argv[i];
    return cli::int_or_exit(flag, argv[++i]);
  };
  if (has_value("--seed")) {
    opt.seed = cli::u64_or_exit("--seed", argv[++i]);
  } else if (has_value("--clients")) {
    opt.clients = int_value();
  } else if (has_value("--rounds")) {
    opt.rounds = int_value();
  } else if (has_value("--ft-rounds")) {
    opt.ft_rounds = int_value();
  } else if (has_value("--samples-train")) {
    opt.samples_train = int_value();
  } else if (has_value("--samples-test")) {
    opt.samples_test = int_value();
  } else if (has_value("--scheduler-host")) {
    opt.scheduler_host = argv[++i];
  } else if (has_value("--scheduler-port")) {
    opt.scheduler_port = int_value();
  } else if (has_value("--journal-out")) {
    opt.journal_path = argv[++i];
  } else if (has_value("--metrics-port")) {
    opt.metrics_port = int_value();
  } else if (has_value("--metrics-port-file")) {
    opt.metrics_port_file = argv[++i];
  } else if (has_value("--trace-out")) {
    opt.trace_path = argv[++i];
  } else if (has_value("--recv-timeout-ms")) {
    opt.recv_timeout_ms = int_value();
  } else if (has_value("--max-backoff-shift")) {
    opt.max_backoff_shift = int_value();
  } else if (has_value("--connect-timeout-ms")) {
    opt.transport.connect_timeout_ms = int_value();
  } else if (has_value("--accept-timeout-ms")) {
    opt.transport.accept_timeout_ms = int_value();
  } else if (has_value("--max-connect-retries")) {
    opt.transport.max_connect_retries = int_value();
  } else if (has_value("--backoff-base-ms")) {
    opt.transport.backoff_base_ms = int_value();
  } else if (has_value("--backoff-cap-ms")) {
    opt.transport.backoff_cap_ms = int_value();
  } else if (has_value("--heartbeat-interval-ms")) {
    opt.transport.heartbeat_interval_ms = int_value();
  } else if (has_value("--heartbeat-timeout-ms")) {
    opt.transport.heartbeat_timeout_ms = int_value();
  } else if (has_value("--scan-quant")) {
    const auto kernel = fedcleanse::tensor::parse_compute_kernel(argv[++i]);
    if (!kernel) {
      std::fprintf(stderr, "unknown scan kernel %s (want f32|int8)\n", argv[i]);
      std::exit(2);
    }
    opt.scan_kernel = *kernel;
  } else if (has_value("--update-codec")) {
    const auto codec = fedcleanse::comm::parse_update_codec(argv[++i]);
    if (!codec) {
      std::fprintf(stderr, "unknown update codec %s (want f32|int8)\n", argv[i]);
      std::exit(2);
    }
    opt.update_codec = *codec;
  } else if (has_value("--checkpoint-dir")) {
    opt.checkpoint_dir = argv[++i];
  } else if (has_value("--checkpoint-every")) {
    opt.checkpoint_every = int_value();
  } else if (std::strcmp(argv[i], "--resume") == 0) {
    opt.resume = true;
  } else {
    return false;
  }
  return true;
}

// Transport config for the node's own sockets. The run seed doubles as the
// jitter seed so reconnect backoff is deterministic per (run, node) without
// touching the protocol RNG streams.
inline fedcleanse::comm::TransportConfig make_transport(const Options& opt) {
  fedcleanse::comm::TransportConfig transport = opt.transport;
  transport.jitter_seed = opt.seed;
  return transport;
}

// Observability bring-up shared by the three deployment binaries: run
// identity (the journal's {"kind":"open"} line), the trace file and its
// process-name track label, and the runtime metrics switch — any requested
// sink turns metrics on. Call before constructing the Journal.
inline void init_observability(const Options& opt, const std::string& role, int argc,
                               char** argv) {
  namespace obs = fedcleanse::obs;
  obs::set_run_identity(role, obs::hash_argv(argc, argv),
                        fedcleanse::tensor::int8_dispatch_name());
  obs::set_trace_process_name(role);
  if (!opt.trace_path.empty()) {
    obs::set_trace_path(opt.trace_path);
    // Flush after main returns so every exit path (early errors included)
    // still writes the trace file.
    std::atexit(+[] { fedcleanse::obs::flush_trace(); });
  }
  if (!opt.journal_path.empty() || !opt.trace_path.empty() || opt.metrics_port >= 0) {
    obs::set_metrics_enabled(true);
  }
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
  cfg.train.scan_kernel = opt.scan_kernel;
  cfg.train.update_codec = opt.update_codec;
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
