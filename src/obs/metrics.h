// Well-known metric handles + the FC_METRIC call-site macro.
//
// Instrumented code writes
//
//   FC_METRIC(gemm_calls().inc());
//   FC_METRIC(gemm_flops().add(2ull * m * n * k));
//
// Each accessor resolves its registry entry once (function-local static) and
// returns a stable reference, so steady-state cost is the metric's own
// relaxed-atomic path. Building with -DFEDCLEANSE_NO_TELEMETRY (CMake
// -DFEDCLEANSE_TELEMETRY=OFF) compiles every FC_METRIC call site away
// entirely; the obs library itself still builds so tooling links either way.
#pragma once

#include "obs/registry.h"

#if defined(FEDCLEANSE_NO_TELEMETRY)
#define FC_METRIC(expr) \
  do {                  \
  } while (0)
#else
#define FC_METRIC(expr)                     \
  do {                                      \
    ::fedcleanse::obs::metrics::expr;       \
  } while (0)
#endif

namespace fedcleanse::obs::metrics {

// --- tensor kernels ----------------------------------------------------------
Counter& gemm_calls();
Counter& gemm_flops();  // 2·m·n·k per call, post-mask
Counter& workspace_chunk_allocs();
Counter& workspace_chunk_bytes();

// --- thread pool -------------------------------------------------------------
Counter& pool_tasks();               // tasks submitted
Counter& pool_parallel_for_calls();  // dispatched across workers
Counter& pool_inline_for_calls();    // degenerate/nested calls run inline
Counter& pool_idle_ns();             // worker time spent parked on the queue

// --- wire --------------------------------------------------------------------
Counter& channel_msgs();
Counter& channel_bytes();
Histogram& message_bytes();  // wire-size distribution
Counter& fault_dropped();
Counter& fault_corrupted();
Counter& fault_duplicated();
Counter& fault_delayed();
Counter& fault_crashed();

// --- round protocol ----------------------------------------------------------
Counter& exchange_rounds();     // exchange_streaming invocations
Counter& exchange_retries();    // request retransmissions issued
Counter& exchange_drops();      // clients with no valid report after retries
Counter& exchange_corrupted();  // malformed/stale replies skipped

// --- socket transport --------------------------------------------------------
Counter& transport_frames_sent();
Counter& transport_frames_recv();
Counter& transport_bytes_sent();
Counter& transport_bytes_recv();
Counter& transport_heartbeats();    // beacons observed (server + scheduler)
Counter& transport_reconnects();    // successful reregistrations
Counter& transport_dead_clients();  // peers declared dead (EOF or heartbeat)

// --- failover (DESIGN.md §18) ------------------------------------------------
Counter& server_resumes();  // server-scope snapshot restores
Counter& round_syncs();     // kRoundSync handshakes completed (both roles)

// --- process -----------------------------------------------------------------
Gauge& peak_rss_bytes();  // VmHWM high-water mark (common::peak_rss_bytes)
Gauge& current_round();   // last FL round this process started or handled

}  // namespace fedcleanse::obs::metrics
