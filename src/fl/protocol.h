// Degraded-mode exchange driver: request → dispatch → collect, with capped
// retransmission and a quorum gate (FaultConfig::min_collect_fraction).
//
// One template serves every phase of the round protocol — training updates,
// RAP ranks, MVP votes, accuracy reports — and streams each valid reply to
// the caller's sink instead of buffering the cohort's replies. On a perfect
// wire it performs exactly one attempt with every client replying, so the
// fault-free path is byte-identical to the pre-fault-layer protocol.
#pragma once

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "comm/message.h"
#include "common/logging.h"
#include "fl/simulation.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fedcleanse::fl {

// Smallest number of valid reports that lets a collect phase proceed.
inline std::size_t quorum_count(std::size_t n_clients, double min_fraction) {
  const double need = std::ceil(min_fraction * static_cast<double>(n_clients));
  return std::max<std::size_t>(
      1, std::min(n_clients, static_cast<std::size_t>(std::max(0.0, need))));
}

// Round-sync handshake after a server resume (DESIGN.md §18): broadcast the
// resumed (epoch, committed-round) position, collect acks, journal the
// outcome. Runs BEFORE Simulation::run() replays — its traffic predates the
// first round's uplink-byte sample, so journaled wire_bytes stay identical
// to an uninterrupted run. Clients that died with the old server simply
// never ack (their channel short-circuits); they rejoin mid-replay via the
// normal reconnect path only if restarted. Returns the number of clients
// that acked the resumed position.
inline int synchronize_round(Simulation& sim, const std::vector<int>& clients) {
  const std::uint32_t epoch = sim.run_epoch();
  const std::int32_t next_round = sim.completed_rounds();
  sim.server().broadcast_round_sync(clients, epoch, next_round);
  CollectStats stats;
  sim.server().collect_round_sync_acks(clients, epoch, next_round, &stats);
  FC_METRIC(round_syncs().inc());
  if (obs::Journal* journal = obs::ambient_journal()) {
    obs::JsonObject entry;
    entry.add("kind", "round_sync")
        .add("node", "server")
        .add("round", next_round)
        .add("epoch", static_cast<std::int64_t>(epoch))
        .add("n_acked", stats.n_valid);
    journal->write(entry);
  }
  FC_LOG(Info) << "round sync: epoch=" << epoch << " round=" << next_round << " acked="
               << stats.n_valid << "/" << clients.size() << " (timed out "
               << stats.n_timed_out << ", malformed " << stats.n_malformed << ")";
  return stats.n_valid;
}

// ExchangeStats itself lives in fl/simulation.h (RoundRecord embeds its
// fields and Simulation caches the last round's copy).
// The exchange hands every reply to its sink, so the result carries only who
// reported and what the protocol observed.
struct Exchange {
  std::vector<int> clients;  // clients with a valid report, in position order
  ExchangeStats stats;
};

// The one exchange driver: every valid reply is handed to
// `sink(position, T&&)` the moment it clears the collect phase — nothing is
// buffered here. `position` is the reply's index into `clients`; a position
// is sunk at most once. Each consumer folds replies into its own aggregate:
// fl::StreamingAggregator for training updates, the defense's streaming
// rank/vote histograms, and the accuracy oracle's per-position slots.
//
// `request(ids)` re-sends the phase's request to the given clients;
// `collect(ids, &stats)` returns one std::optional<T> per id. The recv
// deadline doubles per retry attempt, capped at
// 2^ProtocolConfig::max_backoff_shift × (capped backoff), and is restored
// afterwards. Does NOT throw below quorum — the caller decides
// whether a thin round is skippable (training) or fatal (defense).
template <typename T, typename RequestFn, typename CollectFn, typename SinkFn>
Exchange exchange_streaming(Simulation& sim, const std::vector<int>& clients,
                            RequestFn request, CollectFn collect, SinkFn sink,
                            const char* what) {
  const comm::FaultConfig& fc = sim.config().fault;
  // One correlation id covers the whole exchange, retries included: a late
  // reply from an earlier attempt still belongs to this exchange, and stamping
  // per attempt would make it look foreign in the merged trace. Requests read
  // the ambient id via Server::send_all(); replies echo it back.
  const std::uint32_t correlation = comm::next_correlation_id();
  comm::ScopedCorrelation scoped_correlation(correlation);
  // `what` is a string literal at every call site, so it can name the span.
  obs::Span exchange_span(what, "protocol");
  exchange_span.set_arg("corr", correlation);
  FC_METRIC(exchange_rounds().inc());
  Exchange result;
  result.stats.n_participants = static_cast<int>(clients.size());

  std::vector<char> have(clients.size(), 0);
  std::vector<std::size_t> pending(clients.size());
  for (std::size_t i = 0; i < pending.size(); ++i) pending[i] = i;

  const int base_timeout = sim.server().recv_timeout_ms();
  const int attempts = 1 + std::max(0, fc.max_request_retries);
  for (int attempt = 0; attempt < attempts && !pending.empty(); ++attempt) {
    std::vector<int> ids;
    ids.reserve(pending.size());
    for (std::size_t i : pending) ids.push_back(clients[i]);
    if (attempt > 0) {
      result.stats.n_retried += static_cast<int>(ids.size());
      FC_METRIC(exchange_retries().add(ids.size()));
      sim.server().set_recv_timeout_ms(
          base_timeout << std::min(attempt, sim.config().protocol.max_backoff_shift));
      FC_LOG(Info) << what << ": retry " << attempt << " for " << ids.size()
                   << " client(s)";
    }
    request(ids);
    sim.dispatch_clients(ids);
    CollectStats cs;
    decltype(collect(ids, &cs)) replies;
    {
      // The collect phase is where the server sits in recv_for deadlines —
      // the wait the trace must show to explain a slow lossy round.
      obs::Span collect_span("collect", "protocol");
      collect_span.set_arg("attempt", attempt);
      replies = collect(ids, &cs);
    }
    result.stats.n_corrupted += cs.n_malformed;
    FC_METRIC(exchange_corrupted().add(static_cast<std::uint64_t>(cs.n_malformed)));

    std::vector<std::size_t> still_pending;
    for (std::size_t k = 0; k < pending.size(); ++k) {
      if (replies[k].has_value()) {
        have[pending[k]] = 1;
        sink(pending[k], std::move(*replies[k]));
      } else {
        still_pending.push_back(pending[k]);
      }
    }
    pending = std::move(still_pending);
  }
  sim.server().set_recv_timeout_ms(base_timeout);

  int n_valid = 0;
  for (std::size_t i = 0; i < have.size(); ++i) {
    if (have[i]) {
      result.clients.push_back(clients[i]);
      ++n_valid;
    }
  }
  result.stats.n_valid = n_valid;
  result.stats.n_dropped = static_cast<int>(pending.size());
  FC_METRIC(exchange_drops().add(pending.size()));
  result.stats.quorum_met = static_cast<std::size_t>(n_valid) >=
                            quorum_count(clients.size(), fc.min_collect_fraction);
  if (!result.stats.quorum_met) {
    FC_LOG(Warn) << what << ": quorum not met — " << result.stats.n_valid << "/"
                 << clients.size() << " valid reports (need "
                 << quorum_count(clients.size(), fc.min_collect_fraction) << ")";
  }
  return result;
}

}  // namespace fedcleanse::fl
