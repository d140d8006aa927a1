#include "defense/pipeline.h"

#include <algorithm>
#include <optional>

#include "common/logging.h"
#include "common/sysinfo.h"
#include "defense/majority_vote.h"
#include "defense/rank_aggregation.h"
#include "fl/protocol.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fedcleanse::defense {

// Round tags for the defense protocol's messages, far above any training or
// fine-tuning round so a delayed training reply can never be mistaken for a
// defense report (and crashed clients stay crashed).
namespace round_tag {
constexpr std::uint32_t kRanks = 2000;
constexpr std::uint32_t kVotes = 2001;
constexpr std::uint32_t kAccuracyBase = 3000;  // +1 per oracle call
}  // namespace round_tag

const char* prune_method_name(PruneMethod method) {
  switch (method) {
    case PruneMethod::kRAP: return "rank-aggregation";
    case PruneMethod::kMVP: return "majority-vote";
  }
  return "?";
}

namespace {

StageMetrics snapshot(fl::Simulation& sim) {
  return StageMetrics{sim.test_accuracy(), sim.attack_success()};
}

// Accuracy oracle for the pruning loop: the server's validation set, or the
// mean of client-reported accuracies when the server has no data. Each call
// uses a fresh round tag so a delayed report from an earlier call (evaluated
// at older parameters) can never be accepted as current.
std::function<double()> make_accuracy_oracle(fl::Simulation& sim,
                                             const DefenseConfig& config) {
  if (!config.use_client_accuracy) {
    return [&sim] { return sim.server().validation_accuracy(); };
  }
  return [&sim, round = round_tag::kAccuracyBase]() mutable {
    const auto clients = sim.protocol_client_ids();
    std::vector<std::optional<double>> reported(clients.size());
    auto ex = fl::exchange_streaming<double>(
        sim, clients,
        [&](const std::vector<int>& ids) { sim.server().request_accuracies(ids, round); },
        [&](const std::vector<int>& ids, fl::CollectStats* cs) {
          return sim.server().collect_accuracies(ids, round, cs);
        },
        [&reported](std::size_t position, double&& acc) { reported[position] = acc; },
        "accuracy oracle");
    ++round;
    if (!ex.stats.quorum_met) {
      throw QuorumError("accuracy oracle: " + std::to_string(ex.stats.n_valid) + "/" +
                        std::to_string(clients.size()) + " clients reported");
    }
    // Summed in position order, whatever order the replies arrived in.
    double sum = 0.0;
    for (const auto& acc : reported) {
      if (acc.has_value()) sum += *acc;
    }
    return sum / static_cast<double>(ex.clients.size());
  };
}

}  // namespace

namespace {

void write_stage_metrics(common::ByteWriter& w, const StageMetrics& m) {
  w.write_f64(m.test_acc);
  w.write_f64(m.attack_acc);
}

StageMetrics read_stage_metrics(common::ByteReader& r) {
  StageMetrics m;
  m.test_acc = r.read_f64();
  m.attack_acc = r.read_f64();
  return m;
}

void write_prune_outcome(common::ByteWriter& w, const PruneOutcome& p) {
  w.write_i32(p.n_pruned);
  w.write_f64(p.final_accuracy);
  w.write_u32(static_cast<std::uint32_t>(p.trace.size()));
  for (const auto& step : p.trace) {
    w.write_i32(step.neuron);
    w.write_f64(step.accuracy);
    w.write_f64(step.attack_acc);
  }
  w.write_u8_vector(p.final_mask);
}

PruneOutcome read_prune_outcome(common::ByteReader& r) {
  PruneOutcome p;
  p.n_pruned = r.read_i32();
  p.final_accuracy = r.read_f64();
  const std::uint32_t n = r.read_u32();
  p.trace.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    PruneStep step;
    step.neuron = r.read_i32();
    step.accuracy = r.read_f64();
    step.attack_acc = r.read_f64();
    p.trace.push_back(step);
  }
  p.final_mask = r.read_u8_vector();
  return p;
}

}  // namespace

std::vector<std::uint8_t> encode_defense_progress(const DefenseProgress& progress) {
  common::ByteWriter w;
  write_stage_metrics(w, progress.training);
  write_stage_metrics(w, progress.after_fp);
  w.write_f64(progress.baseline);
  write_prune_outcome(w, progress.prune);
  fl::write_exchange_stats(w, progress.fp_exchange);
  w.write_f64(progress.pruning_seconds);
  write_finetune_state(w, progress.finetune);
  return w.take();
}

DefenseProgress decode_defense_progress(const std::vector<std::uint8_t>& bytes) {
  try {
    common::ByteReader r(bytes);
    DefenseProgress progress;
    progress.training = read_stage_metrics(r);
    progress.after_fp = read_stage_metrics(r);
    progress.baseline = r.read_f64();
    progress.prune = read_prune_outcome(r);
    progress.fp_exchange = fl::read_exchange_stats(r);
    progress.pruning_seconds = r.read_f64();
    progress.finetune = read_finetune_state(r);
    if (!r.exhausted()) throw CheckpointError("defense progress has trailing bytes");
    return progress;
  } catch (const CheckpointError&) {
    throw;
  } catch (const Error& e) {
    throw CheckpointError(std::string("defense progress undecodable: ") + e.what());
  }
}

std::vector<int> federated_pruning_order(fl::Simulation& sim, const DefenseConfig& config,
                                         fl::ExchangeStats* stats) {
  auto& server = sim.server();
  const auto clients = sim.protocol_client_ids();
  const int units = server.model().net.layer(server.model().last_conv_index).prunable_units();

  auto below_quorum = [&](const fl::ExchangeStats& st) {
    return QuorumError(std::string(prune_method_name(config.method)) + " pruning: " +
                       std::to_string(st.n_valid) + "/" + std::to_string(clients.size()) +
                       " valid reports after " + std::to_string(st.n_retried) + " retries");
  };

  // Reports stream into O(neurons) rank/vote histograms as they clear the
  // exchange — never a buffered report list. Rank and vote sums are integers
  // carried in doubles, so the fold order cannot change the aggregate and the
  // result matches the materialized rap/mvp_pruning_order bit for bit.
  obs::Span span("defense.fp_scan", "defense");
  if (config.method == PruneMethod::kRAP) {
    StreamingRankAggregator agg(units);
    auto ex = fl::exchange_streaming<std::vector<std::uint32_t>>(
        sim, clients,
        [&](const std::vector<int>& ids) { server.request_ranks(ids, round_tag::kRanks); },
        [&](const std::vector<int>& ids, fl::CollectStats* cs) {
          return server.collect_ranks(ids, round_tag::kRanks, cs);
        },
        [&agg](std::size_t, std::vector<std::uint32_t>&& report) { agg.accept(report); },
        "FP rank collection");
    if (stats != nullptr) *stats = ex.stats;
    if (!ex.stats.quorum_met) throw below_quorum(ex.stats);
    return agg.pruning_order();
  }
  StreamingVoteAggregator agg(units, config.vote_prune_rate);
  auto ex = fl::exchange_streaming<std::vector<std::uint8_t>>(
      sim, clients,
      [&](const std::vector<int>& ids) {
        server.request_votes(ids, config.vote_prune_rate, round_tag::kVotes);
      },
      [&](const std::vector<int>& ids, fl::CollectStats* cs) {
        return server.collect_votes(ids, round_tag::kVotes, cs);
      },
      [&agg](std::size_t, std::vector<std::uint8_t>&& ballot) { agg.accept(ballot); },
      "FP vote collection");
  if (stats != nullptr) *stats = ex.stats;
  if (!ex.stats.quorum_met) throw below_quorum(ex.stats);
  return agg.pruning_order();
}

DefenseReport run_defense(fl::Simulation& sim, const DefenseConfig& config,
                          fl::CheckpointManager* checkpoint,
                          const fl::RunSnapshot* resume) {
  DefenseReport report;
  auto& server = sim.server();
  auto& model = server.model();

  // `progress` mirrors everything computed before fine-tuning; fine-tune
  // snapshots embed it so a resume can skip the oracle and pruning protocol.
  DefenseProgress progress;
  const FineTuneState* ft_resume = nullptr;
  if (resume != nullptr && resume->stage == fl::run_stage::kFinetune) {
    progress = decode_defense_progress(resume->stage_state);
    report.training = progress.training;
    report.after_fp = progress.after_fp;
    report.prune = progress.prune;
    report.neurons_pruned = report.prune.n_pruned;
    report.fp_exchange = progress.fp_exchange;
    report.phase_seconds["pruning"] = progress.pruning_seconds;
    ft_resume = &progress.finetune;
  } else {
    report.training = snapshot(sim);
    // One oracle closure for baseline + pruning loop: it tags every
    // client-accuracy exchange with a strictly increasing round.
    auto accuracy_oracle = make_accuracy_oracle(sim, config);
    progress.baseline = accuracy_oracle();

    // --- Stage 1: Federated Pruning -----------------------------------------
    {
      obs::Span span("defense.pruning", "defense", &report.phase_seconds["pruning"]);
      auto order = federated_pruning_order(sim, config, &report.fp_exchange);
      auto& accuracy_eval = accuracy_oracle;
      std::function<double()> asr_eval;
      if (config.record_asr_traces) {
        asr_eval = [&sim] { return sim.attack_success(); };
      }
      report.prune = prune_until(model.net, model.last_conv_index, order, accuracy_eval,
                                 progress.baseline - config.prune_acc_drop, asr_eval);
      report.neurons_pruned = report.prune.n_pruned;
    }
    report.after_fp = snapshot(sim);
    FC_LOG(Info) << "FP pruned " << report.neurons_pruned << " neurons; TA "
                 << report.training.test_acc << " -> " << report.after_fp.test_acc << ", AA "
                 << report.training.attack_acc << " -> " << report.after_fp.attack_acc;
    progress.training = report.training;
    progress.after_fp = report.after_fp;
    progress.prune = report.prune;
    progress.fp_exchange = report.fp_exchange;
    progress.pruning_seconds = report.phase_seconds["pruning"];
  }
  const double baseline = progress.baseline;

  // --- Stage 2: Fine-tuning (optional) ---------------------------------------
  if (config.enable_finetune) {
    obs::Span span("defense.finetune", "defense", &report.phase_seconds["fine-tuning"]);
    FineTuneCheckpointHook hook;
    if (checkpoint != nullptr && checkpoint->enabled()) {
      hook = [&](const FineTuneState& state) {
        if (!checkpoint->due(state.next_round, config.finetune.max_rounds)) return;
        progress.finetune = state;
        auto snap =
            fl::make_run_snapshot(sim, fl::run_stage::kFinetune, state.next_round);
        snap.stage_state = encode_defense_progress(progress);
        checkpoint->save(snap);
      };
    }
    report.finetune = federated_finetune(sim, config.finetune, ft_resume, hook);
  }
  report.after_ft = snapshot(sim);

  // --- Stage 3: Adjusting Extreme Weights (optional) --------------------------
  if (config.enable_adjust_weights) {
    obs::Span span("defense.adjust_weights", "defense",
                   &report.phase_seconds["adjust-weights"]);
    auto accuracy_eval = [&server] { return server.validation_accuracy(); };
    std::function<double()> asr_eval;
    if (config.record_asr_traces) {
      asr_eval = [&sim] { return sim.attack_success(); };
    }
    AdjustConfig adjust = config.adjust;
    // The floor is anchored to the pre-defense baseline, not the post-FT
    // accuracy: fine-tuning buys headroom that AW is allowed to spend (the
    // paper's §IV-B/V-E trade-off).
    adjust.min_accuracy = std::min(accuracy_eval(), baseline) - config.aw_acc_drop;
    const auto layers = config.aw_include_fc
                            ? default_adjust_layers(model.net, model.last_conv_index)
                            : std::vector<int>{model.last_conv_index};
    report.adjust =
        adjust_extreme_weights(model.net, layers, adjust, accuracy_eval, asr_eval);
    report.weights_zeroed = report.adjust.weights_zeroed;
  }
  report.after_aw = snapshot(sim);
  FC_LOG(Info) << "defense complete: TA " << report.after_aw.test_acc << ", AA "
               << report.after_aw.attack_acc << " (zeroed " << report.weights_zeroed
               << " weights, final delta " << report.adjust.final_delta << ")";

  if (obs::Journal* journal = obs::ambient_journal()) {
    obs::JsonObject phases_json;
    for (const auto& [phase, seconds] : report.phase_seconds) {
      phases_json.add(phase, seconds);
    }
    obs::JsonObject entry;
    entry.add("kind", "defense")
        .add("method", prune_method_name(config.method))
        .add("ta", report.after_aw.test_acc)
        .add("asr", report.after_aw.attack_acc)
        .add("ta_before", report.training.test_acc)
        .add("asr_before", report.training.attack_acc)
        .add("ta_after_fp", report.after_fp.test_acc)
        .add("asr_after_fp", report.after_fp.attack_acc)
        .add("ta_after_ft", report.after_ft.test_acc)
        .add("asr_after_ft", report.after_ft.attack_acc)
        .add("neurons_pruned", report.neurons_pruned)
        .add("weights_zeroed", report.weights_zeroed)
        .add("finetune_rounds", report.finetune.rounds_run)
        .add("n_valid", report.fp_exchange.n_valid)
        .add("n_dropped", report.fp_exchange.n_dropped)
        .add("n_corrupted", report.fp_exchange.n_corrupted)
        .add("n_retried", report.fp_exchange.n_retried)
        .add("peak_rss", static_cast<std::uint64_t>(common::peak_rss_bytes()))
        .add_raw("phase_seconds", phases_json.str());
    journal->write(entry);
  }
  FC_METRIC(peak_rss_bytes().set(static_cast<double>(common::peak_rss_bytes())));
  return report;
}

}  // namespace fedcleanse::defense
