#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "common/timer.h"
#include "comm/message.h"
#include "data/partition.h"
#include "data/synth.h"
#include "fl/streaming.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "stats.h"

namespace e2ebench {

namespace common = fedcleanse::common;
namespace comm = fedcleanse::comm;
namespace data = fedcleanse::data;
namespace nn = fedcleanse::nn;
namespace obs = fedcleanse::obs;
namespace tensor = fedcleanse::tensor;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

bool in_unit_interval(double v) { return v >= 0.0 && v <= 1.0; }

// Median wall time of `fn` over `reps` calls after one warm-up call, each
// call recorded as a span named `span_name` (a string literal).
template <typename Fn>
double time_median_s(const char* span_name, int reps, Fn&& fn) {
  fn();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    obs::Span span(span_name, "bench");
    common::Timer t;
    fn();
    samples.push_back(t.elapsed_seconds());
  }
  return median(samples);
}

std::uint64_t counter_delta(const std::map<std::string, std::uint64_t>& before,
                            const std::map<std::string, std::uint64_t>& after,
                            const std::string& name) {
  const auto a = after.find(name);
  if (a == after.end()) return 0;
  const auto b = before.find(name);
  return a->second - (b == before.end() ? 0 : b->second);
}

const obs::TraceEvent* last_event(const std::vector<obs::TraceEvent>& events,
                                  const std::string& name) {
  const obs::TraceEvent* found = nullptr;
  for (const auto& e : events) {
    if (name == e.name && (found == nullptr || e.start_ns > found->start_ns)) found = &e;
  }
  return found;
}

// Durations (ms) of the spans called `name` that lie inside `window`.
std::vector<double> span_ms_within(const std::vector<obs::TraceEvent>& events,
                                   const std::string& name, const obs::TraceEvent* window) {
  std::vector<double> out;
  if (window == nullptr) return out;
  for (const auto& e : events) {
    if (name == e.name && e.start_ns >= window->start_ns &&
        e.start_ns + e.dur_ns <= window->start_ns + window->dur_ns) {
      out.push_back(static_cast<double>(e.dur_ns) * 1e-6);
    }
  }
  return out;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

// The batch one local SGD step sees.
int local_batch_size(const fl::SimulationConfig& cfg) {
  return cfg.samples_per_client > 0 ? std::min(cfg.train.batch_size, cfg.samples_per_client)
                                    : cfg.train.batch_size;
}

struct LayerTiming {
  int index = 0;
  std::string kind;  // "conv", "linear", or "other"
  double fwd_s = 0.0, bwd_s = 0.0;
  double flops = 0.0;  // forward + backward
};

// Forward and backward of every layer of a copy of `model`, one local batch at
// a time, median over `reps`. The forward is the one training runs
// (Sequential::run_forward): a Conv2d followed by a ReLU runs the ReLU as its
// GEMM epilogue, so that time counts as the conv's and the ReLU's forward is 0.
std::vector<LayerTiming> time_layers(const nn::Sequential& model, const data::Dataset& source,
                                     int batch, int reps) {
  auto net = model.clone();
  std::vector<std::size_t> idx(static_cast<std::size_t>(batch));
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i % source.size();
  const auto input = source.make_batch(idx).images;

  const int n = net.size();
  std::vector<LayerTiming> out(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& lt = out[static_cast<std::size_t>(i)];
    lt.index = i;
    lt.kind = "other";
    if (dynamic_cast<nn::Conv2d*>(&net.layer(i)) != nullptr) lt.kind = "conv";
    if (dynamic_cast<nn::Linear*>(&net.layer(i)) != nullptr) lt.kind = "linear";
  }
  std::vector<std::vector<double>> fwd(out.size()), bwd(out.size());
  for (int rep = -1; rep < reps; ++rep) {  // rep -1 warms caches and workspaces
    tensor::Tensor x = input;
    for (int i = 0; i < n;) {
      auto& layer = net.layer(i);
      auto* conv = dynamic_cast<nn::Conv2d*>(&layer);
      auto* relu = conv != nullptr && i + 1 < n ? dynamic_cast<nn::ReLU*>(&net.layer(i + 1))
                                                : nullptr;
      const auto in_shape = x.shape();
      double dt = 0.0;
      {
        obs::Span span("bench.layer_forward", "bench");
        common::Timer t;
        if (conv != nullptr) {
          x = conv->forward_conv(x, relu != nullptr, tensor::ComputeKernel::kF32);
          if (relu != nullptr) relu->adopt_output(x);
        } else {
          x = layer.forward(x);
        }
        dt = t.elapsed_seconds();
      }
      auto& lt = out[static_cast<std::size_t>(i)];
      if (rep < 0) {
        if (conv != nullptr) {
          const auto& o = x.shape();
          lt.flops = 3.0 * 2.0 * o[0] * o[1] * o[2] * o[3] * conv->in_channels() *
                     conv->kernel() * conv->kernel();
        } else if (auto* lin = dynamic_cast<nn::Linear*>(&layer)) {
          lt.flops = 3.0 * 2.0 * in_shape[0] * lin->in_features() * lin->out_features();
        }
      } else {
        fwd[static_cast<std::size_t>(i)].push_back(dt);
        if (relu != nullptr) fwd[static_cast<std::size_t>(i) + 1].push_back(0.0);
      }
      i += relu != nullptr ? 2 : 1;
    }
    tensor::Tensor g = tensor::Tensor::ones(x.shape());
    for (int i = n - 1; i >= 0; --i) {
      obs::Span span("bench.layer_backward", "bench");
      common::Timer t;
      g = net.layer(i).backward(g);
      if (rep >= 0) bwd[static_cast<std::size_t>(i)].push_back(t.elapsed_seconds());
    }
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].fwd_s = median(fwd[i]);
    out[i].bwd_s = median(bwd[i]);
  }
  return out;
}

template <typename... Args>
std::string fmt(const char* format, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, args...);
  return buf;
}

}  // namespace

std::optional<Workload> parse_workload(const std::string& name) {
  for (Workload w : all_workloads()) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kMnistCleanse: return "mnist_cleanse";
    case Workload::kDbaVgg4t: return "dba_vgg_4t";
    case Workload::kFleet1mInt8: return "fleet_1m_int8";
  }
  return "?";
}

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> all = {Workload::kMnistCleanse, Workload::kDbaVgg4t,
                                            Workload::kFleet1mInt8};
  return all;
}

WorkloadSpec make_workload(Workload w, std::uint64_t seed, bool smoke) {
  WorkloadSpec spec;
  fl::SimulationConfig& c = spec.sim;
  c.seed = seed;
  switch (w) {
    case Workload::kMnistCleanse:
      // The quickstart example / Table I pipeline, single worker.
      c.arch = nn::Architecture::kMnistCnn;
      c.dataset = data::SynthKind::kDigits;
      c.n_clients = 10;
      c.n_attackers = 1;
      c.rounds = smoke ? 10 : 25;
      c.labels_per_client = 3;
      c.attack.pattern = data::make_pixel_pattern(5);
      c.attack.victim_label = 9;
      c.attack.attack_label = 1;
      c.attack.gamma = 5.0;
      c.attack.poison_copies = 2;
      c.n_threads = 1;
      spec.defense.method = defense::PruneMethod::kMVP;
      spec.defense.vote_prune_rate = 0.5;
      spec.backdoor_checks = true;
      break;
    case Workload::kDbaVgg4t:
      // Table III: VGG on the object stand-in, four DBA attackers, RAP ranks,
      // one pool worker per core of the reference machine. Local lr stays at
      // the library default 0.1, not the Table III bench's 0.2: at 0.2 the
      // boosted DBA updates make the global model swing between rounds, and
      // at seed 26 it ends training as a constant classifier (TA 0.10).
      c.arch = nn::Architecture::kVggSmall;
      c.dataset = data::SynthKind::kObjects;
      c.n_clients = 10;
      c.n_attackers = 4;
      c.dba = true;
      c.rounds = 24;
      c.labels_per_client = 5;
      c.samples_per_class_train = 100;
      c.samples_per_class_test = 50;
      c.attack.pattern = data::make_dba_global_pattern(16, 16);
      c.attack.victim_label = 9;
      c.attack.attack_label = 0;
      c.attack.gamma = 2.0;
      c.attack.poison_copies = 2;
      c.n_threads = 4;
      spec.defense.method = defense::PruneMethod::kRAP;
      spec.backdoor_checks = true;
      break;
    case Workload::kFleet1mInt8:
      // The virtual-client engine at a million clients: small local work per
      // client, so per-client overhead (materialization, codec, fold,
      // broadcast, eval) is a large share of the round.
      c.arch = nn::Architecture::kMnistCnn;
      c.dataset = data::SynthKind::kDigits;
      c.n_clients = 1000000;
      c.n_attackers = c.n_clients / 100;
      c.clients_per_round = smoke ? 20 : 100;
      c.rounds = smoke ? 4 : 20;
      c.labels_per_client = 3;
      c.samples_per_client = 4;
      c.train.local_epochs = 1;
      c.train.update_codec = comm::UpdateCodec::kInt8;
      c.attack.pattern = data::make_pixel_pattern(5);
      c.attack.victim_label = 9;
      c.attack.attack_label = 1;
      c.attack.gamma = 5.0;
      c.attack.poison_copies = 2;
      c.residency = fl::ClientResidency::kVirtual;
      c.defense_clients = smoke ? 16 : 64;
      c.n_threads = 1;
      spec.defense.method = defense::PruneMethod::kMVP;
      spec.defense.vote_prune_rate = 0.5;
      break;
  }
  if (smoke) spec.defense.finetune.max_rounds = 2;
  // Fine-tuning always spends its whole round budget. With early stopping the
  // cleanse work depended on the seed (2.7-6.0 s on mnist_cleanse over seeds
  // 1-5), which no timing bound could tell apart from a regression.
  spec.defense.finetune.patience = spec.defense.finetune.max_rounds;
  return spec;
}

void Tally::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 16) failures.push_back(what);
}

void Tally::exchange(int participants, int valid, int dropped, const std::string& what) {
  attempted += participants;
  failed += dropped;
  check(participants > 0 && valid == participants && dropped == 0,
        what + ": " + std::to_string(valid) + "/" + std::to_string(participants) + " valid");
}

PipelineResult run_pipeline(const WorkloadSpec& spec, int setup_reps, Tally& tally,
                            const std::function<void(fl::Simulation&, PipelineResult&)>& inspect) {
  PipelineResult r;
  r.seed = spec.sim.seed;
  std::unique_ptr<fl::Simulation> sim;
  for (int i = 0; i < std::max(1, setup_reps); ++i) {
    sim.reset();  // one simulation alive at a time
    obs::Span span("bench.setup", "bench");
    common::Timer t;
    sim = std::make_unique<fl::Simulation>(spec.sim);
    r.setup_s.push_back(t.elapsed_seconds());
  }
  {
    obs::Span span("bench.train", "bench");
    common::Timer t;
    sim->run();
    r.train_s = t.elapsed_seconds();
  }
  r.uplink_bytes = sim->network().uplink_bytes();
  {
    obs::Span span("bench.cleanse", "bench");
    common::Timer t;
    r.report = defense::run_defense(*sim, spec.defense);
    r.cleanse_s = t.elapsed_seconds();
  }
  r.total_bytes = sim->network().total_bytes();
  r.trained_ta = r.report.training.test_acc;
  r.trained_asr = r.report.training.attack_acc;
  r.cleansed_ta = r.report.after_aw.test_acc;
  r.cleansed_asr = r.report.after_aw.attack_acc;

  // --- checks ----------------------------------------------------------------
  const auto& history = sim->history();
  tally.check(static_cast<int>(history.size()) == spec.sim.rounds, "all training rounds ran");
  std::uint64_t round_bytes = 0;
  for (const auto& rec : history) {
    const std::string tag = "train round " + std::to_string(rec.round);
    tally.exchange(rec.n_participants, rec.n_valid, rec.n_dropped, tag);
    tally.check(rec.quorum_met, tag + " quorum");
    tally.check(in_unit_interval(rec.test_acc) && in_unit_interval(rec.attack_acc),
                tag + " TA/ASR in [0,1]");
    round_bytes += rec.wire_bytes;
  }
  tally.check(round_bytes == r.uplink_bytes && r.uplink_bytes > 0,
              "per-round uplink bytes sum to the network's uplink total");
  const auto& fp = r.report.fp_exchange;
  tally.exchange(fp.n_participants, fp.n_valid, fp.n_dropped, "FP report exchange");
  tally.check(fp.quorum_met, "FP quorum");
  tally.check(r.report.finetune.rounds_run >= 1 &&
                  r.report.finetune.rounds_run <= spec.defense.finetune.max_rounds,
              "fine-tune round count within its budget");
  for (const auto& rec : r.report.finetune.history) {
    tally.exchange(rec.n_participants, rec.n_valid, rec.n_dropped,
                   "fine-tune round " + std::to_string(rec.round));
  }
  for (const auto* stage : {&r.report.training, &r.report.after_fp, &r.report.after_ft,
                            &r.report.after_aw}) {
    tally.check(in_unit_interval(stage->test_acc) && in_unit_interval(stage->attack_acc),
                "defense stage TA/ASR in [0,1]");
  }
  tally.check(r.total_bytes > r.uplink_bytes, "cleansing puts traffic on the wire");
  // The defense must not buy its ASR drop with the model's accuracy. Over
  // seeds 21-80 TA fell by at most 0.084 from trained to cleansed (dba_vgg_4t,
  // seed 35); fleet_1m_int8 trains weak models at some seeds (TA 0.22 at seed
  // 53), so its floor is relative only.
  tally.check(r.cleansed_ta >= r.trained_ta - 0.15,
              fmt("cleansed TA %.3f within 0.15 of trained TA %.3f", r.cleansed_ta,
                  r.trained_ta));
  if (spec.backdoor_checks) {
    tally.check(r.trained_asr >= 0.9,
                fmt("backdoor implanted (trained ASR %.3f >= 0.9)", r.trained_asr));
    // 10 classes: chance is 0.1.
    tally.check(r.trained_ta >= 0.3,
                fmt("trained TA %.3f well above chance (>= 0.3)", r.trained_ta));
    tally.check(r.cleansed_ta >= 0.3,
                fmt("cleansed TA %.3f well above chance (>= 0.3)", r.cleansed_ta));
  }
  if (inspect) inspect(*sim, r);
  return r;
}

void check_repeatable(const PipelineResult& a, const PipelineResult& b, Tally& tally) {
  tally.check(a.uplink_bytes == b.uplink_bytes && a.total_bytes == b.total_bytes &&
                  a.cleansed_ta == b.cleansed_ta && a.cleansed_asr == b.cleansed_asr &&
                  a.report.neurons_pruned == b.report.neurons_pruned &&
                  a.report.weights_zeroed == b.report.weights_zeroed,
              "same seed, same outputs across iterations");
}

const std::vector<MetricSpec>& end_to_end_catalogue() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},         {"train_s", "s"},      {"cleanse_s", "s"},
      {"peak_rss_mb", "MiB"}, {"uplink_mib", "MiB"}, {"wire_mib", "MiB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_catalogue() {
  static const std::vector<MetricSpec> specs = {
      // nn: Layer::forward/backward per local batch, summed over layers of a kind.
      {"nn.conv.fwd_us", "us"},
      {"nn.conv.bwd_us", "us"},
      {"nn.conv.gflops", "GFLOP/s"},
      {"nn.linear.fwd_us", "us"},
      {"nn.linear.bwd_us", "us"},
      {"nn.linear.gflops", "GFLOP/s"},
      {"nn.other.fwd_us", "us"},
      {"nn.other.bwd_us", "us"},
      // tensor: registry counters over train + cleanse.
      {"tensor.gemm_gflop", "GFLOP"},
      {"tensor.gemm_calls", "count"},
      {"tensor.workspace_chunk_allocs", "count"},
      // common thread pool, over training.
      {"pool.idle_share", "fraction"},
      {"pool.tasks", "count"},
      // fl
      {"fl.round_ms_p50", "ms"},
      {"fl.round_ms_tail", "ms"},
      {"fl.client_train_share", "fraction"},
      {"fl.eval_ms", "ms"},
      {"fl.materialize_us_per_client", "us"},
      {"fl.fold_us_per_update", "us"},
      // comm
      {"comm.encode_us_per_update", "us"},
      {"comm.decode_us_per_update", "us"},
      {"comm.update_bytes", "B"},
      {"comm.msgs", "count"},
      {"comm.downlink_mib", "MiB"},
      // data
      {"data.synth_ms", "ms"},
      {"data.partition_ms", "ms"},
      // defense
      {"defense.fp_s", "s"},
      {"defense.fp_scan_s", "s"},
      {"defense.ft_s", "s"},
      {"defense.ft_rounds", "count"},
      {"defense.ft_round_ms_p50", "ms"},
      {"defense.aw_s", "s"},
      {"defense.aw_steps", "count"},
      {"defense.neurons_pruned", "count"},
      {"defense.weights_zeroed", "count"},
      // Model quality. Exact for a seed, but it differs between seeds by more
      // than any bound a timing could share, so it is reported, not bounded.
      {"defense.trained_ta", "fraction"},
      {"defense.trained_asr", "fraction"},
      {"defense.cleansed_ta", "fraction"},
      {"defense.cleansed_asr", "fraction"},
      // self time of the program's own spans over the traced pipeline
      {"span.fl_round.self_s", "s"},
      {"span.exchange.self_s", "s"},
      {"span.collect.self_s", "s"},
      {"span.client_dispatch.self_s", "s"},
      {"span.client_handle.self_s", "s"},
      {"span.client_train.self_s", "s"},
      {"span.client_scan.self_s", "s"},
      {"span.defense_fp_scan.self_s", "s"},
      {"span.defense_pruning.self_s", "s"},
      {"span.defense_finetune.self_s", "s"},
      {"span.defense_adjust_weights.self_s", "s"},
      // traced pipeline wall over the mean of the untraced ones around it, minus 1
      {"trace.overhead_share", "fraction"},
  };
  return specs;
}

std::vector<Metric> end_to_end_metrics(const std::vector<PipelineResult>& runs,
                                       double peak_rss_mb) {
  std::vector<double> setup, train, cleanse;
  for (const auto& r : runs) {
    setup.insert(setup.end(), r.setup_s.begin(), r.setup_s.end());
    train.push_back(r.train_s);
    cleanse.push_back(r.cleanse_s);
  }
  const PipelineResult& first = runs.front();
  return {
      {"setup_s", "s", median(setup)},
      {"train_s", "s", median(train)},
      {"cleanse_s", "s", median(cleanse)},
      {"peak_rss_mb", "MiB", peak_rss_mb},
      {"uplink_mib", "MiB", static_cast<double>(first.uplink_bytes) / kMiB},
      {"wire_mib", "MiB", static_cast<double>(first.total_bytes) / kMiB},
  };
}

namespace {

using MetricMap = std::map<std::string, double>;

// Metrics read off the traced pipeline: counter deltas, spans, the report.
void pipeline_metrics(fl::Simulation& sim, const PipelineResult& r,
                      const std::map<std::string, std::uint64_t>& ctr_begin,
                      const std::map<std::string, std::uint64_t>& ctr_end,
                      const std::vector<obs::TraceEvent>& events, MetricMap& m,
                      std::vector<std::string>& detail) {
  const auto* train_win = last_event(events, "bench.train");
  const auto* cleanse_win = last_event(events, "bench.cleanse");
  const double threads = static_cast<double>(std::max<std::size_t>(1, sim.pool().size()));

  // --- tensor / pool / comm counters over train + cleanse ---------------------
  auto delta = [&](const char* name) {
    return static_cast<double>(counter_delta(ctr_begin, ctr_end, name));
  };
  m["tensor.gemm_gflop"] = delta("tensor.gemm.flops") * 1e-9;
  m["tensor.gemm_calls"] = delta("tensor.gemm.calls");
  m["tensor.workspace_chunk_allocs"] = delta("tensor.workspace.chunk_allocs");
  m["pool.tasks"] = delta("pool.tasks");
  m["pool.idle_share"] = delta("pool.idle_ns") * 1e-9 / (threads * (r.train_s + r.cleanse_s));
  m["comm.msgs"] = delta("comm.channel.msgs");
  m["comm.downlink_mib"] = static_cast<double>(sim.network().downlink_bytes()) / kMiB;

  // --- fl rounds (training window) and fine-tune rounds (cleanse window) ------
  const auto rounds = span_ms_within(events, "fl.round", train_win);
  const auto tail = tail_percentile(rounds.size());
  m["fl.round_ms_p50"] = percentile(rounds, 50);
  // Too few rounds for a tail (smoke runs) falls back to the median.
  m["fl.round_ms_tail"] = percentile(rounds, tail.value_or(50));
  detail.push_back(fmt("fl.round_ms_tail is p%d of %zu training rounds", tail.value_or(50),
                       rounds.size()));
  m["fl.client_train_share"] =
      sum(span_ms_within(events, "client.train", train_win)) * 1e-3 / (threads * r.train_s);
  m["defense.ft_round_ms_p50"] = percentile(span_ms_within(events, "fl.round", cleanse_win), 50);
  m["defense.fp_scan_s"] = sum(span_ms_within(events, "defense.fp_scan", cleanse_win)) * 1e-3;

  // --- defense report ---------------------------------------------------------
  auto phase = [&](const char* name) {
    const auto it = r.report.phase_seconds.find(name);
    return it == r.report.phase_seconds.end() ? 0.0 : it->second;
  };
  m["defense.fp_s"] = phase("pruning");
  m["defense.ft_s"] = phase("fine-tuning");
  m["defense.aw_s"] = phase("adjust-weights");
  m["defense.ft_rounds"] = r.report.finetune.rounds_run;
  m["defense.aw_steps"] = static_cast<double>(r.report.adjust.trace.size());
  m["defense.neurons_pruned"] = r.report.neurons_pruned;
  m["defense.weights_zeroed"] = r.report.weights_zeroed;
  m["defense.trained_ta"] = r.trained_ta;
  m["defense.trained_asr"] = r.trained_asr;
  m["defense.cleansed_ta"] = r.cleansed_ta;
  m["defense.cleansed_asr"] = r.cleansed_asr;

  // --- self time per span -----------------------------------------------------
  const auto totals = span_totals(events);
  detail.push_back("span                       count    total_s     self_s");
  for (const auto& [name, t] : totals) {
    detail.push_back(fmt("%-24s %7zu %10.4f %10.4f", name.c_str(), t.count, t.total_s,
                         t.self_s));
  }
  auto self = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_s;
  };
  // fl.round → exchange (request, fold; named after the exchange) → collect
  // (receive, decode) and client.dispatch → client.handle → client.train.
  m["span.fl_round.self_s"] = self("fl.round");
  m["span.exchange.self_s"] =
      self("training round") + self("FP vote collection") + self("FP rank collection");
  m["span.collect.self_s"] = self("collect");
  m["span.client_dispatch.self_s"] = self("client.dispatch");
  m["span.client_handle.self_s"] = self("client.handle");
  m["span.client_train.self_s"] = self("client.train");
  m["span.client_scan.self_s"] = self("client.vote_scan") + self("client.rank_scan");
  m["span.defense_fp_scan.self_s"] = self("defense.fp_scan");
  m["span.defense_pruning.self_s"] = self("defense.pruning");
  m["span.defense_finetune.self_s"] = self("defense.finetune");
  m["span.defense_adjust_weights.self_s"] = self("defense.adjust_weights");
}

// Each module's public calls, timed from here on the cleansed model.
void module_metrics(fl::Simulation& sim, MetricMap& m, std::vector<std::string>& detail) {
  const fl::SimulationConfig& cfg = sim.config();
  auto& model = sim.server().model();

  // --- nn ---------------------------------------------------------------------
  const int batch = local_batch_size(cfg);
  const auto layers = time_layers(model.net, sim.test_set(), batch, /*reps=*/20);
  MetricMap fwd, bwd, flops;
  detail.push_back(fmt("layer (batch %2d)          fwd_us     bwd_us    GFLOP/s", batch));
  for (const auto& lt : layers) {
    fwd[lt.kind] += lt.fwd_s;
    bwd[lt.kind] += lt.bwd_s;
    flops[lt.kind] += lt.flops;
    const std::string label = "nn.L" + std::to_string(lt.index) + "_" + lt.kind;
    detail.push_back(fmt("%-22s %10.1f %10.1f %10.2f", label.c_str(), lt.fwd_s * 1e6,
                         lt.bwd_s * 1e6,
                         lt.flops > 0 ? lt.flops / (lt.fwd_s + lt.bwd_s) * 1e-9 : 0.0));
  }
  for (const std::string k : {"conv", "linear", "other"}) {
    m["nn." + k + ".fwd_us"] = fwd[k] * 1e6;
    m["nn." + k + ".bwd_us"] = bwd[k] * 1e6;
    if (k != "other") m["nn." + k + ".gflops"] = flops[k] / (fwd[k] + bwd[k]) * 1e-9;
  }

  // --- fl: eval, streaming fold, materialization --------------------------------
  m["fl.eval_ms"] = 1e3 * time_median_s("bench.eval", 5, [&] {
    const double ta = sim.test_accuracy();
    const double asr = sim.attack_success();
    (void)ta;
    (void)asr;
  });

  const auto params = model.net.get_flat();
  const std::size_t cohort = static_cast<std::size_t>(
      cfg.clients_per_round > 0 ? cfg.clients_per_round : cfg.n_clients);
  std::vector<double> fold_s;
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<std::vector<float>> updates(cohort, params);
    obs::Span span("bench.fold", "bench");
    common::Timer t;
    fl::StreamingAggregator agg(fl::StreamingAggregator::Mode::kFold, cohort);
    for (std::size_t i = 0; i < cohort; ++i) agg.accept(i, std::move(updates[i]));
    const auto mean = agg.finalize_mean();
    fold_s.push_back(t.elapsed_seconds());
  }
  m["fl.fold_us_per_update"] = 1e6 * median(fold_s) / static_cast<double>(cohort);

  // ensure_resident on cohorts never sampled before (materialized populations
  // are always resident, so there it is the bookkeeping alone).
  int offset = 0;
  m["fl.materialize_us_per_client"] =
      1e6 / static_cast<double>(cohort) * time_median_s("bench.materialize", 3, [&] {
        std::vector<int> ids(cohort);
        const std::int64_t n = cfg.n_clients;
        const std::int64_t c = static_cast<std::int64_t>(cohort);
        for (std::int64_t k = 0; k < c; ++k) {
          ids[static_cast<std::size_t>(k)] = static_cast<int>((k * n / c + 7 + offset) % n);
        }
        ++offset;
        sim.ensure_resident(ids);
      });

  // --- comm: the workload's update codec ----------------------------------------
  const bool q8 = cfg.train.update_codec == comm::UpdateCodec::kInt8;
  std::vector<std::uint8_t> payload;
  m["comm.encode_us_per_update"] = 1e6 * time_median_s("bench.encode", 20, [&] {
    payload = q8 ? comm::encode_flat_params_q8(params) : comm::encode_flat_params(params);
  });
  m["comm.update_bytes"] = static_cast<double>(payload.size());
  m["comm.decode_us_per_update"] = 1e6 * time_median_s("bench.decode", 20, [&] {
    const auto decoded =
        q8 ? comm::decode_flat_params_q8(payload) : comm::decode_flat_params(payload);
    (void)decoded;
  });

  // --- data ---------------------------------------------------------------------
  data::Dataset full;
  m["data.synth_ms"] = 1e3 * time_median_s("bench.synth", 3, [&] {
    full = data::make_synth(cfg.dataset, {cfg.samples_per_class_train, cfg.seed, cfg.data_noise});
  });
  // The virtual engine derives each client's data on materialization; there
  // the partition is timed over one cohort, with its share of attackers.
  data::PartitionConfig part;
  part.n_clients = sim.virtual_clients() ? static_cast<int>(cohort) : cfg.n_clients;
  part.labels_per_client = cfg.labels_per_client;
  part.samples_per_client = cfg.samples_per_client;
  part.seed = cfg.seed;
  const int attackers = static_cast<int>(static_cast<std::int64_t>(cfg.n_attackers) *
                                         part.n_clients / cfg.n_clients);
  for (int a = 0; a < attackers; ++a) part.forced_labels.emplace_back(a, cfg.attack.victim_label);
  m["data.partition_ms"] = 1e3 * time_median_s("bench.partition", 3, [&] {
    const auto locals = data::partition_k_label(full, part);
    (void)locals;
  });
}

}  // namespace

std::vector<Metric> traced_metrics(const WorkloadSpec& spec, Tally& tally,
                                   std::vector<std::string>& detail) {
  // Untraced before and after the traced pipeline, so that the first run's
  // cold process (allocator, workspaces, page faults) does not bias the
  // overhead.
  const PipelineResult untraced = run_pipeline(spec, 1, tally);

  obs::set_metrics_enabled(true);
  obs::set_tracing_enabled(true);
  obs::clear_trace_events();
  auto& registry = obs::Registry::global();
  const auto ctr_begin = registry.counter_values();
  MetricMap m;
  const PipelineResult traced =
      run_pipeline(spec, 1, tally, [&](fl::Simulation& sim, PipelineResult& r) {
        pipeline_metrics(sim, r, ctr_begin, registry.counter_values(),
                         obs::trace_events_snapshot(), m, detail);
        module_metrics(sim, m, detail);
      });
  obs::set_tracing_enabled(false);
  obs::set_metrics_enabled(false);

  const PipelineResult untraced_after = run_pipeline(spec, 1, tally);

  check_repeatable(untraced, traced, tally);
  check_repeatable(untraced, untraced_after, tally);
  const double untraced_s = 0.5 * (untraced.train_s + untraced.cleanse_s +
                                   untraced_after.train_s + untraced_after.cleanse_s);
  m["trace.overhead_share"] = (traced.train_s + traced.cleanse_s) / untraced_s - 1.0;

  std::vector<Metric> out;
  for (const auto& s : per_layer_catalogue()) {
    const auto it = m.find(s.name);
    tally.check(it != m.end(), std::string("per-layer metric measured: ") + s.name);
    out.push_back({s.name, s.unit, it == m.end() ? 0.0 : it->second});
  }
  return out;
}

}  // namespace e2ebench
