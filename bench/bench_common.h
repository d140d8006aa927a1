// Shared helpers for the experiment benches.
//
// Every bench regenerates one table or figure of the paper. Because the
// substrate is a single-core simulator rather than the authors' GPU testbed,
// sizes are scaled by FEDCLEANSE_SCALE (default 1.0): shapes — who wins, by
// roughly what factor — are the reproduction target, not absolute numbers.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/threadpool.h"
#include "common/timer.h"
#include "defense/pipeline.h"
#include "fl/metrics.h"
#include "fl/simulation.h"
#include "obs/trace.h"

namespace fedcleanse::bench {

// Common bench setup: log level from FEDCLEANSE_LOG, telemetry from
// FEDCLEANSE_TRACE / FEDCLEANSE_METRICS. When a trace was requested it is
// flushed at process exit so benches need no explicit teardown.
inline void init_env() {
  common::init_log_level_from_env();
  obs::init_from_env();
  if (obs::tracing_enabled()) std::atexit([] { obs::flush_trace(); });
}

inline double scale() {
  if (const char* env = std::getenv("FEDCLEANSE_SCALE")) {
    const double s = std::strtod(env, nullptr);
    if (s > 0.0) return s;
  }
  return 1.0;
}

inline int scaled(int base) {
  const int v = static_cast<int>(base * scale());
  return v < 1 ? 1 : v;
}

// Round counts degrade convergence much faster than sample counts, so
// scaled round budgets keep a floor: an undertrained federation makes every
// defense number meaningless.
inline int scaled_rounds(int base, int floor_rounds) {
  const int v = scaled(base);
  return v < floor_rounds ? floor_rounds : v;
}

// Baseline experiment configuration for the MNIST stand-in task: 10 clients,
// 1 attacker, 3-label non-IID, 5-pixel trigger, model replacement γ = 5.
inline fl::SimulationConfig mnist_config(std::uint64_t seed) {
  fl::SimulationConfig cfg;
  cfg.arch = nn::Architecture::kMnistCnn;
  cfg.dataset = data::SynthKind::kDigits;
  cfg.n_clients = 10;
  cfg.n_attackers = 1;
  cfg.rounds = scaled_rounds(20, 16);
  cfg.labels_per_client = 3;
  cfg.samples_per_class_train = scaled(90);
  cfg.samples_per_class_test = 50;
  cfg.attack.pattern = data::make_pixel_pattern(1);
  cfg.attack.victim_label = 9;
  cfg.attack.attack_label = 1;
  cfg.attack.gamma = 5.0;
  cfg.attack.poison_copies = 2;
  cfg.seed = seed;
  return cfg;
}

// Fashion-MNIST stand-in: single-pixel trigger (per the paper's Table II).
inline fl::SimulationConfig fashion_config(std::uint64_t seed) {
  fl::SimulationConfig cfg = mnist_config(seed);
  cfg.arch = nn::Architecture::kFashionCnn;
  cfg.dataset = data::SynthKind::kFashion;
  cfg.attack.pattern = data::make_pixel_pattern(1);
  cfg.rounds = scaled_rounds(24, 18);
  return cfg;
}

// CIFAR-10 stand-in under DBA: 4 attackers, each with a slice of the
// plus-shaped global trigger, VGG-style network.
inline fl::SimulationConfig cifar_dba_config(std::uint64_t seed) {
  fl::SimulationConfig cfg;
  cfg.arch = nn::Architecture::kVggSmall;
  cfg.dataset = data::SynthKind::kObjects;
  cfg.n_clients = 10;
  cfg.n_attackers = 4;
  cfg.dba = true;
  cfg.rounds = scaled_rounds(24, 18);
  cfg.labels_per_client = 5;
  cfg.samples_per_class_train = scaled(100);
  cfg.samples_per_class_test = 50;
  cfg.train.lr = 0.2;
  cfg.attack.pattern = data::make_dba_global_pattern(16, 16);
  cfg.attack.victim_label = 9;  // "truck"
  cfg.attack.attack_label = 0;  // "airplane"
  cfg.attack.gamma = 2.0;
  cfg.attack.poison_copies = 2;
  cfg.seed = seed;
  return cfg;
}

inline defense::DefenseConfig default_defense() {
  defense::DefenseConfig cfg;
  cfg.method = defense::PruneMethod::kMVP;
  cfg.vote_prune_rate = 0.5;
  cfg.prune_acc_drop = 0.02;
  cfg.aw_acc_drop = 0.05;
  cfg.adjust.delta_step = 0.25;
  cfg.adjust.delta_min = 0.5;
  return cfg;
}

// One training run, all defense modes: after federated pruning the model is
// cloned so FP and FP+AW numbers come from a side branch while FT+AW (the
// "All" mode) continues on the live federation. This matches the paper's
// tables, which report every mode for the same attacked model.
struct ModeResults {
  defense::StageMetrics train, fp, fpaw, all;
  int neurons_pruned = 0;
  int weights_zeroed_fpaw = 0;
  int weights_zeroed_all = 0;
};

inline ModeResults run_all_modes(fl::Simulation& sim, const defense::DefenseConfig& dcfg) {
  ModeResults out;
  out.train = {sim.test_accuracy(), sim.attack_success()};
  auto& server = sim.server();
  auto& model = server.model();
  const double baseline = server.validation_accuracy();

  // Federated pruning on the live model.
  auto order = defense::federated_pruning_order(sim, dcfg);
  auto prune = defense::prune_until(
      model.net, model.last_conv_index, order,
      [&] { return server.validation_accuracy(); }, baseline - dcfg.prune_acc_drop);
  out.neurons_pruned = prune.n_pruned;
  out.fp = {sim.test_accuracy(), sim.attack_success()};

  // Side branch: AW without fine-tuning.
  {
    auto branch = model.clone();
    defense::AdjustConfig acfg = dcfg.adjust;
    acfg.min_accuracy =
        std::min(fl::evaluate_accuracy(branch.net, server.validation_set()), baseline) -
        dcfg.aw_acc_drop;
    auto layers = dcfg.aw_include_fc
                      ? defense::default_adjust_layers(branch.net, branch.last_conv_index)
                      : std::vector<int>{branch.last_conv_index};
    auto adjust = defense::adjust_extreme_weights(branch.net, layers, acfg, [&] {
      return fl::evaluate_accuracy(branch.net, server.validation_set());
    });
    out.weights_zeroed_fpaw = adjust.weights_zeroed;
    out.fpaw = {fl::evaluate_accuracy(branch.net, sim.test_set()),
                fl::attack_success_rate(branch.net, sim.backdoor_testset())};
  }

  // Live branch: fine-tune, then AW ("All" mode).
  defense::federated_finetune(sim, dcfg.finetune);
  {
    defense::AdjustConfig acfg = dcfg.adjust;
    acfg.min_accuracy =
        std::min(server.validation_accuracy(), baseline) - dcfg.aw_acc_drop;
    auto layers = dcfg.aw_include_fc
                      ? defense::default_adjust_layers(model.net, model.last_conv_index)
                      : std::vector<int>{model.last_conv_index};
    auto adjust = defense::adjust_extreme_weights(
        model.net, layers, acfg, [&] { return server.validation_accuracy(); });
    out.weights_zeroed_all = adjust.weights_zeroed;
  }
  out.all = {sim.test_accuracy(), sim.attack_success()};
  return out;
}

// Class names for the CIFAR-10 stand-in rows (paper uses CIFAR-10 names;
// our classes are color/shape composites standing in positionally).
inline const char* object_class_name(int label) {
  static const char* names[10] = {"airplane", "automobile", "bird",  "cat",  "deer",
                                  "dog",      "frog",       "horse", "ship", "truck"};
  return (label >= 0 && label < 10) ? names[label] : "?";
}

inline void print_rule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

// --- micro-benchmark timing --------------------------------------------------
// Hand-rolled wall-clock harness for the kernel microbenchmarks: times a body
// serially and on an N-thread pool, and emits a machine-readable JSON file so
// the perf trajectory is tracked from run to run.

// Keep the optimizer from discarding a result the benchmark body produced.
inline void do_not_optimize(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

// Best (minimum) mean wall-clock nanoseconds per call of `body` over `reps`
// timed repetitions. A warmup phase first runs the body with doubling batch
// sizes until it has burned ~min_seconds/4 — that settles first-touch
// allocation, cache state, and workspace growth, and calibrates the batch
// size — then each of the `reps` repetitions times one batch and the fastest
// repetition wins. Min-of-K discards interference from the host (other
// processes, frequency ramps), which inflates only the slow reps.
inline double time_ns_per_iter(const std::function<void()>& body,
                               double min_seconds = 0.1, long min_iters = 5,
                               int reps = 5) {
  long batch = 1;
  long warm_iters = 0;
  common::Timer warm;
  double elapsed = 0.0;
  while (elapsed < min_seconds / 4.0 || warm_iters < min_iters) {
    for (long i = 0; i < batch; ++i) body();
    warm_iters += batch;
    elapsed = warm.elapsed_seconds();
    if (elapsed < min_seconds / 16.0) batch *= 2;
  }
  const double est_ns = elapsed * 1e9 / static_cast<double>(warm_iters);
  const double rep_budget_ns = min_seconds * 1e9 / (4.0 * reps);
  long rep_iters = est_ns > 0.0 ? static_cast<long>(rep_budget_ns / est_ns) : min_iters;
  if (rep_iters < 1) rep_iters = 1;
  double best_ns = 0.0;
  for (int r = 0; r < reps; ++r) {
    common::Timer timer;
    for (long i = 0; i < rep_iters; ++i) body();
    const double ns = timer.elapsed_seconds() * 1e9 / static_cast<double>(rep_iters);
    if (r == 0 || ns < best_ns) best_ns = ns;
  }
  return best_ns;
}

struct MicroRecord {
  std::string op;
  std::string size;        // e.g. "b32_c64" or "n256"
  double serial_ns = 0.0;  // ns/iter with no ambient pool
  double threaded_ns = 0.0;
  std::string kernel;           // e.g. "f32_packed" vs "int8_prepacked"; "" = n/a
  double flops_per_iter = 0.0;  // 0 = not a flop-counted op
  double speedup() const { return threaded_ns > 0.0 ? serial_ns / threaded_ns : 0.0; }
  double gflops_serial() const {
    return serial_ns > 0.0 ? flops_per_iter / serial_ns : 0.0;
  }
};

// Time `body` twice — ambient pool cleared, then installed — restoring
// whatever ambient pool the caller had.
inline MicroRecord time_serial_vs_threaded(std::string op, std::string size,
                                           common::ThreadPool& pool,
                                           const std::function<void()>& body) {
  MicroRecord rec;
  rec.op = std::move(op);
  rec.size = std::move(size);
  common::ThreadPool* previous = common::ambient_pool();
  common::set_ambient_pool(nullptr);
  rec.serial_ns = time_ns_per_iter(body);
  common::set_ambient_pool(&pool);
  rec.threaded_ns = time_ns_per_iter(body);
  common::set_ambient_pool(previous);
  return rec;
}

inline void write_micro_json(const std::string& path, const std::vector<MicroRecord>& records,
                             std::size_t threads) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"micro_ops\",\n  \"threads\": " << threads
      << ",\n  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    out << "    {\"op\": \"" << r.op << "\", \"size\": \"" << r.size << "\", \"kernel\": \""
        << r.kernel << "\", \"serial_ns_per_iter\": " << r.serial_ns
        << ", \"threaded_ns_per_iter\": " << r.threaded_ns
        << ", \"speedup\": " << r.speedup() << ", \"flops_per_iter\": " << r.flops_per_iter
        << ", \"gflops_serial\": " << r.gflops_serial() << "}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace fedcleanse::bench
