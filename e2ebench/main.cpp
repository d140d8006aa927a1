// One run of the end-to-end benchmark on one workload.
//
//   e2ebench --workload mnist_cleanse|dba_vgg_4t|fleet_1m_int8
//            [--seed N] [--seconds S] [--trace 0|1]
//
// --trace 0 (the default) repeats the whole pipeline — construction, training,
// cleansing — until --seconds is used up (at least once) with telemetry off,
// iteration i at seed + i * 1000, and reports the end-to-end metrics as
// medians. --trace 1 runs an untraced, a traced and another untraced
// pipeline, then times each module's public calls on the trained model, and
// reports the per-layer metrics.
// Human-readable lines come first; the last line of stdout is the JSON
// result. Exit status 0 whenever a result was printed (failed checks show as
// "correct": false), 1 on an error, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common/logging.h"
#include "common/sysinfo.h"
#include "common/timer.h"
#include "stats.h"
#include "tensor/quant.h"
#include "workload.h"

namespace {

using namespace e2ebench;

// Fresh constructions per pipeline iteration; setup_s is their median.
constexpr int kSetupReps = 30;
// Untraced iteration i runs at seed + i * kSeedStride. The cleanse's work
// depends on the trained model (the prune oracle runs once per pruned neuron,
// 2 to 18 of them on dba_vgg_4t), so a run's medians average several seeds'.
constexpr std::uint64_t kSeedStride = 1000;

struct CpuTimes {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};

// Aggregate "cpu" line of /proc/stat; zeros where procfs is unavailable.
CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTimes t;
  if (label != "cpu") return t;
  // user nice system idle iowait irq softirq steal (guest fields are already
  // counted in user/nice)
  unsigned long long v[8] = {};
  for (auto& x : v) in >> x;
  for (auto x : v) t.total += x;
  t.steal = v[7];
  return t;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload mnist_cleanse|dba_vgg_4t|fleet_1m_int8 "
               "[--seed N] [--seconds S] [--trace 0|1]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // The workload fixes the environment: these variables would override its
  // thread count, sizes, codec or telemetry.
  for (const char* var : {"FEDCLEANSE_THREADS", "FEDCLEANSE_SCALE", "FEDCLEANSE_UPDATE_CODEC",
                          "FEDCLEANSE_TRACE", "FEDCLEANSE_METRICS"}) {
    unsetenv(var);
  }
  fedcleanse::common::set_global_log_level(fedcleanse::common::LogLevel::kWarn);

  std::optional<Workload> workload;
  std::uint64_t seed = 42;
  double seconds = 40.0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--workload") == 0 && has_value) {
      workload = parse_workload(argv[++i]);
      if (!workload) return usage();
    } else if (std::strcmp(argv[i], "--seed") == 0 && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0 && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--trace") == 0 && has_value) {
      trace = std::strcmp(argv[++i], "0") != 0;
    } else {
      return usage();
    }
  }
  if (!workload) return usage();

  const CpuTimes cpu_before = read_cpu_times();
  const WorkloadSpec spec = make_workload(*workload, seed);
  Tally tally;
  std::vector<Metric> metrics;
  std::vector<std::string> detail;
  std::size_t iterations = 0;
  try {
    if (!trace) {
      fedcleanse::common::Timer total;
      std::vector<PipelineResult> runs;
      std::vector<double> iteration_s;
      double peak_rss_mb = 0.0;
      do {
        fedcleanse::common::Timer it;
        runs.push_back(run_pipeline(make_workload(*workload, seed + runs.size() * kSeedStride),
                                    kSetupReps, tally));
        // Peak memory of the first iteration, at the given seed: later
        // iterations train at other seeds, and how many of them fit depends
        // on the host's speed.
        if (runs.size() == 1) {
          peak_rss_mb =
              static_cast<double>(fedcleanse::common::peak_rss_bytes()) / (1024.0 * 1024.0);
        }
        iteration_s.push_back(it.elapsed_seconds());
      } while (total.elapsed_seconds() + median(iteration_s) <= seconds);
      iterations = runs.size();
      for (const auto& r : runs) {
        auto phase = [&](const char* name) {
          const auto it = r.report.phase_seconds.find(name);
          return it == r.report.phase_seconds.end() ? 0.0 : it->second;
        };
        char line[384];
        std::snprintf(line, sizeof(line),
                      "iteration seed=%llu setup_s=%.4f train_s=%.3f cleanse_s=%.3f fp_s=%.3f "
                      "ft_s=%.3f aw_s=%.3f pruned=%d aw_steps=%zu trained_ta=%.4f "
                      "trained_asr=%.4f cleansed_ta=%.4f cleansed_asr=%.4f",
                      static_cast<unsigned long long>(r.seed), median(r.setup_s), r.train_s,
                      r.cleanse_s, phase("pruning"), phase("fine-tuning"),
                      phase("adjust-weights"), r.report.neurons_pruned,
                      r.report.adjust.trace.size(), r.trained_ta, r.trained_asr, r.cleansed_ta,
                      r.cleansed_asr);
        detail.push_back(line);
      }
      metrics = end_to_end_metrics(runs, peak_rss_mb);
    } else {
      metrics = traced_metrics(spec, tally, detail);
      iterations = 3;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s failed: %s\n", workload_name(*workload), e.what());
    return 1;
  }
  for (auto& m : metrics) {
    tally.check(std::isfinite(m.value), "finite " + m.name);
    if (!std::isfinite(m.value)) m.value = 0.0;
  }

  for (const auto& f : tally.failures) std::fprintf(stderr, "check failed: %s\n", f.c_str());

  const CpuTimes cpu_after = read_cpu_times();
  const unsigned long long total_ticks = cpu_after.total - cpu_before.total;
  const double steal_share =
      total_ticks > 0 ? static_cast<double>(cpu_after.steal - cpu_before.steal) / total_ticks
                      : 0.0;
  std::printf("# e2ebench workload=%s seed=%llu mode=%s iterations=%zu threads=%d\n",
              workload_name(*workload), static_cast<unsigned long long>(seed),
              trace ? "traced" : "untraced", iterations, spec.sim.n_threads);
  std::printf("# machine cpu=\"%s\" nproc=%u int8=%s steal_share=%.4f\n", cpu_model().c_str(),
              std::thread::hardware_concurrency(), fedcleanse::tensor::int8_dispatch_name(),
              steal_share);
  for (const auto& line : detail) std::printf("# %s\n", line.c_str());
  for (const auto& m : metrics) {
    std::printf("%-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::ostringstream json;
  json << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json << (i > 0 ? ", " : "") << '"' << json_escape(metrics[i].name) << "\": {\"value\": "
         << value << ", \"unit\": \"" << json_escape(metrics[i].unit) << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return 0;
}
