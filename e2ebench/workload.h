// The benchmark's workloads and the pipeline it times on each:
// fl::Simulation construction → Simulation::run() → defense::run_defense(),
// with correctness checks and, in the traced mode, per-layer timings taken
// from this file's own spans around the calls into each module.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "defense/pipeline.h"
#include "fl/simulation.h"

namespace e2ebench {

namespace fl = fedcleanse::fl;
namespace defense = fedcleanse::defense;

enum class Workload { kMnistCleanse, kDbaVgg4t, kFleet1mInt8 };

std::optional<Workload> parse_workload(const std::string& name);
const char* workload_name(Workload w);
const std::vector<Workload>& all_workloads();

struct WorkloadSpec {
  fl::SimulationConfig sim;
  defense::DefenseConfig defense;
  // Paper workloads must implant the backdoor before cleansing it.
  bool backdoor_checks = false;
};

// `smoke` shrinks rounds, cohorts and the fine-tune budget for the
// benchmark's own tests; the timed runs always use smoke = false.
WorkloadSpec make_workload(Workload w, std::uint64_t seed, bool smoke = false);

// Correctness bookkeeping. Every exchange participant and every check is one
// attempt; a dropped exchange or a failed check is one failure.
struct Tally {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;  // first few failed checks, for stderr

  void check(bool ok, const std::string& what);
  void exchange(int participants, int valid, int dropped, const std::string& what);
};

// One pipeline iteration's end-to-end figures.
struct PipelineResult {
  std::uint64_t seed = 0;
  std::vector<double> setup_s;  // one per fresh construction
  double train_s = 0.0;
  double cleanse_s = 0.0;
  std::uint64_t uplink_bytes = 0;  // after training
  std::uint64_t total_bytes = 0;   // after cleansing
  double trained_ta = 0.0;
  double trained_asr = 0.0;
  double cleansed_ta = 0.0;
  double cleansed_asr = 0.0;
  defense::DefenseReport report;
};

// Construct the simulation `setup_reps` times (keeping the last), train,
// cleanse, and record every check into `tally`. When `inspect` is set it is
// called with the finished simulation before it is destroyed.
PipelineResult run_pipeline(const WorkloadSpec& spec, int setup_reps, Tally& tally,
                            const std::function<void(fl::Simulation&, PipelineResult&)>&
                                inspect = nullptr);

// Cross-iteration check: a fixed seed gives identical outputs every time.
void check_repeatable(const PipelineResult& a, const PipelineResult& b, Tally& tally);

struct MetricSpec {
  const char* name;
  const char* unit;
};
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// What BENCHMARK.json lists: the untraced run prints exactly the end-to-end
// set, the traced run exactly the per-layer set.
const std::vector<MetricSpec>& end_to_end_catalogue();
const std::vector<MetricSpec>& per_layer_catalogue();

// Medians over the untraced iterations of one run.
std::vector<Metric> end_to_end_metrics(const std::vector<PipelineResult>& runs,
                                       double peak_rss_mb);

// An untraced, a traced and another untraced iteration, then per-module
// timings on the trained model. `detail` receives the human-readable
// breakdown (per-index layer table, self time of every span).
std::vector<Metric> traced_metrics(const WorkloadSpec& spec, Tally& tally,
                                   std::vector<std::string>& detail);

}  // namespace e2ebench
