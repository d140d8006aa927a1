// The benchmark's own tests: the order statistics it reports, the metric
// names and units it promises in BENCHMARK.json, and a smoke-size pipeline of
// every workload passing every check at the default and a held-out seed.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "stats.h"
#include "workload.h"

namespace {

using namespace e2ebench;

TEST(Stats, MedianAndNearestRankPercentile) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  const std::vector<double> v = {5, 1, 4, 2, 3, 10, 9, 8, 7, 6};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 90), 9.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1), 1.0);
}

TEST(Stats, TailPercentileKeepsTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(25), 60);  // 25 training rounds: p60, 10 beyond
  EXPECT_EQ(tail_percentile(24), 58);
  EXPECT_EQ(tail_percentile(20), 50);
  EXPECT_EQ(tail_percentile(100), 90);
  EXPECT_EQ(tail_percentile(1000), 99);
  EXPECT_FALSE(tail_percentile(19).has_value());
  EXPECT_FALSE(tail_percentile(0).has_value());
  for (std::size_t n = 1; n <= 3000; ++n) {
    const auto p = tail_percentile(n);
    auto beyond = [n](int pct) {
      std::vector<double> v(n);
      for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i);
      // Samples strictly greater than the reported percentile value.
      return n - 1 - static_cast<std::size_t>(percentile(v, pct));
    };
    if (!p) {
      EXPECT_LT(beyond(50), 10u) << n;
      continue;
    }
    EXPECT_GE(beyond(*p), 10u) << n;
    if (*p < 99) {
      EXPECT_LT(beyond(*p + 1), 10u) << n;
    }
  }
}

TEST(Stats, SelfTimeSubtractsDirectChildrenPerThread) {
  using fedcleanse::obs::TraceEvent;
  std::vector<TraceEvent> events = {
      {"round", "t", 0, 100, 0, nullptr, 0},
      {"train", "t", 10, 50, 0, nullptr, 0},
      {"kernel", "t", 20, 10, 0, nullptr, 0},
      {"train", "t", 70, 20, 0, nullptr, 0},
      // Another thread overlapping in time is not a child.
      {"train", "t", 0, 100, 1, nullptr, 0},
  };
  const auto totals = span_totals(events);
  EXPECT_EQ(totals.at("round").count, 1u);
  EXPECT_NEAR(totals.at("round").self_s, 30e-9, 1e-15);
  EXPECT_EQ(totals.at("train").count, 3u);
  EXPECT_NEAR(totals.at("train").total_s, 170e-9, 1e-15);
  EXPECT_NEAR(totals.at("train").self_s, 160e-9, 1e-15);
  EXPECT_NEAR(totals.at("kernel").self_s, 10e-9, 1e-15);
}

// (name, unit) pairs of one metric list in BENCHMARK.json.
std::vector<std::pair<std::string, std::string>> spec_metrics(const std::string& list) {
  std::ifstream in(E2EBENCH_SPEC_PATH);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const auto begin = text.find("\"" + list + "\"");
  EXPECT_NE(begin, std::string::npos) << list;
  const auto end = text.find(']', begin);
  const std::string section = text.substr(begin, end - begin);
  const std::regex entry("\"name\":\\s*\"([^\"]+)\",\\s*\"unit\":\\s*\"([^\"]+)\"");
  std::vector<std::pair<std::string, std::string>> out;
  for (auto it = std::sregex_iterator(section.begin(), section.end(), entry);
       it != std::sregex_iterator(); ++it) {
    out.emplace_back((*it)[1], (*it)[2]);
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> names_units(const std::vector<Metric>& ms) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& m : ms) out.emplace_back(m.name, m.unit);
  return out;
}

std::vector<std::pair<std::string, std::string>> names_units(
    const std::vector<MetricSpec>& ms) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& m : ms) out.emplace_back(m.name, m.unit);
  return out;
}

TEST(Catalogue, MatchesBenchmarkJson) {
  EXPECT_EQ(names_units(end_to_end_catalogue()), spec_metrics("end_to_end"));
  EXPECT_EQ(names_units(per_layer_catalogue()), spec_metrics("per_layer"));
  std::set<std::string> seen;
  for (const auto& m : per_layer_catalogue()) EXPECT_TRUE(seen.insert(m.name).second);
  for (const auto& m : end_to_end_catalogue()) EXPECT_TRUE(seen.insert(m.name).second);
}

TEST(Workloads, NamesRoundTrip) {
  for (Workload w : all_workloads()) EXPECT_EQ(parse_workload(workload_name(w)), w);
  EXPECT_FALSE(parse_workload("mnist").has_value());
}

// Smoke-size runs: both modes, every check, at the default seed and at a
// held-out seed nobody tuned against.
class SmokeRun : public ::testing::TestWithParam<std::tuple<Workload, std::uint64_t>> {};

TEST_P(SmokeRun, PassesEveryCheckAndReportsEveryMetric) {
  const auto [workload, seed] = GetParam();
  const WorkloadSpec spec = make_workload(workload, seed, /*smoke=*/true);

  Tally tally;
  const auto e2e = end_to_end_metrics({run_pipeline(spec, 2, tally)}, 1.0);
  EXPECT_EQ(names_units(e2e), names_units(end_to_end_catalogue()));
  for (const auto& m : e2e) EXPECT_GT(m.value, 0.0) << m.name;

  // Also checks that the traced pipeline repeats the untraced one exactly.
  std::vector<std::string> detail;
  const auto layers = traced_metrics(spec, tally, detail);
  EXPECT_EQ(names_units(layers), names_units(per_layer_catalogue()));
  EXPECT_FALSE(detail.empty());

  for (const auto& f : tally.failures) ADD_FAILURE() << f;
  EXPECT_EQ(tally.failed, 0);
  EXPECT_GT(tally.attempted, 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, SmokeRun,
    ::testing::Combine(::testing::Values(Workload::kMnistCleanse, Workload::kDbaVgg4t,
                                         Workload::kFleet1mInt8),
                       ::testing::Values(42u, 7u)),
    [](const auto& info) {
      return std::string(workload_name(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
