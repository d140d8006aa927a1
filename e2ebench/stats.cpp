#include "stats.h"

#include <algorithm>
#include <cmath>

namespace e2ebench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

std::optional<int> tail_percentile(std::size_t n, std::size_t min_beyond) {
  for (int p = 99; p >= 50; --p) {
    // Integer form of ceil(p·n/100), exact for every n.
    const std::size_t at_or_below = (static_cast<std::size_t>(p) * n + 99) / 100;
    if (n - at_or_below >= min_beyond) return p;
  }
  return std::nullopt;
}

std::map<std::string, SpanTotals> span_totals(
    const std::vector<fedcleanse::obs::TraceEvent>& events) {
  std::map<int, std::vector<const fedcleanse::obs::TraceEvent*>> by_thread;
  for (const auto& e : events) by_thread[e.tid].push_back(&e);

  std::map<std::string, SpanTotals> out;
  for (auto& [tid, evs] : by_thread) {
    (void)tid;
    // Parents first: earlier start, and on a tie the longer span.
    std::sort(evs.begin(), evs.end(), [](const auto* a, const auto* b) {
      return a->start_ns != b->start_ns ? a->start_ns < b->start_ns : a->dur_ns > b->dur_ns;
    });
    std::vector<const fedcleanse::obs::TraceEvent*> open;
    std::map<const fedcleanse::obs::TraceEvent*, std::int64_t> child_ns;
    for (const auto* e : evs) {
      while (!open.empty() && open.back()->start_ns + open.back()->dur_ns <= e->start_ns) {
        open.pop_back();
      }
      if (!open.empty()) child_ns[open.back()] += e->dur_ns;
      open.push_back(e);
    }
    for (const auto* e : evs) {
      auto& t = out[e->name];
      ++t.count;
      t.total_s += static_cast<double>(e->dur_ns) * 1e-9;
      t.self_s += static_cast<double>(e->dur_ns - child_ns[e]) * 1e-9;
    }
  }
  return out;
}

}  // namespace e2ebench
