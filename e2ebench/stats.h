// Order statistics and trace arithmetic for the end-to-end benchmark.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace e2ebench {

// Middle value (mean of the two middle values for an even count); 0 for an
// empty input.
double median(std::vector<double> values);

// Nearest-rank percentile: the smallest sample with at least p% of the
// samples at or below it. `p` in (0, 100]; 0 for an empty input.
double percentile(std::vector<double> values, double p);

// The tail the benchmark reports for `n` samples: the highest integer
// percentile p ≥ 50 that still has at least `min_beyond` samples strictly
// above its nearest-rank position (n - ceil(p·n/100) ≥ min_beyond). nullopt
// when even p = 50 leaves fewer than that, i.e. too few samples for a tail.
std::optional<int> tail_percentile(std::size_t n, std::size_t min_beyond = 10);

// Per-span-name totals over a set of trace events.
struct SpanTotals {
  std::size_t count = 0;
  double total_s = 0.0;
  // Duration minus the parts covered by direct child spans on the same
  // thread.
  double self_s = 0.0;
};

// Self time per span name. Spans nest per thread (RAII closes children before
// their parent), so each event's parent is the innermost open span on its
// thread that contains it.
std::map<std::string, SpanTotals> span_totals(
    const std::vector<fedcleanse::obs::TraceEvent>& events);

}  // namespace e2ebench
