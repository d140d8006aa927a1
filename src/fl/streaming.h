// Streaming aggregation of training-round updates (DESIGN.md §14).
//
// Every valid reply reaches the server through exchange_streaming's sink, and
// StreamingAggregator is that sink for training rounds. Plain FedAvg folds
// each update into one O(model) accumulator the moment it clears the
// exchange's checksum/quorum accounting — in the SAME order mean_update()
// would sum the compacted update list, so the result is bit-identical float
// for float.
//
// Fold-order argument: mean_update() sums in the participants' *position*
// order (the order survivors compact to, not their arrival order). Every
// accepted update is therefore keyed by its participant position. kFold folds
// the contiguous received prefix immediately and parks out-of-order arrivals
// (retry stragglers on a lossy wire) in a position-keyed map that
// finalize_mean() drains in ascending position order. Folds thus always
// happen in ascending position order, while the map stays empty on a perfect
// wire (every reply arrives in position order within one attempt), keeping
// the steady state O(model).
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "fl/aggregation.h"

namespace fedcleanse::fl {

// Round-level aggregation over float update vectors. kFold streams every
// update into the O(model) mean (valid whenever the configured rule is plain
// FedAvg without reputation weighting — the only rule whose result is a
// position-ordered sum). kRetain parks the cohort's updates, compacted in
// position order at finalize, for the rules that need the full update set
// (robust aggregators, reputation weighting): O(cohort · model), but the
// cohort — not the population — bounds it. fl::Server::round_aggregator picks
// the mode from the server's configured rule.
class StreamingAggregator {
 public:
  enum class Mode { kFold, kRetain };

  static Mode mode_for(AggregatorKind kind, bool use_reputation) {
    return (kind == AggregatorKind::kFedAvg && !use_reputation) ? Mode::kFold
                                                                : Mode::kRetain;
  }

  StreamingAggregator(Mode mode, std::size_t n_positions);

  Mode mode() const { return mode_; }
  std::size_t accepted() const { return n_accepted_; }
  // Updates parked and not yet folded (kFold: out-of-order arrivals; kRetain:
  // every accepted update).
  std::size_t buffered() const { return parked_.size(); }

  // Accept the update from participant position `position` (at most once per
  // position — the exchange retires a position after its first valid reply).
  void accept(std::size_t position, std::vector<float> update);

  // kFold only: fold what is still parked, in ascending position order, and
  // return the mean — bit-identical to mean_update() over the same updates
  // compacted in position order. Throws Error when no update was accepted
  // (the caller's quorum gate normally prevents this).
  std::vector<float> finalize_mean();
  // kRetain only: the updates compacted in ascending position order.
  std::vector<std::vector<float>> finalize_retained();

 private:
  void fold(const std::vector<float>& update);

  Mode mode_;
  std::size_t n_positions_;
  std::size_t next_ = 0;  // kFold: positions < next_ have been folded
  std::size_t n_accepted_ = 0;
  std::vector<float> acc_;
  std::map<std::size_t, std::vector<float>> parked_;
};

}  // namespace fedcleanse::fl
