#include "fl/streaming.h"

#include <utility>

#include "common/error.h"

namespace fedcleanse::fl {

StreamingAggregator::StreamingAggregator(Mode mode, std::size_t n_positions)
    : mode_(mode), n_positions_(n_positions) {}

void StreamingAggregator::fold(const std::vector<float>& update) {
  if (acc_.empty()) {
    acc_.assign(update.size(), 0.0f);
  } else {
    FC_REQUIRE(update.size() == acc_.size(), "update length mismatch in streaming fold");
  }
  for (std::size_t i = 0; i < update.size(); ++i) acc_[i] += update[i];
}

void StreamingAggregator::accept(std::size_t position, std::vector<float> update) {
  FC_REQUIRE(position < n_positions_, "aggregation position out of range");
  FC_REQUIRE(position >= next_ && parked_.find(position) == parked_.end(),
             "position accepted twice in aggregation");
  ++n_accepted_;
  if (mode_ == Mode::kRetain || position != next_) {
    // Retained, or out of order (an earlier position is still pending a
    // retry): park it.
    parked_.emplace(position, std::move(update));
    return;
  }
  fold(update);
  ++next_;
  // A newly contiguous prefix may have been parked.
  for (auto it = parked_.begin(); it != parked_.end() && it->first == next_;
       it = parked_.erase(it)) {
    fold(it->second);
    ++next_;
  }
}

std::vector<float> StreamingAggregator::finalize_mean() {
  FC_REQUIRE(mode_ == Mode::kFold, "finalize_mean on a retaining aggregator");
  // Positions still parked sit after a permanent gap (a client that never
  // replied): fold them now, still in ascending position order.
  for (const auto& [position, update] : parked_) fold(update);
  parked_.clear();
  FC_REQUIRE(n_accepted_ > 0, "no updates to aggregate");
  const float inv_n = 1.0f / static_cast<float>(n_accepted_);
  for (auto& v : acc_) v *= inv_n;
  return std::move(acc_);
}

std::vector<std::vector<float>> StreamingAggregator::finalize_retained() {
  FC_REQUIRE(mode_ == Mode::kRetain, "finalize_retained on a folding aggregator");
  std::vector<std::vector<float>> values;
  values.reserve(parked_.size());
  for (auto& [position, update] : parked_) values.push_back(std::move(update));
  parked_.clear();
  return values;
}

}  // namespace fedcleanse::fl
