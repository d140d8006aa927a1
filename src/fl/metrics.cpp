#include "fl/metrics.h"

#include <algorithm>
#include <vector>

#include "common/threadpool.h"
#include "tensor/ops.h"

namespace fedcleanse::fl {

namespace {

// Correct argmax predictions among examples [begin, end), batch by batch.
std::size_t count_correct(const nn::Sequential& model, const data::Dataset& dataset,
                          std::size_t begin, std::size_t end, int batch_size) {
  std::size_t correct = 0;
  std::vector<std::size_t> indices;
  for (std::size_t start = begin; start < end; start += static_cast<std::size_t>(batch_size)) {
    const std::size_t stop = std::min(end, start + static_cast<std::size_t>(batch_size));
    indices.clear();
    for (std::size_t i = start; i < stop; ++i) indices.push_back(i);
    auto batch = dataset.make_batch(indices);
    auto preds = tensor::argmax_rows(model.infer(batch.images));
    for (std::size_t i = 0; i < preds.size(); ++i) {
      if (preds[i] == batch.labels[i]) ++correct;
    }
  }
  return correct;
}

}  // namespace

double evaluate_accuracy(const nn::Sequential& model, const data::Dataset& dataset,
                         int batch_size) {
  FC_REQUIRE(!dataset.empty(), "cannot evaluate on an empty dataset");
  FC_REQUIRE(batch_size > 0, "evaluation batch size must be positive");
  const std::size_t n = dataset.size();
  const std::size_t workers = common::ambient_workers();
  std::size_t correct = 0;
  if (workers <= 1) {
    correct = count_correct(model, dataset, 0, n, batch_size);
  } else {
    // A prediction depends only on its own image, never on which batch or
    // slice it rides in, so contiguous slices on the pool count exactly
    // what the inline loop counts. Two slices per worker even out the load;
    // the integer counts are summed in slice order.
    const std::size_t slices = std::min(n, 2 * workers);
    std::vector<std::size_t> counts(slices);
    common::ambient_parallel_for(slices, [&](std::size_t s) {
      counts[s] = count_correct(model, dataset, n * s / slices, n * (s + 1) / slices, batch_size);
    });
    for (const std::size_t c : counts) correct += c;
  }
  return static_cast<double>(correct) / static_cast<double>(n);
}

double attack_success_rate(const nn::Sequential& model, const data::Dataset& backdoor_testset,
                           int batch_size) {
  return evaluate_accuracy(model, backdoor_testset, batch_size);
}

}  // namespace fedcleanse::fl
