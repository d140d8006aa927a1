// Model evaluation metrics: test accuracy (TA) and attack success rate (AA).
#pragma once

#include "data/dataset.h"
#include "nn/sequential.h"

namespace fedcleanse::fl {

// Fraction of examples whose argmax prediction matches the label, through
// the cache-free Sequential::infer. Called where an ambient pool has more
// than one worker, it counts contiguous dataset slices on the pool; the
// result is the same at every thread count and batch size.
double evaluate_accuracy(const nn::Sequential& model, const data::Dataset& dataset,
                         int batch_size = 64);

// Attack success rate: accuracy on a backdoor test set (victim-label images
// stamped with the full trigger, labeled with the attack label — see
// data::make_backdoor_testset).
double attack_success_rate(const nn::Sequential& model, const data::Dataset& backdoor_testset,
                           int batch_size = 64);

}  // namespace fedcleanse::fl
