// Shared epoch driver: runs epochs, schedules the learning rate, evaluates
// the dev set, and early-stops. Every model's Fit() delegates here so the
// training protocol is identical across the comparison.
//
// One protocol for every thread count: train an epoch, then (on eval
// epochs) stop and rank the dev set on the live model, then decide. With
// num_threads > 1 the epoch's steps run on the trainer pool, which is
// joined before the evaluation, so the ranking never races a write.
//
// options.epoch_callback runs right after each epoch's steps, with the
// trainer pool quiesced — the hook the serving layer uses to publish a
// fresh epoch (snapshot + TopKServer::PublishEpoch) without stopping
// in-flight queries.
#ifndef MARS_MODELS_TRAIN_LOOP_H_
#define MARS_MODELS_TRAIN_LOOP_H_

#include <functional>

#include "data/dataset.h"
#include "models/recommender.h"

namespace mars {

/// Callback invoked once per epoch with (epoch index, learning rate).
using EpochFn = std::function<void(size_t epoch, double lr)>;

/// Runs up to `options.epochs` epochs of `run_epoch`, early-stopping on the
/// dev evaluator's HR@10 when one is configured. `scorer` is the model
/// being trained (used for dev evaluation); `model_name` labels the
/// per-evaluation DEBUG log line. Returns the number of epochs actually run.
size_t RunTrainingLoop(const TrainOptions& options, const ItemScorer& scorer,
                       const std::string& model_name,
                       const EpochFn& run_epoch);

/// Resolves steps-per-epoch: `options.steps_per_epoch` or, when zero, the
/// number of training interactions.
size_t ResolveStepsPerEpoch(const TrainOptions& options,
                            const ImplicitDataset& train);

}  // namespace mars

#endif  // MARS_MODELS_TRAIN_LOOP_H_
