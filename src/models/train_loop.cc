#include "models/train_loop.h"

#include "common/logging.h"
#include "eval/early_stopping.h"
#include "eval/evaluator.h"
#include "opt/schedule.h"

namespace mars {

size_t RunTrainingLoop(const TrainOptions& options, const ItemScorer& scorer,
                       const std::string& model_name,
                       const EpochFn& run_epoch) {
  const LrSchedule schedule(options.learning_rate, options.epochs);
  EarlyStopper stopper(options.patience);
  size_t epochs_run = 0;
  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    run_epoch(epoch, schedule.At(epoch));
    ++epochs_run;
    // Quiesced boundary: the epoch's steps are done and no worker is
    // running, so the callback may read/copy the model tables (the
    // serving layer publishes its next epoch from here).
    if (options.epoch_callback) options.epoch_callback(epoch);
    const bool last_epoch = (epoch + 1 == options.epochs);
    if (options.dev_evaluator != nullptr && options.eval_every > 0 &&
        ((epoch + 1) % options.eval_every == 0) && !last_epoch) {
      const RankingMetrics dev =
          options.dev_evaluator->Evaluate(scorer, options.eval_pool);
      MARS_LOG(DEBUG) << model_name << " epoch " << (epoch + 1)
                      << " dev HR@10=" << dev.hr10;
      if (stopper.ShouldStop(dev.hr10)) break;
    }
  }
  return epochs_run;
}

size_t ResolveStepsPerEpoch(const TrainOptions& options,
                            const ImplicitDataset& train) {
  return options.steps_per_epoch > 0 ? options.steps_per_epoch
                                     : train.num_interactions();
}

}  // namespace mars
