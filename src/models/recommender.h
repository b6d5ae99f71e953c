// Base interface shared by every recommendation model in the library.
//
// A Recommender is fit once on a training ImplicitDataset and afterwards
// scores arbitrary (user, item) pairs; the evaluator ranks those scores.
// Training options (epochs, learning rate, early stopping) are uniform
// across models so experiment harnesses can sweep them generically; each
// model additionally has its own config struct (dimensions, margins,
// regularizer weights) passed to its constructor.
#ifndef MARS_MODELS_RECOMMENDER_H_
#define MARS_MODELS_RECOMMENDER_H_

#include <cstdint>
#include <functional>
#include <string>

#include "data/dataset.h"
#include "eval/evaluator.h"
#include "eval/scorer.h"

namespace mars {

class ThreadPool;
class WriteTracker;

/// Uniform training knobs.
struct TrainOptions {
  /// Maximum number of epochs.
  size_t epochs = 30;
  /// SGD steps per epoch; 0 means one step per training interaction.
  size_t steps_per_epoch = 0;
  /// Base learning rate (decays linearly, opt/schedule.h).
  double learning_rate = 0.05;
  /// Seed for initialization and sampling.
  uint64_t seed = 7;
  /// Hogwild training workers (train/parallel_trainer.h). 1 reproduces the
  /// historical single-threaded training sequence bit-for-bit; more workers
  /// shard each epoch's steps across a pool.
  size_t num_threads = 1;

  /// Optional dev-set evaluator; when set, training early-stops on HR@10.
  const Evaluator* dev_evaluator = nullptr;
  /// Thread pool for dev evaluation (may be null).
  ThreadPool* eval_pool = nullptr;
  /// Evaluate the dev set every this many epochs.
  size_t eval_every = 5;
  /// Early-stopping patience (consecutive non-improving dev evals).
  size_t patience = 2;

  /// Optional dirty-shard reporting for the serving cache
  /// (serve/write_tracker.h): when set, every training step marks the
  /// shards of the rows it wrote (relaxed atomic stores, safe from Hogwild
  /// workers), and models whose steps write global tables mark the whole
  /// catalog. TopKServer::AbsorbWrites consumes the flags at a quiesced
  /// epoch boundary.
  WriteTracker* write_tracker = nullptr;

  /// Optional epoch-boundary hook, invoked after each epoch's steps while
  /// the trainer pool is quiesced — the one moment model tables may be
  /// read or copied (the snapshot/quiesce contract). The serving
  /// integration publishes from here: take an owned frozen copy (e.g.
  /// Mars::ServingSnapshot) and hand it with the write tracker to
  /// TopKServer::PublishEpoch, which swaps the serving epoch without
  /// blocking in-flight queries. Keep the callback bounded: the next
  /// epoch does not start until it returns.
  std::function<void(size_t epoch)> epoch_callback = nullptr;
};

/// Abstract recommender.
class Recommender : public ItemScorer {
 public:
  ~Recommender() override = default;

  /// Trains the model on `train`. May be called once per instance.
  virtual void Fit(const ImplicitDataset& train,
                   const TrainOptions& options) = 0;

  /// Human-readable model name ("CML", "MARS", ...).
  virtual std::string name() const = 0;
};

}  // namespace mars

#endif  // MARS_MODELS_RECOMMENDER_H_
