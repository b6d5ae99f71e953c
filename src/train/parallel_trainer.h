// Sharded Hogwild epoch driver.
//
// The spherical SGD updates of every model in this library touch only the
// sampled rows (u, v⁺, v⁻), which makes an epoch embarrassingly shardable:
// the trainer splits the epoch's steps across `num_threads` workers that
// update the shared parameter tables lock-free (Hogwild). Each worker owns
// a private deterministic RNG stream seeded `seed ^ SplitMix64(worker_id)`,
// so the *sampling* sequence of every worker is reproducible; with more
// than one worker the final floats still vary run-to-run because update
// interleaving races (tolerated — see ROADMAP "shard/ownership model").
//
// Determinism contract: with num_threads <= 1 the trainer runs every step
// inline on the calling thread against the model's own serial RNG, which
// reproduces the historical single-threaded training sequence bit-for-bit
// (regression-tested in tests/train/parallel_trainer_test.cc).
#ifndef MARS_TRAIN_PARALLEL_TRAINER_H_
#define MARS_TRAIN_PARALLEL_TRAINER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace mars {

struct TrainOptions;

/// One SGD step run by a trainer worker. `worker` is in [0, num_workers)
/// and stable for the lifetime of the trainer — models index per-worker
/// scratch with it. `rng` is the worker's private stream; a step must draw
/// randomness only from it.
using TrainStepFn = std::function<void(size_t worker, Rng& rng)>;

/// Fans an epoch's SGD steps out across Hogwild workers.
class ParallelTrainer {
 public:
  /// `serial_rng` is the model's own generator (already advanced by
  /// initialization); it is the single stream when num_threads <= 1 and is
  /// left untouched otherwise. Must outlive the trainer.
  ParallelTrainer(size_t num_threads, uint64_t seed, Rng* serial_rng);

  /// Convenience: reads num_threads and seed from `options`.
  ParallelTrainer(const TrainOptions& options, Rng* serial_rng);

  size_t num_workers() const { return num_workers_; }

  /// Runs `steps` total steps of `step` for one epoch. Steps are split as
  /// evenly as possible across workers (first `steps % W` workers run one
  /// extra); blocks until every worker finished. Worker RNG streams
  /// persist across epochs.
  void RunEpoch(size_t steps, const TrainStepFn& step);

  /// The seed worker `w` derives its stream from.
  static uint64_t WorkerSeed(uint64_t seed, size_t worker);

 private:
  size_t num_workers_;
  Rng* serial_rng_;
  std::vector<Rng> worker_rngs_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace mars

#endif  // MARS_TRAIN_PARALLEL_TRAINER_H_
