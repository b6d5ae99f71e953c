// ScenarioRunner: replays one generated trace (scenario.h) against the
// full live stack and reports invariant violations.
//
// The stack under test is everything the repo ships, wired together the
// way production would run it:
//
//   ParallelTrainer ──epoch_callback──▶ TopKServer ◀── NetServer ◀── TCP
//        (Mars Fit, Hogwild)    PublishEpoch   (ANN full-probe,    (epoll)
//                                              batching, LRU)
//
// One actor thread per spec.num_actors drives a NetClient over loopback
// through its slice of the trace; a trainer thread keeps publishing
// epochs via TrainOptions::epoch_callback; the invariant checkers
// (invariants.h) validate every response as it arrives. The
// restart_mid_traffic scenario additionally tears the whole serving side
// down at the trace midpoint — SaveMarsV3 + top-k sidecar, kill the
// NetServer, LoadMarsMapped + WarmFromSidecar, new NetServer on a fresh
// port — while the actors wait at a barrier and then reconnect.
//
// Run() never aborts on a malformed spec or a failed stack start: the
// report carries the error. Determinism: the *trace* (and its digest)
// is a pure function of the spec; the interleaving of responses is real
// concurrency — that is the point — but every response is checked
// against invariants that hold under any legal interleaving.
#ifndef MARS_SCENARIO_SCENARIO_RUNNER_H_
#define MARS_SCENARIO_SCENARIO_RUNNER_H_

#include "scenario/scenario.h"

namespace mars {

class ScenarioRunner {
 public:
  explicit ScenarioRunner(ScenarioSpec spec);

  /// Generates the trace, builds the stack, replays, and reports. Safe
  /// to call once per runner instance.
  ScenarioReport Run();

 private:
  ScenarioSpec spec_;
};

}  // namespace mars

#endif  // MARS_SCENARIO_SCENARIO_RUNNER_H_
