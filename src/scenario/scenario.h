// Deterministic traffic scenarios: seeded, replayable event traces that
// drive the whole serving stack — live trainer, TopKServer, NetServer —
// wire-to-wire while invariant checkers validate every response online
// (scenario_runner.h). This header is the pure half: the scenario
// vocabulary (spec, event, report), spec validation, trace generation,
// and the event-log digest.
//
// Determinism contract: GenerateTrace is a pure function of the spec —
// per-actor RNG streams are SplitMix64-derived from the seed, event
// times come from a virtual clock advanced by RNG draws, and nothing
// reads the wall clock or any global generator. Same spec ⇒ the same
// trace bytes ⇒ the same DigestTrace value, which is what makes a
// failing run replayable: re-run the scenario name + seed and the exact
// traffic replays (docs/SCENARIOS.md walks the workflow).
//
// The shipped catalog (ScenarioNames):
//   zipf_hot_users     — Zipf-skewed user popularity (spec.zipf_s),
//                        invalid/hostile traffic mixed in, live publishes.
//   flash_crowd        — uniform first half, then every actor collapses
//                        onto one user-shard's id range mid-run.
//   publish_storm      — tiny training epochs publish every few ms while
//                        the frontends race them.
//   restart_mid_traffic— all actors pause at the trace midpoint, the
//                        server is killed and rebuilt from a SaveMarsV3
//                        snapshot + top-k sidecar (LoadMarsMapped +
//                        Prime), actors reconnect and resume.
//   slow_reader        — actor 0 pipelines its whole trace without ever
//                        reading responses, exercising the NetServer
//                        backpressure cap; the other actors prove
//                        isolation.
#ifndef MARS_SCENARIO_SCENARIO_H_
#define MARS_SCENARIO_SCENARIO_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace mars {

/// What one traffic event asks an actor to do.
enum class ScenarioEventKind : uint8_t {
  /// A well-formed TopKRequest (expected status kOk).
  kQuery = 0,
  /// A request-level rejection: exactly one of {user, k, flags} is out
  /// of range (`hostile` selects which); the server must answer with the
  /// matching status and keep the connection.
  kInvalidRequest = 1,
  /// A frame-level violation (unknown frame type with intact framing):
  /// the server must answer kError(kBadType) and keep the connection.
  kHostileFrame = 2,
  /// A stream-level violation (garbage that cannot be a frame header):
  /// the server must answer kError(kBadFrame) and close; the actor then
  /// reconnects cleanly.
  kStreamAbuse = 3,
};

/// One entry of the generated event log. Every field is covered by
/// DigestTrace, so two traces are byte-comparable through one u64.
struct ScenarioEvent {
  /// Virtual-clock timestamp (µs since scenario start). The virtual
  /// clock shapes the trace (flash-crowd compression, per-actor jitter)
  /// and is digested; replay is compressed — actors issue their events
  /// in order without sleeping, so wall time never enters the log.
  uint64_t vtime_us = 0;
  uint32_t actor = 0;
  ScenarioEventKind kind = ScenarioEventKind::kQuery;
  /// Sub-kind for kInvalidRequest (0 = bad user, 1 = bad k, 2 = bad
  /// flags); unused otherwise.
  uint8_t hostile = 0;
  uint32_t user = 0;
  uint32_t k = 0;
  uint32_t flags = 0;
};

/// Full description of one scenario run. Everything the trace and the
/// serving stack need is in here — no hidden knobs.
struct ScenarioSpec {
  /// One of ScenarioNames().
  std::string scenario;
  /// Master seed; per-actor streams are SplitMix64-derived from it.
  uint64_t seed = 1;

  // Catalog / traffic shape.
  size_t num_users = 48;
  size_t num_items = 192;
  size_t num_actors = 3;
  /// Trace length per actor — the scenario's duration. Zero is rejected.
  size_t events_per_actor = 150;
  /// Serving depth (TopKServerOptions::k); valid request k ∈ [0, k].
  size_t k = 10;
  /// Zipf skew for zipf_hot_users (rank-frequency exponent s > 0).
  double zipf_s = 1.2;
  /// Fraction of request-level-invalid traffic, in [0, 1].
  double invalid_fraction = 0.06;
  /// Fraction of frame/stream-abusive traffic, in [0, 1].
  double hostile_fraction = 0.0;

  // Live training (0 epochs = static serving).
  size_t train_epochs = 3;
  /// 0 = full dataset pass per epoch; small values make publishes rapid
  /// (publish_storm).
  size_t steps_per_epoch = 400;

  // Invariant (d): bounded p99 over well-formed round trips. Must be
  // > 0; only *enforced* when the host has more than one CPU (on one
  // core client, server, and trainer time-slice a single core and the
  // percentile measures the scheduler).
  double p99_bound_ms = 250.0;

  // Wire knobs.
  /// 0 = NetServerOptions default; slow_reader shrinks it so the
  /// backpressure cap trips with test-sized traffic.
  size_t max_queued_response_bytes = 0;
  /// 0 = kernel default send buffer (see NetServerOptions::sndbuf_bytes).
  int sndbuf_bytes = 0;
};

/// Outcome of one ScenarioRunner::Run. `error` is set (and nothing ran)
/// when the spec failed validation or the stack could not start.
struct ScenarioReport {
  bool ran = false;
  std::string error;

  uint64_t trace_digest = 0;
  size_t events = 0;
  /// Wire round trips that produced a response frame.
  size_t responses = 0;
  size_t published_epochs = 0;

  // Invariant counters — all must be zero for a passing run.
  size_t membership_violations = 0;  // (a) response ∉ any published snapshot
  size_t epoch_regressions = 0;      // (b) per-user epoch went backwards
  size_t status_violations = 0;      // (c) wrong status / wrong close behavior
  size_t unexpected_closes = 0;      // (c) close without a stream violation

  // Invariant (d): latency. p99 is always measured; enforced only when
  // the run saw host_cpus > 1.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  bool p99_enforced = false;
  bool p99_ok = true;

  // Scenario-specific evidence.
  size_t reconnects = 0;          // clean reconnects (restart / stream abuse)
  size_t stream_closes = 0;       // expected closes after kStreamAbuse
  uint64_t backpressure_closes = 0;  // NetServerStats, summed across restarts

  /// Sum of everything a passing run must keep at zero.
  size_t violations() const {
    return membership_violations + epoch_regressions + status_violations +
           unexpected_closes + ((p99_enforced && !p99_ok) ? 1 : 0);
  }
};

/// The shipped scenario catalog, in canonical order.
std::vector<std::string> ScenarioNames();

/// A ready-to-run spec for a named scenario: the catalog defaults above
/// plus the per-scenario knobs (storm epoch cadence, slow-reader caps,
/// flash-crowd shape). Unknown names return a spec that fails validation.
ScenarioSpec CanonicalScenarioSpec(const std::string& name, uint64_t seed);

/// Empty string when the spec is runnable; otherwise a one-line reason
/// (unknown scenario, zero duration, p99 bound <= 0, ...). Never aborts.
std::string ValidateScenarioSpec(const ScenarioSpec& spec);

/// The deterministic event log: every actor's events in actor order,
/// each actor's slice in virtual-time order. Returns an empty vector and
/// sets *error when the spec fails validation.
std::vector<ScenarioEvent> GenerateTrace(const ScenarioSpec& spec,
                                         std::string* error);

/// FNV-1a (64-bit) over the packed little-endian bytes of every event —
/// the replayability fingerprint: equal digests ⇔ byte-identical logs.
uint64_t DigestTrace(std::span<const ScenarioEvent> trace);

}  // namespace mars

#endif  // MARS_SCENARIO_SCENARIO_H_
