#include "scenario/scenario.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.h"
#include "serve/request.h"

namespace mars {

namespace {

constexpr const char* kNames[] = {
    "zipf_hot_users", "flash_crowd", "publish_storm", "restart_mid_traffic",
    "slow_reader",
};

bool KnownScenario(const std::string& name) {
  for (const char* n : kNames) {
    if (name == n) return true;
  }
  return false;
}

/// Packs one little-endian integer into the FNV stream.
uint64_t FnvMix(uint64_t h, uint64_t v, size_t bytes) {
  for (size_t i = 0; i < bytes; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 1099511628211ull;
  }
  return h;
}

/// Inverse-CDF Zipf sampler over ranks: P(rank r) ∝ (r+1)^-s. The
/// cumulative table is built once per trace; ranks map to user ids
/// through a seed-derived permutation so "hot" is not "low id".
struct ZipfSampler {
  std::vector<double> cum;
  void Build(size_t n, double s) {
    cum.resize(n);
    double total = 0.0;
    for (size_t r = 0; r < n; ++r) {
      total += std::pow(static_cast<double>(r + 1), -s);
      cum[r] = total;
    }
  }
  size_t Sample(Rng* rng) const {
    const double x = rng->Uniform() * cum.back();
    return static_cast<size_t>(
        std::lower_bound(cum.begin(), cum.end(), x) - cum.begin());
  }
};

}  // namespace

std::vector<std::string> ScenarioNames() {
  return std::vector<std::string>(std::begin(kNames), std::end(kNames));
}

ScenarioSpec CanonicalScenarioSpec(const std::string& name, uint64_t seed) {
  ScenarioSpec spec;
  spec.scenario = name;
  spec.seed = seed;
  if (name == "zipf_hot_users") {
    spec.hostile_fraction = 0.04;
  } else if (name == "flash_crowd") {
    spec.hostile_fraction = 0.02;
  } else if (name == "publish_storm") {
    // Tiny epochs: the trainer publishes every few milliseconds while
    // the frontends race the swaps.
    spec.train_epochs = 10;
    spec.steps_per_epoch = 48;
    spec.events_per_actor = 180;
  } else if (name == "restart_mid_traffic") {
    // Hostile traffic off: every reconnect in this scenario should be
    // attributable to the restart boundary alone.
    spec.train_epochs = 2;
    spec.steps_per_epoch = 300;
    spec.events_per_actor = 120;
  } else if (name == "slow_reader") {
    // Static serving; the point is the wire. Shrink the kernel and
    // userspace buffers so the backpressure cap trips with a
    // test-sized burst (actor 0 pipelines ~events_per_actor requests
    // per round without reading).
    spec.train_epochs = 0;
    spec.events_per_actor = 160;
    spec.max_queued_response_bytes = 32u << 10;
    spec.sndbuf_bytes = 4096;
  }
  return spec;
}

std::string ValidateScenarioSpec(const ScenarioSpec& spec) {
  if (!KnownScenario(spec.scenario)) {
    return "unknown scenario '" + spec.scenario + "' (known: " +
           [&] {
             std::string all;
             for (const char* n : kNames) {
               if (!all.empty()) all += ", ";
               all += n;
             }
             return all;
           }() +
           ")";
  }
  if (spec.events_per_actor == 0) {
    return "events_per_actor must be > 0 (a zero-duration scenario "
           "exercises nothing)";
  }
  if (spec.num_actors == 0) return "num_actors must be > 0";
  if (spec.num_users == 0) return "num_users must be > 0";
  if (spec.num_items == 0) return "num_items must be > 0";
  if (spec.k == 0) return "k (serving depth) must be > 0";
  if (spec.p99_bound_ms <= 0.0) {
    return "p99_bound_ms must be > 0 (the bounded-latency invariant "
           "needs a bound)";
  }
  if (spec.zipf_s <= 0.0) return "zipf_s must be > 0";
  if (spec.invalid_fraction < 0.0 || spec.invalid_fraction > 1.0 ||
      spec.hostile_fraction < 0.0 || spec.hostile_fraction > 1.0 ||
      spec.invalid_fraction + spec.hostile_fraction > 1.0) {
    return "invalid_fraction/hostile_fraction must lie in [0, 1] and sum "
           "to at most 1";
  }
  if (spec.scenario == "restart_mid_traffic" && spec.events_per_actor < 2) {
    return "restart_mid_traffic needs events_per_actor >= 2 (traffic on "
           "both sides of the restart)";
  }
  if (spec.scenario == "slow_reader" && spec.num_actors < 2) {
    return "slow_reader needs num_actors >= 2 (one slow reader plus "
           "normal actors proving isolation)";
  }
  return "";
}

std::vector<ScenarioEvent> GenerateTrace(const ScenarioSpec& spec,
                                         std::string* error) {
  const std::string err = ValidateScenarioSpec(spec);
  if (!err.empty()) {
    if (error != nullptr) *error = err;
    return {};
  }
  if (error != nullptr) error->clear();

  // Seed derivation: one SplitMix64 stream yields the trace-level seed
  // (shared structure: the popularity permutation) and one seed per
  // actor. Actor streams are then fully independent — an actor's events
  // never depend on another actor's draws.
  uint64_t state = spec.seed;
  const uint64_t trace_seed = SplitMix64(&state);
  std::vector<uint64_t> actor_seed(spec.num_actors);
  for (uint64_t& s : actor_seed) s = SplitMix64(&state);

  const bool zipf = spec.scenario == "zipf_hot_users";
  const bool crowd = spec.scenario == "flash_crowd";
  std::vector<uint32_t> rank_to_user(spec.num_users);
  std::iota(rank_to_user.begin(), rank_to_user.end(), 0u);
  ZipfSampler zipf_sampler;
  if (zipf) {
    Rng trng(trace_seed);
    trng.Shuffle(&rank_to_user);
    zipf_sampler.Build(spec.num_users, spec.zipf_s);
  }
  // Flash crowd: the second half collapses onto one user-shard's worth
  // of contiguous ids (the cache stripes are keyed by contiguous user
  // ranges, so this is maximal stripe contention and the densest wire
  // batches).
  const size_t crowd_span = std::max<size_t>(1, spec.num_users / 16);

  std::vector<ScenarioEvent> trace;
  trace.reserve(spec.num_actors * spec.events_per_actor);
  for (uint32_t a = 0; a < spec.num_actors; ++a) {
    Rng rng(actor_seed[a]);
    uint64_t vt = rng.UniformInt(200);  // per-actor phase jitter
    for (size_t i = 0; i < spec.events_per_actor; ++i) {
      const bool crowd_phase = crowd && i >= spec.events_per_actor / 2;
      // Virtual inter-arrival: bursty-tight during the crowd, relaxed
      // otherwise. Digested, never slept on (scenario.h).
      vt += crowd_phase ? 20 + rng.UniformInt(100)
                        : 200 + rng.UniformInt(1000);

      ScenarioEvent ev;
      ev.vtime_us = vt;
      ev.actor = a;

      const auto pick_user = [&]() -> uint32_t {
        if (zipf) {
          return rank_to_user[zipf_sampler.Sample(&rng)];
        }
        if (crowd_phase) {
          return static_cast<uint32_t>(rng.UniformInt(crowd_span));
        }
        return static_cast<uint32_t>(rng.UniformInt(spec.num_users));
      };

      const double r = rng.Uniform();
      if (r < spec.invalid_fraction) {
        // Exactly one dimension out of range, so the expected status is
        // unambiguous regardless of the server's validation order.
        ev.kind = ScenarioEventKind::kInvalidRequest;
        ev.hostile = static_cast<uint8_t>(rng.UniformInt(3));
        if (ev.hostile == 0) {
          ev.user = static_cast<uint32_t>(spec.num_users + rng.UniformInt(7));
          ev.k = static_cast<uint32_t>(rng.UniformInt(spec.k + 1));
        } else if (ev.hostile == 1) {
          ev.user = pick_user();
          ev.k = static_cast<uint32_t>(spec.k + 1 + rng.UniformInt(4));
        } else {
          ev.user = pick_user();
          ev.k = static_cast<uint32_t>(rng.UniformInt(spec.k + 1));
          ev.flags = 1u << (1 + rng.UniformInt(3));  // any undefined bit
        }
      } else if (r < spec.invalid_fraction + spec.hostile_fraction) {
        ev.kind = rng.Bernoulli(0.5) ? ScenarioEventKind::kHostileFrame
                                     : ScenarioEventKind::kStreamAbuse;
      } else {
        ev.kind = ScenarioEventKind::kQuery;
        ev.user = pick_user();
        ev.k = rng.Bernoulli(0.3)
                   ? static_cast<uint32_t>(1 + rng.UniformInt(spec.k))
                   : 0u;
        ev.flags = rng.Bernoulli(1.0 / 16.0) ? kTopKFlagBypassCache : 0u;
      }
      trace.push_back(ev);
    }
  }
  return trace;
}

uint64_t DigestTrace(std::span<const ScenarioEvent> trace) {
  uint64_t h = 14695981039346656037ull;
  for (const ScenarioEvent& ev : trace) {
    h = FnvMix(h, ev.vtime_us, 8);
    h = FnvMix(h, ev.actor, 4);
    h = FnvMix(h, static_cast<uint64_t>(ev.kind), 1);
    h = FnvMix(h, ev.hostile, 1);
    h = FnvMix(h, ev.user, 4);
    h = FnvMix(h, ev.k, 4);
    h = FnvMix(h, ev.flags, 4);
  }
  return h;
}

}  // namespace mars
