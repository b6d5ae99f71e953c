// wirebench: the wire-to-wire MARS serving benchmark.
//
// One process brings up the real stack — a trained MARS (dim 32, K = 4) on
// the synthetic multi-facet generator → TopKServer with the ann/ IVF tier →
// NetServer — and drives it with the seeded open-loop generator of
// loadgen.h over loopback connections. The workload chooses the catalog,
// the user mix and which stages run (see METRICS.md):
//
//   setup ×3      data → Fit → index build → unit save → server start →
//                 warm-up; setup_s is the median of the three
//   reference     open loop at the workload's reference rate; on
//                 publish_churn on the churn stack, beside a live trainer
//   ladder        hot_hits, cold_misses: open loop at each ladder rate until
//                 one misses the limit
//   churn tail    traced runs of hot_hits and cold_misses: a short live
//                 trainer stage that feeds the publish-path layer metrics
//   restart       mmap the saved unit, warm from the sidecar, serve two users
//
// Outputs are checked off the clock: wire answers against in-process TopK
// on the same state, churn answers against SnapshotOracle, restart answers
// against the pre-restart server and the built index. The last stdout line
// is the JSON result; --trace 1 also replays the recorded traffic through
// each layer's public calls and reports the per-layer metrics.
//
//   wirebench --workload hot_hits --seed 1 --seconds 10 --trace 0
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ann/candidate_index.h"
#include "ann/index_io.h"
#include "ann/ivf_index.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/mars.h"
#include "core/persistence.h"
#include "data/synthetic.h"
#include "loadgen.h"
#include "net/client.h"
#include "net/server.h"
#include "scenario/invariants.h"
#include "serve/top_k_server.h"
#include "serve/top_k_sidecar.h"
#include "serve/write_tracker.h"
#include "trace.h"

#ifndef WIREBENCH_BUILD_TYPE
#define WIREBENCH_BUILD_TYPE "unknown"
#endif
#ifndef WIREBENCH_CXX_FLAGS
#define WIREBENCH_CXX_FLAGS "unknown"
#endif

namespace {

using namespace mars;
using wirebench::Arrival;
using wirebench::NowNs;

constexpr size_t kK = 10;
constexpr size_t kGenConnections = 2;
wirebench::CpuPlan g_cpus;  // set once in main

/// NetServer::Start with the reactor thread pinned to its CPU.
bool StartPinned(NetServer* net) {
  bool ok = false;
  wirebench::WithCpu(g_cpus.reactor, [&] { ok = net->Start(); });
  return ok;
}
// The catalog and the trained model are part of the system under test and
// fixed; --seed drives the traffic, the samples and the checked subsets.
constexpr uint64_t kDataSeed = 20210419;
constexpr size_t kInteractionsPerUser = 10;
constexpr double kZipfS = 1.0;  // exponent of the hot-set user draw


struct Workload {
  const char* name;
  const char* why;
  size_t users, items, fit_epochs;
  size_t cache_users;
  size_t hot_set;  // 0: uniform over every user; else Zipf(kZipfS) over it
  double ref_qps;
  double ref_share;            // of --seconds spent at the reference rate
  std::vector<double> ladder;  // empty: max_rate_qps is not measured
  double p99_limit_us;
  // publish_churn: the reference rate runs on the churn stack, beside the
  // live trainer. Elsewhere the trainer runs only in a traced run, as a
  // short tail that feeds the publish-path layer metrics.
  bool churn_main;
  size_t churn_steps_per_epoch;  // live-trainer epoch length
  size_t churn_shards;           // write-tracker / refresh shard count
};

// Share of --seconds spent on restart cycles (at least 5, at most 1000).
constexpr double kRestartShare = 0.15;
// Traced runs of hot_hits and cold_misses: the churn tail's length. It
// reads at a quarter of the reference rate.
constexpr size_t kChurnTailEpochs = 16;

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> w = {
      {"hot_hits",
       "Zipf users from a hot set inside the cache on a small catalog: the "
       "net layer and the serve hit path do the work",
       4000, 2000, 5, 1024, 512,
       /*ref*/ 20000, 0.3,
       {300000, 400000, 500000, 600000, 700000, 800000, 1000000}, 1000,
       false, 10000, 64},
      {"cold_misses",
       "uniform users over 20x the cache bound on a 50k-item catalog: every "
       "request probes the IVF and re-ranks exactly",
       20000, 50000, 4, 1000, 0,
       /*ref*/ 400, 0.6, {1400, 1800, 2200, 2600, 3000, 3500, 4000}, 20000,
       false, 200, 4096},
      {"publish_churn",
       "the hot_hits mix served while a live trainer publishes an epoch every "
       "few hundred ms: refresh and rebuild beside the reads",
       4000, 2000, 5, 1024, 512,
       /*ref*/ 5000, 0.7, {}, 0, true, 100000, 64},
  };
  return w;
}

// --------------------------------------------------------------------------
// Small helpers.

double MsSince(int64_t t0) { return (NowNs() - t0) / 1e6; }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // KiB → MiB
}

bool SameAnswer(const TopKResponse& a, const std::vector<ItemId>& items,
                const std::vector<float>& scores) {
  return a.status == TopKStatus::kOk && a.items == items &&
         a.scores.size() == scores.size() &&
         std::memcmp(a.scores.data(), scores.data(),
                     scores.size() * sizeof(float)) == 0;
}

/// Ordered JSON object writer (numbers keep every digit).
class Json {
 public:
  Json& Num(const std::string& k, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    return Raw(k, buf);
  }
  Json& Str(const std::string& k, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    return Raw(k, q + "\"");
  }
  Json& Bool(const std::string& k, bool v) { return Raw(k, v ? "true" : "false"); }
  Json& Obj(const std::string& k, const Json& v) { return Raw(k, v.str()); }
  Json& Raw(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ',';
    body_.append("\"").append(k).append("\":").append(v);
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// One metric as the result line and the results file carry it.
struct Metric {
  std::string name;
  std::string unit;
  double value;
};

// --------------------------------------------------------------------------
// The built stack.

struct Unit {
  std::string model, index, sidecar;
};

struct Stack {
  std::shared_ptr<ImplicitDataset> data;
  std::unique_ptr<Mars> model;             // owned; the churn phase re-fits it
  std::shared_ptr<const Mars> snapshot;    // what the built stack serves
  std::shared_ptr<const CandidateIndex> index;
  std::unique_ptr<TopKServer> server;
  std::unique_ptr<NetServer> net;
  std::vector<UserId> warm_users;  // cached at save time: the sidecar users
  double total_s = 0, gen_s = 0, fit_s = 0, build_s = 0, save_ms = 0,
         start_ms = 0, warm_ms = 0;
};

TopKServerOptions ServeOptions(const Workload& w) {
  TopKServerOptions o;
  o.k = kK;
  o.cache.max_users = w.cache_users;
  o.ann.enable = true;
  return o;
}

std::vector<UserId> HotSet(const Workload& w) {
  // Spread over the id space (and so over cache stripes); fixed per
  // workload, like the catalog.
  Rng rng(kDataSeed + 1);
  std::set<UserId> s;
  while (s.size() < w.hot_set) {
    s.insert(static_cast<UserId>(rng.UniformInt(w.users)));
  }
  std::vector<UserId> v(s.begin(), s.end());
  rng.Shuffle(&v);  // rank order of the Zipf draw
  return v;
}

std::unique_ptr<Stack> BuildStack(const Workload& w, const Unit& unit,
                                  uint64_t seed) {
  auto st = std::make_unique<Stack>();
  const int64_t t_all = NowNs();

  int64_t t = NowNs();
  SyntheticConfig dc;
  dc.num_users = w.users;
  dc.num_items = w.items;
  dc.target_interactions = w.users * kInteractionsPerUser;
  dc.num_facets = 4;
  dc.seed = kDataSeed;
  st->data = GenerateSyntheticDataset(dc);
  st->gen_s = MsSince(t) / 1e3;

  t = NowNs();
  MultiFacetConfig mc;
  mc.dim = 32;
  mc.num_facets = 4;
  st->model = std::make_unique<Mars>(mc);
  TrainOptions to;
  to.epochs = w.fit_epochs;
  to.learning_rate = 0.3;
  to.seed = kDataSeed;
  to.num_threads = 1;  // deterministic: the same model every run
  st->model->Fit(*st->data, to);
  st->fit_s = MsSince(t) / 1e3;
  st->snapshot = st->model->ServingSnapshot();

  t = NowNs();
  {
    ThreadPool pool(4);
    st->index = BuildCandidateIndex(*st->snapshot, w.items, AnnIndexOptions{},
                                    &pool);
  }
  st->build_s = MsSince(t) / 1e3;

  TopKServerOptions so = ServeOptions(w);
  so.ann.prebuilt = st->index;
  st->server = std::make_unique<TopKServer>(st->snapshot, w.users, w.items, so);

  // Warm-up: the hot set, or a seeded sample of the population.
  t = NowNs();
  if (w.hot_set > 0) {
    st->warm_users = HotSet(w);
  } else {
    Rng rng(seed ^ 0x77a3);
    std::set<UserId> s;
    while (s.size() < std::min<size_t>(w.cache_users / 2, w.users)) {
      s.insert(static_cast<UserId>(rng.UniformInt(w.users)));
    }
    st->warm_users.assign(s.begin(), s.end());
  }
  for (UserId u : st->warm_users) st->server->TopK(TopKRequest{.user = u});
  st->warm_ms = MsSince(t);

  t = NowNs();
  const bool saved = SaveMarsV3(*st->snapshot, unit.model) &&
                     SaveCandidateIndex(*st->index, unit.index) &&
                     SaveTopKSidecar(*st->server, unit.sidecar);
  st->save_ms = MsSince(t);
  if (!saved) {
    std::fprintf(stderr, "wirebench: failed to save the restart unit\n");
    std::exit(2);
  }

  t = NowNs();
  st->net = std::make_unique<NetServer>(st->server.get(), NetServerOptions{});
  if (!StartPinned(st->net.get())) {
    std::fprintf(stderr, "wirebench: NetServer failed to start\n");
    std::exit(2);
  }
  st->start_ms = MsSince(t);
  st->total_s = MsSince(t_all) / 1e3;
  return st;
}

// --------------------------------------------------------------------------
// Open-loop phases.

/// A wire answer kept for the off-the-clock checks.
struct Kept {
  size_t index;
  TopKResponse response;
};

struct PhaseResult {
  wirebench::OpenLoopResult run;
  wirebench::LoadSummary summary;
  std::vector<Arrival> schedule;
  NetServerStats net_before, net_after;
  TopKServerStats serve_before, serve_after;
  std::vector<Kept> kept;
};

PhaseResult RunPhase(NetServer* net, const wirebench::UserMix& mix,
                     double qps, double seconds, uint64_t seed,
                     size_t keep_every, bool keep_all = false,
                     double timeout_ms = 1000.0) {
  PhaseResult p;
  p.schedule = wirebench::PoissonSchedule(qps, seconds, mix, seed);
  wirebench::OpenLoopOptions o;
  o.port = net->port();
  o.connections = kGenConnections;
  o.cpu = g_cpus.generator;
  o.timeout_ms = timeout_ms;
  p.kept.reserve(keep_all ? p.schedule.size() : p.schedule.size() / keep_every + 1);
  // Only while traffic runs: a thread forked onto the keeper's CPU (a
  // restart's reactor) would wait up to a scheduler tick for its first run.
  const wirebench::IdleKeeper keeper(g_cpus.reactor);
  p.net_before = net->stats();
  p.serve_before = net->top_k().stats();
  p.run = wirebench::RunOpenLoop(
      p.schedule, o, [&](size_t i, const WireResponse& r) {
        if (keep_all || i % keep_every == 0) p.kept.push_back({i, r.response});
      });
  p.net_after = net->stats();
  p.serve_after = net->top_k().stats();
  p.summary = wirebench::Summarize(p.run);
  return p;
}

struct LadderResult {
  double max_rate_qps = 0;  // median over the passes
  bool saturated = false;   // some pass met the limit on every rung it ran
  std::vector<double> pass_max_qps;
  std::vector<std::pair<double, wirebench::LoadSummary>> rungs;
};

using wirebench::kLagLimitUs;

bool RungMeets(const wirebench::LoadSummary& s, double limit_us) {
  return s.failed == 0 && s.tail_us <= limit_us && s.lag_p99_us <= kLagLimitUs;
}

constexpr size_t kLadderPasses = 3;

/// Walks the ladder kLadderPasses times and reports the median pass: host
/// speed drifts over seconds here, and the passes sample it apart. Later
/// passes start at the highest rung at or below 0.7x the first pass's
/// result (from the bottom again if that rung misses). A missed rung is
/// measured once more, with fresh arrivals, and the better reading stands:
/// a lone host stall is not the knee.
LadderResult RunLadder(NetServer* net, const wirebench::UserMix& mix,
                       const Workload& w, double rung_s, uint64_t seed) {
  LadderResult lr;
  auto measure = [&](size_t i, uint64_t rung_seed) {
    wirebench::LoadSummary s =
        RunPhase(net, mix, w.ladder[i], rung_s, rung_seed, 1u << 30).summary;
    if (!RungMeets(s, w.p99_limit_us)) {
      lr.rungs.emplace_back(w.ladder[i], s);
      const wirebench::LoadSummary again =
          RunPhase(net, mix, w.ladder[i], rung_s, rung_seed + 7, 1u << 30).summary;
      if (RungMeets(again, w.p99_limit_us) ||
          (again.failed == 0 && again.tail_us < s.tail_us)) {
        s = again;
      }
    }
    lr.rungs.emplace_back(w.ladder[i], s);
    return s;
  };
  size_t first = 0;
  for (size_t pass = 0; pass < kLadderPasses; ++pass) {
    double lo_rate = 0, lo_p99 = 0, pass_max = 0;
    bool saturated = false;
    for (size_t i = first; i < w.ladder.size(); ++i) {
      const wirebench::LoadSummary summary =
          measure(i, seed + 1009 * pass + 101 * i);
      if (RungMeets(summary, w.p99_limit_us)) {
        lo_rate = w.ladder[i];
        lo_p99 = summary.tail_us;
        pass_max = lo_rate;
        saturated = i + 1 == w.ladder.size();
        continue;
      }
      if (i > 0 && i == first) {  // started too high: walk from the bottom
        first = 0;
        i = static_cast<size_t>(-1);
        continue;
      }
      // Interpolate linearly in p99 between the bracketing rungs; a failed
      // or lagging rung counts as infinitely late.
      const double hi_p99 =
          summary.failed > 0 || summary.lag_p99_us > kLagLimitUs
              ? INFINITY
              : summary.tail_us;
      const double frac = std::isfinite(hi_p99) && hi_p99 > lo_p99
                              ? (w.p99_limit_us - lo_p99) / (hi_p99 - lo_p99)
                              : 0.0;
      pass_max = lo_rate + (w.ladder[i] - lo_rate) * std::clamp(frac, 0.0, 1.0);
      break;
    }
    lr.pass_max_qps.push_back(pass_max);
    lr.saturated = lr.saturated || saturated;
    if (pass == 0) {
      first = 0;
      while (first + 1 < w.ladder.size() &&
             w.ladder[first + 1] <= 0.7 * pass_max) {
        ++first;
      }
    }
  }
  lr.max_rate_qps = wirebench::Median(lr.pass_max_qps);
  return lr;
}

// --------------------------------------------------------------------------
// Checks.

struct CheckTally {
  size_t checked = 0;
  size_t mismatched = 0;
  std::map<std::string, std::pair<size_t, size_t>> by_check;  // checked, bad
  void Add(const char* check, bool ok) {
    ++checked;
    auto& c = by_check[check];
    ++c.first;
    if (!ok) {
      ++mismatched;
      ++c.second;
    }
  }
};

/// Wire answers vs in-process TopK against the same state: a fresh server
/// over the same snapshot and the same index (so no cache is involved).
void CheckAgainstInProcess(const std::vector<Kept>& kept,
                           const std::vector<Arrival>& schedule,
                           std::shared_ptr<const ItemScorer> model,
                           std::shared_ptr<const CandidateIndex> index,
                           const Workload& w, CheckTally* tally) {
  TopKServerOptions o = ServeOptions(w);
  o.ann.prebuilt = std::move(index);
  TopKServer ref(std::move(model), w.users, w.items, o);
  for (const Kept& k : kept) {
    const TopKResponse r = ref.TopK(schedule[k.index].request);
    tally->Add("wire_vs_in_process", SameAnswer(r, k.response.items, k.response.scores));
  }
}

/// The snapshot a wire answer stamped with `epoch` was served from, or
/// nullptr for an epoch that was never published.
using SnapshotOf = std::function<std::shared_ptr<const ItemScorer>(uint64_t epoch)>;

/// recall@10 of served answers against the exact top-10 of the snapshot
/// each answer was served from, over the first `max_users` distinct users.
double Recall(const std::vector<Kept>& kept, const std::vector<Arrival>& schedule,
              const SnapshotOf& snapshot_of, const Workload& w, size_t max_users) {
  TopKServerOptions o;
  o.k = kK;
  o.cache.max_users = 1;
  std::map<uint64_t, std::unique_ptr<TopKServer>> exact;  // by epoch
  std::set<UserId> seen;
  double sum = 0;
  size_t n = 0;
  for (const Kept& k : kept) {
    const UserId u = schedule[k.index].request.user;
    if (!seen.insert(u).second) continue;
    std::unique_ptr<TopKServer>& ex = exact[k.response.epoch];
    if (ex == nullptr) {
      std::shared_ptr<const ItemScorer> model = snapshot_of(k.response.epoch);
      if (model == nullptr) continue;  // the oracle counts it as a mismatch
      ex = std::make_unique<TopKServer>(std::move(model), w.users, w.items, o);
    }
    const TopKResponse e = ex->TopK(TopKRequest{.user = u});
    size_t hit = 0;
    for (ItemId v : k.response.items) {
      hit += std::count(e.items.begin(), e.items.end(), v) > 0 ? 1 : 0;
    }
    sum += static_cast<double>(hit) / std::max<size_t>(1, e.items.size());
    if (++n == max_users) break;
  }
  return n == 0 ? 0.0 : sum / n;
}

// --------------------------------------------------------------------------
// Churn: a live trainer publishing epochs beside the wire.

struct EpochRec {
  uint64_t epoch;
  int64_t entry_ns, snap_end_ns, pub_end_ns;
  std::shared_ptr<const Mars> snapshot;  // the oracle holds it too
  std::vector<size_t> dirty_items;
};

struct ChurnResult {
  std::vector<EpochRec> epochs;
  double steps_per_s = 0;
  double epoch_visible_ms = 0;
  size_t epochs_visible = 0;
  double rtt_p99_during_publish_us = 0;
  double recall = 0;  // of the reference answers (publish_churn)
  TopKServerStats serve_before, serve_after;
  std::optional<PhaseResult> ref;  // publish_churn: the reference run
  std::vector<PhaseResult> tails;  // the reads until the trainer stops
  std::shared_ptr<const CandidateIndex> last_index;
};

ChurnResult RunChurn(Stack* st, const Workload& w, const wirebench::UserMix& mix,
                     double ref_s, uint64_t seed, CheckTally* tally, bool trace) {
  ChurnResult cr;
  // Full probe: ANN ≡ exact, so every answer is checkable bit for bit
  // against SnapshotOracle's exact rankings.
  const auto* ivf = dynamic_cast<const SphericalIvfIndex*>(st->index.get());
  TopKServerOptions so = ServeOptions(w);
  so.ann.prebuilt = ivf->CloneWithNprobe(ivf->num_centroids());
  so.ann.index.nprobe = ivf->num_centroids();  // from-scratch rebuilds too
  so.cache.item_shards = w.churn_shards;
  std::shared_ptr<const Mars> epoch0 = st->snapshot;
  SnapshotOracle oracle(w.users, w.items, kK);
  oracle.Register(0, 0, epoch0);
  TopKServer live(epoch0, w.users, w.items, so);
  // Churn traffic reads a warm set: the hot set, or for a uniform mix the
  // first 32 sidecar users. Every cached entry costs a full-probe refresh
  // per publish, so a fixed set keeps the publish work the same per run.
  const std::vector<UserId> churn_users =
      w.hot_set > 0 ? st->warm_users
                    : std::vector<UserId>(st->warm_users.begin(),
                                          st->warm_users.begin() + 32);
  const wirebench::UserMix tail_mix =
      w.hot_set > 0 ? mix : wirebench::UserMix::Zipf(churn_users, 0.0);
  for (UserId u : churn_users) live.TopK(TopKRequest{.user = u});
  NetServer net(&live, NetServerOptions{});
  if (!StartPinned(&net)) {
    std::fprintf(stderr, "wirebench: churn NetServer failed to start\n");
    std::exit(2);
  }

  // A churn tail trains a fixed number of epochs. publish_churn trains
  // until its reference run is done instead: Fit gets an epoch budget it
  // never reaches, and the callback ends training at the first epoch
  // boundary after the stop request (Fit has no other way to stop early).
  struct StopTraining {};
  std::atomic<bool> stop{false};
  const size_t epochs = w.churn_main ? size_t{1} << 30 : kChurnTailEpochs;
  WriteTracker tracker(w.users, w.items, w.churn_shards);
  std::atomic<size_t> published{0};
  TrainOptions to;
  to.epochs = epochs;
  to.steps_per_epoch = w.churn_steps_per_epoch;
  to.learning_rate = 0.3;
  to.seed = kDataSeed + 3;
  to.num_threads = 1;
  to.write_tracker = &tracker;
  // Runs on the trainer thread; cr.epochs is read after the join.
  to.epoch_callback = [&](size_t) {
    if (stop.load()) throw StopTraining{};
    EpochRec rec;
    rec.entry_ns = NowNs();
    std::shared_ptr<const Mars> snap = st->model->ServingSnapshot();
    rec.snap_end_ns = NowNs();
    rec.epoch = published.load() + 1;
    rec.snapshot = snap;
    if (trace) {
      for (size_t s = 0; s < tracker.num_item_shards(); ++s) {
        if (tracker.ItemShardDirty(s)) rec.dirty_items.push_back(s);
      }
    }
    oracle.Register(0, rec.epoch, snap);  // before it is published
    // Fit re-initialises every row before its first epoch without marking
    // the tracker, so the first publish of this run is an unknown delta.
    if (rec.epoch == 1) {
      tracker.MarkAllUsers();
      tracker.MarkAllItems();
    }
    live.PublishEpoch(snap, &tracker);
    rec.pub_end_ns = NowNs();
    cr.epochs.push_back(std::move(rec));
    published.store(published.load() + 1);
  };
  cr.serve_before = live.stats();
  std::thread trainer([&] {
    try {
      st->model->Fit(*st->data, to);
    } catch (const StopTraining&) {
    }
    stop.store(true);
  });
  auto trainer_running = [&] { return !stop.load(); };
  // Traffic starts once the trainer is past its initialisation.
  while (published.load() == 0 && trainer_running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  uint64_t phase_seed = seed * 7919 + 17;
  if (w.churn_main) {
    cr.ref = RunPhase(&net, mix, w.ref_qps, ref_s, phase_seed++, 1,
                      /*keep_all=*/true);
    stop.store(true);
  }
  // Keep the reads going until the trainer is done, in slices.
  while (trainer_running()) {
    // A publish that drops every entry stalls the full-probe misses behind
    // it for up to seconds on the big catalog: these reads wait it out.
    cr.tails.push_back(RunPhase(&net, tail_mix, w.ref_qps / 4, 0.25, phase_seed++,
                                1, /*keep_all=*/true, /*timeout_ms=*/10000.0));
  }
  trainer.join();
  cr.serve_after = live.stats();
  net.Stop();
  cr.last_index = live.AnnIndexSnapshot();

  // Steps per second of each epoch after the first (its steps plus its
  // callback, from one callback exit to the next); the median over epochs.
  std::vector<double> rates;
  for (size_t e = 1; e < cr.epochs.size(); ++e) {
    const double dt =
        (cr.epochs[e].pub_end_ns - cr.epochs[e - 1].pub_end_ns) / 1e9;
    rates.push_back(w.churn_steps_per_epoch / dt);
  }
  cr.steps_per_s = wirebench::Median(rates);

  // Every kept answer is checked; visibility and publish-overlap latency
  // come from every churn-time request.
  std::map<uint64_t, int64_t> first_seen;  // epoch → absolute receive time
  std::vector<double> during;
  auto visit = [&](const PhaseResult& p) {
    for (const Kept& k : p.kept) {
      const bool okc = oracle.Check(0, p.schedule[k.index].request.user,
                                    k.response.epoch, 0, k.response.items,
                                    k.response.scores);
      tally->Add("churn_snapshot_oracle", okc);
    }
    for (const auto& r : p.run.records) {
      if (r.outcome != wirebench::Outcome::kOk) continue;
      const int64_t done = p.run.origin_ns + r.done_ns;
      auto [it, fresh] = first_seen.emplace(r.epoch, done);
      if (!fresh) it->second = std::min(it->second, done);
      const int64_t sched = p.run.origin_ns + r.sched_ns;
      for (const EpochRec& e : cr.epochs) {
        if (sched <= e.pub_end_ns && done >= e.entry_ns) {
          during.push_back((r.done_ns - r.sched_ns) / 1e3);
          break;
        }
      }
    }
  };
  if (cr.ref) visit(*cr.ref);
  for (const PhaseResult& p : cr.tails) visit(p);
  // Epoch 1 publishes the re-fit's unknown delta (everything dirty), not a
  // steady-state epoch: visibility is the median over the later ones.
  std::vector<double> vis;
  for (const EpochRec& e : cr.epochs) {
    if (e.epoch == 1) continue;
    auto it = first_seen.find(e.epoch);
    if (it != first_seen.end()) vis.push_back((it->second - e.entry_ns) / 1e6);
  }
  cr.epochs_visible = vis.size();
  cr.epoch_visible_ms = wirebench::Median(vis);
  cr.rtt_p99_during_publish_us =
      wirebench::Percentile(&during, wirebench::TailPercentile(during.size()));

  if (cr.ref) {
    std::map<uint64_t, std::shared_ptr<const ItemScorer>> snapshots{{0, epoch0}};
    for (const EpochRec& e : cr.epochs) snapshots[e.epoch] = e.snapshot;
    cr.recall = Recall(
        cr.ref->kept, cr.ref->schedule,
        [&](uint64_t epoch) -> std::shared_ptr<const ItemScorer> {
          auto it = snapshots.find(epoch);
          return it == snapshots.end() ? nullptr : it->second;
        },
        w, 200);
  }
  return cr;
}

// --------------------------------------------------------------------------
// Restart cycles.

struct RestartResult {
  std::vector<double> first_hit_ms, first_miss_ms, map_model_ms, map_index_ms,
      construct_ms, warm_ms, start_ms;
  size_t attempted = 0, failed = 0;
};

RestartResult RunRestarts(const Stack& st, const Unit& unit, const Workload& w,
                          double seconds, uint64_t seed, CheckTally* tally,
                          wirebench::SpanLog* spans) {
  RestartResult rr;
  // Expected answers: the pre-restart server for sidecar users (they are
  // cached there) and the built index, fresh, for everyone else.
  std::set<UserId> warm(st.warm_users.begin(), st.warm_users.end());
  TopKServerOptions ro = ServeOptions(w);
  ro.ann.prebuilt = st.index;
  TopKServer built(st.snapshot, w.users, w.items, ro);
  Rng rng(seed * 31 + 7);
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  size_t cycle = 0;
  while (cycle < 5 || NowNs() < deadline) {
    if (cycle >= 1000) break;
    const UserId hit_user = st.warm_users[rng.UniformInt(st.warm_users.size())];
    UserId miss_user = 0;
    do {
      miss_user = static_cast<UserId>(rng.UniformInt(w.users));
    } while (warm.count(miss_user) > 0);
    const TopKResponse want_hit = st.server->TopK(TopKRequest{.user = hit_user});
    const TopKResponse want_miss = built.TopK(TopKRequest{.user = miss_user});

    const int64_t t0 = NowNs();
    std::shared_ptr<const Mars> mapped = LoadMarsMapped(unit.model);
    const int64_t t1 = NowNs();
    std::shared_ptr<const CandidateIndex> index =
        mapped ? LoadCandidateIndexMapped(unit.index, *mapped, w.items) : nullptr;
    const int64_t t2 = NowNs();
    if (mapped == nullptr || index == nullptr) {
      std::fprintf(stderr, "wirebench: restart unit failed to map\n");
      std::exit(2);
    }
    TopKServerOptions so = ServeOptions(w);
    so.ann.prebuilt = index;
    auto server = std::make_unique<TopKServer>(mapped, w.users, w.items, so);
    const int64_t t3 = NowNs();
    WarmFromSidecar(server.get(), unit.sidecar);
    const int64_t t4 = NowNs();
    auto net = std::make_unique<NetServer>(server.get(), NetServerOptions{});
    const bool started = StartPinned(net.get());
    const int64_t t5 = NowNs();
    NetClient client;
    WireResponse hit, miss;
    const bool ok_hit = started && client.Connect("127.0.0.1", net->port()) &&
                        client.TopK(TopKRequest{.user = hit_user}, &hit);
    const int64_t t6 = NowNs();
    const bool ok_miss = ok_hit && client.TopK(TopKRequest{.user = miss_user}, &miss);
    const int64_t t7 = NowNs();
    client.Close();

    rr.map_model_ms.push_back((t1 - t0) / 1e6);
    rr.map_index_ms.push_back((t2 - t1) / 1e6);
    rr.construct_ms.push_back((t3 - t2) / 1e6);
    rr.warm_ms.push_back((t4 - t3) / 1e6);
    rr.start_ms.push_back((t5 - t4) / 1e6);
    rr.first_hit_ms.push_back((t6 - t0) / 1e6);
    rr.first_miss_ms.push_back((t7 - t0) / 1e6);
    if (spans->enabled()) {
      const int64_t root = spans->Add("restart.cycle", t0, t7, -1, cycle + 1);
      spans->Add("core.LoadMarsMapped", t0, t1, root, cycle + 1);
      spans->Add("ann.LoadCandidateIndexMapped", t1, t2, root, cycle + 1);
      spans->Add("serve.TopKServer", t2, t3, root, cycle + 1);
      spans->Add("serve.WarmFromSidecar", t3, t4, root, cycle + 1);
      spans->Add("net.Start", t4, t5, root, cycle + 1);
      spans->Add("wire.first_hit", t5, t6, root, cycle + 1);
      spans->Add("wire.first_miss", t6, t7, root, cycle + 1);
    }
    rr.attempted += 2;
    const bool good_hit = ok_hit && hit.status == WireStatus::kOk &&
                          hit.response.from_cache &&
                          SameAnswer(want_hit, hit.response.items, hit.response.scores);
    const bool good_miss = ok_miss && miss.status == WireStatus::kOk &&
                           SameAnswer(want_miss, miss.response.items,
                                      miss.response.scores);
    rr.failed += (good_hit ? 0 : 1) + (good_miss ? 0 : 1);
    tally->Add("restart_first_hit", good_hit);
    tally->Add("restart_first_miss", good_miss);
    ++cycle;
  }
  return rr;
}

// --------------------------------------------------------------------------
// The traced run's in-process layer replays.

struct LayerTimes {
  double codec_us = 0, hit_p50_us = 0, hit_p99_us = 0, replay_p50_us = 0,
         miss_us_per_user = 0, probe_us_per_query = 0,
         candidates_per_query = 0, rerank_us_per_query = 0, sweep_us = 0,
         sweep_multi_us_per_user = 0, rebuilt_ms = 0;
};

LayerTimes ReplayLayers(const PhaseResult& ref, TopKServer* server,
                        const ItemScorer& model, const Workload& w,
                        size_t batch, uint64_t seed,
                        const std::vector<EpochRec>& churn_epochs,
                        const CandidateIndex* churn_index,
                        wirebench::SpanLog* spans) {
  LayerTimes lt;
  const size_t n = std::min<size_t>(ref.schedule.size(), 20000);

  // net: the codec round on the recorded traffic.
  {
    std::vector<uint8_t> buf;
    FrameDecoder dec;
    Frame f;
    WireRequest wreq;
    WireResponse wresp;
    std::vector<TopKResponse> answers;
    for (const Kept& k : ref.kept) answers.push_back(k.response);
    if (answers.empty()) answers.emplace_back();
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < n; ++i) {
      buf.clear();
      EncodeTopKRequest(i + 1, ref.schedule[i].request, &buf);
      dec.Append(buf.data(), buf.size());
      dec.Next(&f);
      DecodeTopKRequestPayload(f.payload, &wreq);
      buf.clear();
      EncodeTopKResponse(wreq.request_id, answers[i % answers.size()], &buf);
      dec.Append(buf.data(), buf.size());
      dec.Next(&f);
      DecodeTopKResponsePayload(f.payload, &wresp);
    }
    const int64_t t1 = NowNs();
    spans->Add("net.codec_replay", t0, t1);
    lt.codec_us = n == 0 ? 0 : (t1 - t0) / 1e3 / n;
  }

  // serve: in-process TopK replay of the same request stream.
  {
    std::vector<double> all, hits;
    for (size_t i = 0; i < n; ++i) {
      const int64_t t0 = NowNs();
      const TopKResponse r = server->TopK(ref.schedule[i].request);
      const int64_t t1 = NowNs();
      if (i < 2000) spans->Add("serve.TopK", t0, t1, -1, i + 1);
      all.push_back((t1 - t0) / 1e3);
      if (r.from_cache) hits.push_back((t1 - t0) / 1e3);
    }
    lt.replay_p50_us = wirebench::Median(all);
    lt.hit_p50_us = wirebench::Percentile(&hits, 50);
    lt.hit_p99_us = wirebench::Percentile(&hits, wirebench::TailPercentile(hits.size()));
  }

  // Seeded distinct users for the miss-path replays.
  Rng rng(seed * 13 + 5);
  const size_t b = std::max<size_t>(1, batch);
  const size_t rounds = w.items >= 20000 ? 24 : 200;
  std::vector<std::vector<UserId>> groups(rounds);
  for (auto& g : groups) {
    for (size_t j = 0; j < b; ++j) g.push_back(static_cast<UserId>(rng.UniformInt(w.users)));
  }

  // serve: TopKBatch of cache-bypassing requests at the observed batch size.
  {
    std::vector<double> per_user;
    for (const auto& g : groups) {
      std::vector<TopKRequest> reqs;
      for (UserId u : g) reqs.push_back({.user = u, .k = 0, .flags = kTopKFlagBypassCache});
      const int64_t t0 = NowNs();
      server->TopKBatch(reqs);
      const int64_t t1 = NowNs();
      spans->Add("serve.TopKBatch", t0, t1);
      per_user.push_back((t1 - t0) / 1e3 / g.size());
    }
    lt.miss_us_per_user = wirebench::Median(per_user);
  }

  // ann + models: ProbeBatch, then the exact re-rank of the candidates.
  const std::shared_ptr<const CandidateIndex> index = server->AnnIndexSnapshot();
  if (index != nullptr) {
    const size_t dim = index->dim();
    const size_t want = kK * AnnIndexOptions{}.overfetch;
    std::vector<double> probe, rerank;
    double cands = 0;
    size_t queries = 0;
    for (const auto& g : groups) {
      std::vector<float> q(g.size() * dim);
      for (size_t j = 0; j < g.size(); ++j) model.WriteIndexQuery(g[j], q.data() + j * dim);
      std::vector<size_t> wants(g.size(), want);
      std::vector<std::vector<ItemId>> out(g.size());
      const int64_t t0 = NowNs();
      index->ProbeBatch(q.data(), g.size(), wants.data(), &out);
      const int64_t t1 = NowNs();
      probe.push_back((t1 - t0) / 1e3 / g.size());
      const int64_t pid = spans->Add("ann.ProbeBatch", t0, t1);
      for (size_t j = 0; j < g.size(); ++j) {
        std::vector<float> scores(out[j].size());
        const int64_t r0 = NowNs();
        model.ScoreItems(g[j], out[j], scores.data());
        const int64_t r1 = NowNs();
        spans->Add("models.ScoreItems", r0, r1, pid);
        rerank.push_back((r1 - r0) / 1e3);
        cands += out[j].size();
        ++queries;
      }
    }
    lt.probe_us_per_query = wirebench::Median(probe);
    lt.rerank_us_per_query = wirebench::Median(rerank);
    lt.candidates_per_query = queries == 0 ? 0 : cands / queries;
  }

  // models: the exact-fallback sweep, solo and multi-user.
  {
    std::vector<float> scores(w.items * b);
    std::vector<float*> rows(b);
    for (size_t j = 0; j < b; ++j) rows[j] = scores.data() + j * w.items;
    std::vector<double> solo, multi;
    const size_t sweeps = std::min<size_t>(groups.size(), 12);
    for (size_t r = 0; r < sweeps; ++r) {
      const int64_t t0 = NowNs();
      model.ScoreItemRange(groups[r][0], 0, static_cast<ItemId>(w.items), rows[0]);
      const int64_t t1 = NowNs();
      model.ScoreItemRangeMulti(groups[r], 0, static_cast<ItemId>(w.items), rows.data());
      const int64_t t2 = NowNs();
      spans->Add("models.ScoreItemRange", t0, t1);
      spans->Add("models.ScoreItemRangeMulti", t1, t2);
      solo.push_back((t1 - t0) / 1e3);
      multi.push_back((t2 - t1) / 1e3 / b);
    }
    lt.sweep_us = wirebench::Median(solo);
    lt.sweep_multi_us_per_user = wirebench::Median(multi);
  }

  // ann: Rebuilt on each churn epoch's dirty item shards.
  if (churn_index != nullptr && !churn_epochs.empty()) {
    std::vector<double> ms;
    for (const EpochRec& e : churn_epochs) {
      if (e.dirty_items.empty()) continue;
      const int64_t t0 = NowNs();
      auto rebuilt = churn_index->Rebuilt(model, e.dirty_items, w.churn_shards,
                                          nullptr);
      const int64_t t1 = NowNs();
      spans->Add("ann.Rebuilt", t0, t1);
      ms.push_back((t1 - t0) / 1e6);
      if (ms.size() >= 5) break;
    }
    lt.rebuilt_ms = wirebench::Median(ms);
  }
  return lt;
}

// --------------------------------------------------------------------------

/// The reference run's per-request spans: the request from its scheduled
/// time to its answer, with the generator's lag and the wire round trip
/// from the actual send as children. Recorded after the run, off the clock.
void AddRequestSpans(const PhaseResult& p, wirebench::SpanLog* spans) {
  const int64_t o = p.run.origin_ns;
  for (size_t i = 0; i < p.run.records.size(); ++i) {
    const wirebench::RequestRecord& r = p.run.records[i];
    const int64_t root = spans->Add("gen.request", o + r.sched_ns,
                                    o + std::max(r.done_ns, r.sched_ns),
                                    wirebench::SpanLog::kNoParent, i + 1);
    if (r.sent_ns < 0) continue;
    spans->Add("gen.lag", o + r.sched_ns, o + r.sent_ns, root, i + 1);
    if (r.done_ns >= 0) {
      spans->Add("wire.rtt_from_send", o + r.sent_ns, o + r.done_ns, root, i + 1);
    }
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".bench_build/wirebench";
  std::string git_sha = "unknown";
  std::string git_dirty = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a->trace = std::atoi(v.c_str());
    else if (k == "--out-dir") a->out_dir = v;
    else if (k == "--git-sha") a->git_sha = v;
    else if (k == "--git-dirty") a->git_dirty = v;
    else return false;
  }
  return !a->workload.empty() && a->seconds > 0 && (argc % 2 == 1);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: wirebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  const Workload* wp = nullptr;
  for (const Workload& w : Workloads()) {
    if (args.workload == w.name) wp = &w;
  }
  if (wp == nullptr) {
    std::fprintf(stderr, "wirebench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *wp;
  const bool trace = args.trace != 0;
  g_cpus = wirebench::PlanCpus();
  wirebench::SpanLog spans(trace);

  ::mkdir(args.out_dir.c_str(), 0755);
  const std::string run_tag = w.name + std::string("-s") + std::to_string(args.seed) +
                              "-t" + std::to_string(args.trace) + "-p" +
                              std::to_string(::getpid());
  const std::string unit_dir = args.out_dir + "/unit-" + run_tag;
  ::mkdir(unit_dir.c_str(), 0755);
  const Unit unit{unit_dir + "/model.v3", unit_dir + "/index.annidx",
                  unit_dir + "/topk.sidecar"};
  auto cleanup_unit = [&] {
    std::remove(unit.model.c_str());
    std::remove(unit.index.c_str());
    std::remove(unit.sidecar.c_str());
    ::rmdir(unit_dir.c_str());
  };

  const double S = args.seconds;
  CheckTally tally;
  // Wall time of each stage of the run, for the results file.
  std::vector<std::pair<std::string, double>> stage_s;
  int64_t stage_t0 = NowNs();
  auto stage_done = [&](const char* name) {
    stage_s.emplace_back(name, MsSince(stage_t0) / 1e3);
    stage_t0 = NowNs();
  };

  // ---- setup ×3 ---------------------------------------------------------
  std::vector<double> setup_times;
  std::unique_ptr<Stack> st;
  for (int i = 0; i < 3; ++i) {
    st.reset();
    st = BuildStack(w, unit, args.seed);
    setup_times.push_back(st->total_s);
  }
  const double setup_s = wirebench::Median(setup_times);
  // Peak RSS through the three set-ups: the served stack's footprint. Later
  // stages add buffers and snapshots whose size follows the host's speed
  // (how far the ladder climbs, how many epochs the trainer publishes).
  const double setup_rss_mb = PeakRssMb();
  stage_done("setup");
  std::printf("setup: %.3f s median of 3 (gen %.3f s, fit %.3f s, index %.3f s, "
              "save %.1f ms, start %.2f ms, warm %.1f ms)\n",
              setup_s, st->gen_s, st->fit_s, st->build_s, st->save_ms,
              st->start_ms, st->warm_ms);

  const wirebench::UserMix mix = w.hot_set > 0
                                     ? wirebench::UserMix::Zipf(HotSet(w), kZipfS)
                                     : wirebench::UserMix::Uniform(w.users);
  const double ref_s = w.ref_share * S;
  // Keep ~400 reference answers for the output checks and recall.
  const size_t keep_every =
      std::max<size_t>(1, static_cast<size_t>(w.ref_qps * ref_s / 400));
  const double rung_s = 0.05 * S;
  const uint64_t phase_seed = args.seed * 1000003ULL;
  const std::string backend = st->net->backend_name();

  // ---- main stage: reference rate + ladder on the built stack ------------
  std::optional<PhaseResult> ref;
  std::optional<LadderResult> ladder;
  double recall = 0;
  if (!w.churn_main) {
    ref = RunPhase(st->net.get(), mix, w.ref_qps, ref_s, phase_seed, keep_every);
    ladder = RunLadder(st->net.get(), mix, w, rung_s, phase_seed + 1);
  }
  st->net->Stop();
  stage_done("main");
  if (ref) {
    // Wire answers vs in-process, and recall, for the reference sample.
    CheckAgainstInProcess(ref->kept, ref->schedule, st->snapshot, st->index, w,
                          &tally);
    const std::shared_ptr<const ItemScorer> served = st->snapshot;
    recall = Recall(ref->kept, ref->schedule, [&](uint64_t) { return served; },
                    w, 200);
    stage_done("checks");
  }

  // ---- churn: publish_churn's main stage, or a traced run's tail ----------
  ChurnResult churn;
  if (w.churn_main || trace) {
    churn = RunChurn(st.get(), w, mix, ref_s, args.seed, &tally, trace);
    stage_done("churn");
  }
  if (w.churn_main) {
    ref = std::move(churn.ref);
    recall = churn.recall;
  }
  if (trace && ref) AddRequestSpans(*ref, &spans);

  // ---- restart cycles ------------------------------------------------------
  const RestartResult restarts =
      RunRestarts(*st, unit, w, kRestartShare * S, args.seed, &tally, &spans);
  stage_done("restart");

  // Per-layer replays (traced run) against the main-stage stack.
  LayerTimes layers;
  const double wire_batch =
      ref ? Ratio(ref->net_after.requests_served - ref->net_before.requests_served,
                  ref->net_after.wire_batches - ref->net_before.wire_batches)
          : 1.0;
  if (trace && ref) {
    layers = ReplayLayers(*ref, st->server.get(), *st->snapshot, w,
                          static_cast<size_t>(std::lround(std::max(1.0, wire_batch))),
                          args.seed, churn.epochs, churn.last_index.get(), &spans);
    stage_done("replay");
  }
  cleanup_unit();

  // ---- results ------------------------------------------------------------
  if (!ref) {
    std::fprintf(stderr, "wirebench: no reference phase ran\n");
    return 1;
  }
  const wirebench::LoadSummary& rs = ref->summary;
  // attempted/failed: every wire request of every phase plus the restart
  // queries; a mismatch found by the checks is a failure too. Ladder rungs
  // above the knee fail by design: they count as attempted only.
  size_t attempted = rs.attempted + restarts.attempted;
  size_t failed = rs.failed + restarts.failed;
  if (ladder) {
    for (const auto& [rate, s] : ladder->rungs) {
      (void)rate;
      attempted += s.attempted;
    }
  }
  for (const PhaseResult& p : churn.tails) {
    attempted += p.summary.attempted;
    failed += p.summary.failed;
  }
  failed += tally.mismatched;
  const double failed_share =
      Ratio(rs.failed + tally.mismatched, rs.attempted);
  const bool correct = tally.mismatched == 0 && rs.failed == 0 &&
                       restarts.failed == 0 && tally.checked > 0;

  // Every end-to-end metric is printed and stored; the gated ones (every
  // workload measures them, and their run-to-run spread stays inside their
  // bound) also go into the result line (METRICS.md, "Steadiness"). NaN: the
  // workload has no stage that measures the metric.
  const double kNotMeasured = std::nan("");
  const bool churned = !churn.epochs.empty();
  struct EndToEnd {
    Metric metric;
    bool gated;
  };
  const std::vector<EndToEnd> end_to_end = {
      {{"rtt_p50_us", "us", rs.window_p50_us}, false},
      {{"rtt_p99_us", "us", rs.window_tail_us}, false},
      {{"max_rate_qps", "req/s", ladder ? ladder->max_rate_qps : kNotMeasured},
       false},
      {{"recall_at_10", "ratio", recall}, true},
      {{"epoch_visible_ms", "ms", churned ? churn.epoch_visible_ms : kNotMeasured},
       false},
      {{"train_steps_per_s", "steps/s", churned ? churn.steps_per_s : kNotMeasured},
       false},
      {{"restart_first_hit_ms", "ms", wirebench::Median(restarts.first_hit_ms)},
       true},
      {{"restart_first_miss_ms", "ms", wirebench::Median(restarts.first_miss_ms)},
       true},
      {{"setup_s", "s", setup_s}, true},
      {{"peak_rss_mb", "MiB", setup_rss_mb}, true},
      {{"failed_share", "ratio", failed_share}, false},
  };
  std::vector<Metric> gated;
  for (const EndToEnd& e : end_to_end) {
    if (e.gated) gated.push_back(e.metric);
  }

  const NetServerStats& nb = ref->net_before;
  const NetServerStats& na = ref->net_after;
  const TopKServerStats& sb = ref->serve_before;
  const TopKServerStats& sa = ref->serve_after;
  const double reqs = static_cast<double>(na.requests_served - nb.requests_served);
  const double misses = static_cast<double>(sa.misses - sb.misses);
  const double publishes = static_cast<double>(churn.epochs.size());
  std::vector<double> pub_ms, snap_ms;
  for (const EpochRec& e : churn.epochs) {
    pub_ms.push_back((e.pub_end_ns - e.snap_end_ns) / 1e6);
    snap_ms.push_back((e.snap_end_ns - e.entry_ns) / 1e6);
  }
  const TopKServerStats& cb = churn.serve_before;
  const TopKServerStats& ca = churn.serve_after;
  const double refreshed = static_cast<double>(ca.refreshed - cb.refreshed);
  const double drops = static_cast<double>(ca.refresh_drops - cb.refresh_drops);

  std::vector<Metric> per_layer = {
      {"gen.lag_p99_us", "us", rs.lag_p99_us},
      {"gen.sent", "count", static_cast<double>(rs.attempted)},
      {"gen.ok", "count", static_cast<double>(rs.ok)},
      {"gen.failed", "count", static_cast<double>(rs.failed)},
      {"net.codec_us", "us", layers.codec_us},
      {"net.residual_us", "us", rs.p50_us - layers.replay_p50_us},
      {"net.requests_per_batch", "count", wire_batch},
      {"net.multi_batch_share", "ratio",
       Ratio(na.wire_batches_multi - nb.wire_batches_multi,
             na.wire_batches - nb.wire_batches)},
      {"net.protocol_errors", "count",
       static_cast<double>(na.protocol_errors - nb.protocol_errors +
                           ref->run.protocol_errors)},
      {"net.backpressure_closes", "count",
       static_cast<double>(na.backpressure_closes - nb.backpressure_closes)},
      {"net.connections_dropped", "count",
       static_cast<double>(na.connections_dropped - nb.connections_dropped)},
      {"net.start_ms", "ms", wirebench::Median(restarts.start_ms)},
      {"serve.hit_ratio", "ratio", Ratio(sa.hits - sb.hits, sa.hits - sb.hits + misses)},
      {"serve.hit_us_p50", "us", layers.hit_p50_us},
      {"serve.hit_us_p99", "us", layers.hit_p99_us},
      {"serve.miss_us_per_user", "us", layers.miss_us_per_user},
      {"serve.mean_batch_size", "count",
       Ratio(sa.coalesced_misses - sb.coalesced_misses, sa.batch_sweeps - sb.batch_sweeps)},
      {"serve.ann_share", "ratio", Ratio(sa.ann_probes - sb.ann_probes, misses)},
      {"serve.evictions_per_req", "ratio", Ratio(sa.evictions - sb.evictions, reqs)},
      {"serve.publish_ms", "ms", wirebench::Median(pub_ms)},
      {"serve.refresh_keep_ratio", "ratio", Ratio(refreshed, refreshed + drops)},
      {"serve.invalidated_per_publish", "count",
       Ratio(ca.invalidated - cb.invalidated, publishes)},
      {"serve.rtt_p99_during_publish_us", "us", churn.rtt_p99_during_publish_us},
      {"serve.construct_ms", "ms", wirebench::Median(restarts.construct_ms)},
      {"serve.sidecar_warm_ms", "ms", wirebench::Median(restarts.warm_ms)},
      {"ann.probe_us_per_query", "us", layers.probe_us_per_query},
      {"ann.candidates_per_query", "count", layers.candidates_per_query},
      {"ann.useful_ratio", "ratio", Ratio(kK, layers.candidates_per_query)},
      {"ann.rebuilt_ms", "ms", layers.rebuilt_ms},
      {"ann.map_ms", "ms", wirebench::Median(restarts.map_index_ms)},
      {"ann.build_s", "s", st->build_s},
      {"models.rerank_us_per_query", "us", layers.rerank_us_per_query},
      {"models.sweep_us", "us", layers.sweep_us},
      {"models.sweep_multi_us_per_user", "us", layers.sweep_multi_us_per_user},
      {"models.fit_epoch_s", "s", st->fit_s / w.fit_epochs},
      {"core.snapshot_ms", "ms", wirebench::Median(snap_ms)},
      {"core.map_model_ms", "ms", wirebench::Median(restarts.map_model_ms)},
      {"core.save_unit_ms", "ms", st->save_ms},
      // The traced run's own reference-rate figures: their medians over
      // traced runs minus rtt_p50_us/rtt_p99_us over untraced runs is the
      // tracing overhead (wirebench/trace_overhead.py).
      {"trace.rtt_p50_us", "us", rs.window_p50_us},
      {"trace.rtt_p99_us", "us", rs.window_tail_us},
  };

  // Human-readable lines: every end-to-end metric by name and unit.
  std::printf("workload %s seed %llu seconds %.0f trace %d backend %s\n", w.name,
              static_cast<unsigned long long>(args.seed), S, args.trace,
              backend.c_str());
  std::printf("reference %.0f req/s: %zu sent, %zu ok, %zu failed, p50 %.1f us, "
              "p%.2f %.1f us, lag p99 %.1f us; median of %zu windows: p50 %.1f us, "
              "p%.2f %.1f us\n",
              w.ref_qps, rs.attempted, rs.ok, rs.failed, rs.p50_us, rs.tail_pct,
              rs.tail_us, rs.lag_p99_us, rs.windows, rs.window_p50_us,
              rs.window_tail_pct, rs.window_tail_us);
  if (ladder) {
    for (const auto& [rate, s] : ladder->rungs) {
      std::printf("ladder %.0f req/s: %zu sent, %zu failed, p%.2f %.1f us, lag p99 %.1f us%s\n",
                  rate, s.attempted, s.failed, s.tail_pct, s.tail_us, s.lag_p99_us,
                  RungMeets(s, w.p99_limit_us) ? "" : "  (misses the limit)");
    }
  }
  std::printf("stages:");
  for (const auto& [name, secs] : stage_s) std::printf(" %s %.1f s", name.c_str(), secs);
  std::printf("\n");
  std::printf("churn: %zu epochs published, %zu visible on the wire\n",
              churn.epochs.size(), churn.epochs_visible);
  std::printf("restart: %zu cycles\n", restarts.first_hit_ms.size());
  for (const auto& [check, counts] : tally.by_check) {
    std::printf("check %s: %zu answers checked, %zu mismatched\n", check.c_str(),
                counts.first, counts.second);
  }
  for (const EndToEnd& e : end_to_end) {
    if (!std::isfinite(e.metric.value)) {
      std::printf("%-24s %14s %-8s (not measured on this workload)\n",
                  e.metric.name.c_str(), "-", e.metric.unit.c_str());
      continue;
    }
    std::printf("%-24s %14.6f %-8s%s\n", e.metric.name.c_str(), e.metric.value,
                e.metric.unit.c_str(), e.gated ? "" : " (reported, not gated)");
  }
  if (trace) {
    for (const Metric& m : per_layer) {
      std::printf("%-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }

  // Provenance + everything measured, into the results file.
  Json prov;
  prov.Str("git_sha", args.git_sha)
      .Str("git_dirty", args.git_dirty)
      .Str("build_type", WIREBENCH_BUILD_TYPE)
      .Str("cxx_flags", WIREBENCH_CXX_FLAGS)
      .Num("nproc", std::thread::hardware_concurrency())
      .Num("seed", static_cast<double>(args.seed))
      .Num("seconds", S)
      .Num("generator_threads", 1)
      .Num("generator_connections", kGenConnections)
      .Num("generator_cpu", g_cpus.generator)
      .Num("reactor_cpu", g_cpus.reactor)
      .Num("reactor_idle_keeper_threads", g_cpus.reactor >= 0 ? 1 : 0)
      .Num("max_threads_during_traffic", g_cpus.reactor >= 0 ? 4 : 3)
      .Num("server_reactor_threads", 1)
      .Num("trainer_threads", churned ? 1 : 0)
      .Str("reactor_backend", backend);
  Json all_metrics;
  for (const EndToEnd& e : end_to_end) {
    all_metrics.Obj(e.metric.name, Json()
                                       .Num("value", e.metric.value)
                                       .Str("unit", e.metric.unit)
                                       .Bool("gated", e.gated));
  }
  Json layer_metrics;
  for (const Metric& m : per_layer) layer_metrics.Obj(m.name, Json().Num("value", m.value).Str("unit", m.unit));
  std::string rungs = "[", pass_max = "[";
  if (ladder) {
    for (const auto& [rate, s] : ladder->rungs) {
      if (rungs.size() > 1) rungs += ',';
      rungs += Json().Num("offered_qps", rate).Num("achieved_qps", s.achieved_qps)
                   .Num("sent", s.attempted).Num("failed", s.failed)
                   .Num("p50_us", s.p50_us).Num("tail_pct", s.tail_pct)
                   .Num("tail_us", s.tail_us).Num("lag_p99_us", s.lag_p99_us).str();
    }
    for (double m : ladder->pass_max_qps) {
      if (pass_max.size() > 1) pass_max += ',';
      pass_max += std::to_string(m);
    }
  }
  rungs += "]";
  pass_max += "]";
  Json stages;
  for (const auto& [name, secs] : stage_s) stages.Num(name, secs);
  Json record;
  record.Str("workload", w.name)
      .Str("why", w.why)
      .Obj("stage_seconds", stages)
      .Obj("provenance", prov)
      .Num("reference_qps", w.ref_qps)
      .Num("p99_limit_us", ladder ? w.p99_limit_us : kNotMeasured)
      .Num("rtt_samples", rs.attempted)
      .Num("rtt_windows", rs.windows)
      .Num("rtt_window_tail_pct", rs.window_tail_pct)
      .Num("rtt_whole_run_p50_us", rs.p50_us)
      .Num("rtt_whole_run_tail_pct", rs.tail_pct)
      .Num("rtt_whole_run_tail_us", rs.tail_us)
      .Raw("ladder", rungs)
      .Raw("ladder_pass_max_qps", pass_max)
      .Bool("ladder_saturated", ladder && ladder->saturated)
      .Num("peak_rss_whole_run_mb", PeakRssMb())
      .Num("checked", tally.checked)
      .Num("mismatched", tally.mismatched)
      .Num("churn_epochs", churn.epochs.size())
      .Num("restart_cycles", restarts.first_hit_ms.size())
      .Obj("end_to_end", all_metrics)
      .Obj("per_layer", layer_metrics);
  const std::string results_path = args.out_dir + "/result-" + run_tag + ".json";
  if (std::FILE* f = std::fopen(results_path.c_str(), "w")) {
    std::fprintf(f, "%s\n", record.str().c_str());
    std::fclose(f);
  }
  if (trace) {
    const std::string trace_path = args.out_dir + "/trace-" + run_tag + ".json";
    spans.Write(trace_path);
    std::printf("trace: %zu spans → %s\n", spans.size(), trace_path.c_str());
  }
  std::printf("provenance %s\n", prov.str().c_str());

  Json out_metrics;
  for (const Metric& m : trace ? per_layer : gated) {
    out_metrics.Obj(m.name, Json().Num("value", m.value).Str("unit", m.unit));
  }
  Json result;
  result.Bool("correct", correct)
      .Num("attempted", static_cast<double>(attempted))
      .Num("failed", static_cast<double>(failed))
      .Obj("metrics", out_metrics);
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
