#include "scenario/scenario_runner.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "ann/index_io.h"
#include "core/mars.h"
#include "core/persistence.h"
#include "data/synthetic.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "scenario/invariants.h"
#include "serve/top_k_server.h"
#include "serve/top_k_sidecar.h"
#include "serve/write_tracker.h"

namespace mars {

namespace {

/// Everything the actor threads share. Counters are atomics (actors
/// race); the barrier state is mutex-guarded; the spec and oracle
/// outlive every thread.
struct Shared {
  const ScenarioSpec* spec = nullptr;
  SnapshotOracle* oracle = nullptr;

  std::atomic<uint16_t> port{0};
  std::atomic<uint32_t> incarnation{0};

  // restart_mid_traffic coordination: actors park at restart_index and
  // wait for the rebuilt server; `arrivals` also counts actors that
  // exited early, so the main thread can never wait on a dead actor.
  bool restart_scenario = false;
  size_t restart_index = 0;
  std::mutex mu;
  std::condition_variable cv;
  size_t arrivals = 0;
  bool restart_done = false;

  std::atomic<size_t> responses{0};
  std::atomic<size_t> membership_violations{0};
  std::atomic<size_t> epoch_regressions{0};
  std::atomic<size_t> status_violations{0};
  std::atomic<size_t> unexpected_closes{0};
  std::atomic<size_t> reconnects{0};
  std::atomic<size_t> stream_closes{0};

  std::mutex lat_mu;
  std::vector<double> rtt_ms;
};

bool ConnectRetry(NetClient* client, Shared* sh, int rcvbuf_bytes = 0) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    const uint16_t port = sh->port.load(std::memory_order_acquire);
    if (port != 0 &&
        client->Connect("127.0.0.1", port, /*recv_timeout_ms=*/5000,
                        rcvbuf_bytes)) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

/// A normal actor: replays its trace slice event by event, checking
/// every response online (invariants (a)-(c)) and sampling round-trip
/// latency for (d).
void RunActor(Shared* sh, std::span<const ScenarioEvent> events) {
  const ScenarioSpec& spec = *sh->spec;
  NetClient client;
  bool connected = ConnectRetry(&client, sh);
  if (!connected) sh->unexpected_closes.fetch_add(1, std::memory_order_relaxed);

  std::vector<uint64_t> floor(spec.num_users, 0);  // invariant (b) state
  uint32_t inc = sh->incarnation.load(std::memory_order_acquire);
  std::vector<double> rtts;
  rtts.reserve(events.size());
  bool arrived = false;

  const auto reconnect = [&](bool count_unexpected) {
    client.Close();
    if (count_unexpected) {
      sh->unexpected_closes.fetch_add(1, std::memory_order_relaxed);
    }
    connected = ConnectRetry(&client, sh);
  };

  for (size_t i = 0; connected && i < events.size(); ++i) {
    if (sh->restart_scenario && i == sh->restart_index) {
      // Barrier: everyone parks, the main thread kills and rebuilds the
      // serving side, then actors reconnect to the new port. The old
      // connection died with the old server — the reconnect is *clean*
      // (never counted as an unexpected close), and the per-user epoch
      // floors reset with the new incarnation.
      {
        std::unique_lock<std::mutex> lk(sh->mu);
        arrived = true;
        ++sh->arrivals;
        sh->cv.notify_all();
        sh->cv.wait(lk, [&] { return sh->restart_done; });
      }
      client.Close();
      connected = ConnectRetry(&client, sh);
      if (!connected) {
        sh->unexpected_closes.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      sh->reconnects.fetch_add(1, std::memory_order_relaxed);
      inc = sh->incarnation.load(std::memory_order_acquire);
      std::fill(floor.begin(), floor.end(), 0);
    }

    const ScenarioEvent& ev = events[i];
    switch (ev.kind) {
      case ScenarioEventKind::kQuery:
      case ScenarioEventKind::kInvalidRequest: {
        TopKRequest req;
        req.user = ev.user;
        req.k = ev.k;
        req.flags = ev.flags;
        WireResponse resp;
        const auto t0 = std::chrono::steady_clock::now();
        if (!client.TopK(req, &resp)) {
          // Invariant (c): request-level traffic never costs the
          // connection. Recover so the rest of the trace still runs.
          reconnect(/*count_unexpected=*/true);
          continue;
        }
        rtts.push_back(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count());
        sh->responses.fetch_add(1, std::memory_order_relaxed);

        const TopKStatus expected = ExpectedStatus(ev, spec);
        if (resp.status != WireStatusOf(expected)) {
          sh->status_violations.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (expected == TopKStatus::kOk) {
          const TopKResponse& r = resp.response;
          if (!sh->oracle->Check(inc, ev.user, r.epoch, ev.k, r.items,
                                 r.scores)) {
            sh->membership_violations.fetch_add(1,
                                                std::memory_order_relaxed);
          }
          if (r.epoch < floor[ev.user]) {
            sh->epoch_regressions.fetch_add(1, std::memory_order_relaxed);
          } else {
            floor[ev.user] = r.epoch;
          }
        } else if (!resp.response.items.empty() ||
                   resp.response.epoch != 0) {
          // Rejections carry no ranking and no epoch (serve/request.h).
          sh->status_violations.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      }
      case ScenarioEventKind::kHostileFrame: {
        // Intact framing, unknown type: kError(kBadType), connection
        // lives (the next event runs on the same socket and proves it).
        std::vector<uint8_t> wire;
        const uint8_t payload[4] = {0xDE, 0xAD, 0xBE, 0xEF};
        AppendFrame(static_cast<FrameType>(0x2A), payload, &wire);
        if (!client.SendRaw(wire)) {
          reconnect(/*count_unexpected=*/true);
          continue;
        }
        Frame f;
        uint64_t rid = 0;
        WireStatus code = WireStatus::kOk;
        if (!client.RecvFrame(&f) || f.type != FrameType::kError ||
            !DecodeErrorPayload(f.payload, &rid, &code) ||
            code != WireStatus::kBadType) {
          sh->status_violations.fetch_add(1, std::memory_order_relaxed);
          reconnect(/*count_unexpected=*/false);
        }
        break;
      }
      case ScenarioEventKind::kStreamAbuse: {
        // Garbage header: one kError(kBadFrame) courtesy frame, then the
        // server MUST close (docs/PROTOCOL.md). Both halves are checked.
        const std::vector<uint8_t> junk(kFrameHeaderBytes, 0xEE);
        if (!client.SendRaw(junk)) {
          reconnect(/*count_unexpected=*/true);
          continue;
        }
        Frame f;
        uint64_t rid = 0;
        WireStatus code = WireStatus::kOk;
        const bool got_error =
            client.RecvFrame(&f) && f.type == FrameType::kError &&
            DecodeErrorPayload(f.payload, &rid, &code) &&
            code == WireStatus::kBadFrame;
        if (!got_error) {
          sh->status_violations.fetch_add(1, std::memory_order_relaxed);
        } else {
          Frame after;
          if (client.RecvFrame(&after)) {
            // The stream can't re-synchronize; staying open is unsound.
            sh->status_violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
        sh->stream_closes.fetch_add(1, std::memory_order_relaxed);
        client.Close();
        connected = ConnectRetry(&client, sh);
        if (connected) {
          sh->reconnects.fetch_add(1, std::memory_order_relaxed);
        } else {
          sh->unexpected_closes.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      }
    }
  }
  client.Close();
  {
    // Early exits still "arrive" so the restart barrier can't deadlock
    // on a dead actor.
    std::unique_lock<std::mutex> lk(sh->mu);
    if (!arrived) {
      arrived = true;
      ++sh->arrivals;
      sh->cv.notify_all();
    }
  }
  std::unique_lock<std::mutex> lk(sh->lat_mu);
  sh->rtt_ms.insert(sh->rtt_ms.end(), rtts.begin(), rtts.end());
}

/// The slow reader: encodes its whole trace slice as one pipelined
/// burst and sends it over and over without ever reading a response.
/// The server's queued responses cross max_queued_response_bytes and it
/// sheds the connection (one kError(kOverloaded), close) — observed by
/// the runner through stats().backpressure_closes. Deadline- rather
/// than round-bounded: the kernel's auto-tuned socket buffers can
/// absorb megabytes, so a fixed round count can run out before the
/// server's first serve-and-shed cycle lands; sending until the RST
/// guarantees the shed is observable by the time this actor exits,
/// while the deadline keeps a backpressure regression from hanging the
/// run.
void RunSlowReader(Shared* sh, std::span<const ScenarioEvent> events) {
  const ScenarioSpec& spec = *sh->spec;
  NetClient client;
  if (!ConnectRetry(&client, sh, /*rcvbuf_bytes=*/4096)) return;
  std::vector<uint8_t> burst;
  uint64_t rid = 1;
  for (const ScenarioEvent& ev : events) {
    TopKRequest req;
    req.user = static_cast<UserId>(ev.user % spec.num_users);
    EncodeTopKRequest(rid++, req, &burst);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    if (!client.SendRaw(burst)) break;  // RST after the shed: done
  }
  client.Close();
}

}  // namespace

ScenarioRunner::ScenarioRunner(ScenarioSpec spec) : spec_(std::move(spec)) {}

ScenarioReport ScenarioRunner::Run() {
  ScenarioReport rep;
  std::string err;
  const std::vector<ScenarioEvent> trace = GenerateTrace(spec_, &err);
  if (!err.empty()) {
    rep.error = err;
    return rep;
  }
  rep.trace_digest = DigestTrace(trace);
  rep.events = trace.size();

  // Catalog + model. The dataset seed is decoupled from the traffic
  // stream so the same traffic can replay over the same catalog even if
  // trace generation evolves.
  SyntheticConfig dcfg;
  dcfg.num_users = spec_.num_users;
  dcfg.num_items = spec_.num_items;
  dcfg.target_interactions = spec_.num_users * 12;
  dcfg.num_facets = 2;
  dcfg.seed = spec_.seed ^ 0x5CEA5EEDull;
  const std::shared_ptr<ImplicitDataset> dataset =
      GenerateSyntheticDataset(dcfg);

  MultiFacetConfig mcfg;
  mcfg.dim = 8;
  mcfg.num_facets = 2;
  MarsOptions mopts;
  // Learned radii are a global-table writer: every epoch marks the whole
  // catalog dirty, so each publish exercises the worst-case absorb (full
  // cache drop + from-scratch ANN rebuild).
  mopts.learn_radius = true;
  Mars model(mcfg, mopts);

  // One quiesced warmup epoch so epoch 0 serves initialized weights.
  TrainOptions warm;
  warm.epochs = 1;
  warm.seed = spec_.seed ^ 0xF17u;
  model.Fit(*dataset, warm);

  SnapshotOracle oracle(spec_.num_users, spec_.num_items, spec_.k);
  Shared sh;
  sh.spec = &spec_;
  sh.oracle = &oracle;
  sh.restart_scenario = spec_.scenario == "restart_mid_traffic";
  sh.restart_index = spec_.events_per_actor / 2;

  TopKServerOptions sopts;
  sopts.k = spec_.k;
  sopts.cache.max_users = spec_.num_users;
  // The ANN tier at full probe: the probe-then-rerank machinery (and its
  // per-publish rebuilds) runs on every miss while answers stay exact —
  // which is what lets the membership oracle demand bit-identity.
  sopts.ann.enable = true;
  sopts.ann.index.nprobe = 1u << 20;

  WriteTracker tracker(spec_.num_users, spec_.num_items);
  std::shared_ptr<const Mars> epoch0 = model.ServingSnapshot();
  oracle.Register(0, 0, epoch0);
  auto topk = std::make_unique<TopKServer>(epoch0, spec_.num_users,
                                           spec_.num_items, sopts);

  NetServerOptions nopts;
  if (spec_.max_queued_response_bytes > 0) {
    nopts.max_queued_response_bytes = spec_.max_queued_response_bytes;
  }
  nopts.sndbuf_bytes = spec_.sndbuf_bytes;
  auto net = std::make_unique<NetServer>(topk.get(), nopts);
  if (!net->Start()) {
    rep.error = "NetServer failed to start";
    return rep;
  }
  sh.port.store(net->port(), std::memory_order_release);

  // The live trainer: Hogwild workers + per-epoch publish, the same
  // epoch_callback wiring as quickstart step 7. Registration precedes
  // PublishEpoch, so no response can name an unknown epoch.
  size_t published = 0;
  std::thread trainer;
  if (spec_.train_epochs > 0) {
    TrainOptions topts;
    topts.epochs = spec_.train_epochs;
    topts.steps_per_epoch = spec_.steps_per_epoch;
    topts.learning_rate = 0.1;
    topts.seed = spec_.seed ^ 0x7EA1u;
    topts.num_threads = 2;
    topts.write_tracker = &tracker;
    TopKServer* live = topk.get();  // stable: restart joins the trainer first
    topts.epoch_callback = [&oracle, &published, &tracker, &model,
                            live](size_t) {
      std::shared_ptr<const Mars> snap = model.ServingSnapshot();
      ++published;
      oracle.Register(0, published, snap);
      live->PublishEpoch(snap, &tracker);
    };
    trainer = std::thread(
        [&model, dataset, topts] { model.Fit(*dataset, topts); });
  }

  const bool slow = spec_.scenario == "slow_reader";
  std::vector<std::thread> actors;
  actors.reserve(spec_.num_actors);
  for (uint32_t a = 0; a < spec_.num_actors; ++a) {
    const std::span<const ScenarioEvent> slice(
        trace.data() + a * spec_.events_per_actor, spec_.events_per_actor);
    if (slow && a == 0) {
      actors.emplace_back(RunSlowReader, &sh, slice);
    } else {
      actors.emplace_back(RunActor, &sh, slice);
    }
  }

  if (sh.restart_scenario) {
    // Wait for every actor at the midpoint barrier (or exited), quiesce
    // training, then cross a real persistence boundary: v3 snapshot +
    // sidecar out, server down, mmap + prime back up on a fresh port.
    {
      std::unique_lock<std::mutex> lk(sh.mu);
      sh.cv.wait(lk, [&] { return sh.arrivals >= spec_.num_actors; });
    }
    if (trainer.joinable()) trainer.join();

    char mpath[96], spath[96], ipath[96];
    std::snprintf(mpath, sizeof(mpath), "scenario_restart_%d_%llu.v3",
                  static_cast<int>(getpid()),
                  static_cast<unsigned long long>(spec_.seed));
    std::snprintf(spath, sizeof(spath), "scenario_restart_%d_%llu.sidecar",
                  static_cast<int>(getpid()),
                  static_cast<unsigned long long>(spec_.seed));
    std::snprintf(ipath, sizeof(ipath), "scenario_restart_%d_%llu.annidx",
                  static_cast<int>(getpid()),
                  static_cast<unsigned long long>(spec_.seed));
    // Re-warm against the final (quiesced) weights so the sidecar pairs
    // exactly with the file being saved.
    topk->InvalidateAll();
    const size_t warm_users = std::min<size_t>(spec_.num_users, 16);
    for (UserId u = 0; u < warm_users; ++u) topk->TopK(u);
    // The restart unit is snapshot + index + sidecar: the server's live
    // candidate index was (re)built against the final published snapshot,
    // so persisting it here lets the rebuilt server skip k-means and
    // still answer bit-identically (the loader re-verifies the pairing
    // against the mapped model).
    const std::shared_ptr<const SphericalIvfIndex> live_index =
        topk->AnnIndexSnapshot();
    const bool persisted = SaveMarsV3(model, mpath) &&
                           SaveTopKSidecar(*topk, spath) &&
                           live_index != nullptr &&
                           SaveCandidateIndex(*live_index, ipath);

    rep.backpressure_closes += net->stats().backpressure_closes;
    net->Stop();
    net.reset();
    topk.reset();

    std::shared_ptr<const Mars> mapped =
        persisted ? std::shared_ptr<const Mars>(LoadMarsMapped(mpath))
                  : nullptr;
    std::shared_ptr<const SphericalIvfIndex> mapped_index =
        mapped != nullptr
            ? LoadCandidateIndexMapped(ipath, *mapped, spec_.num_items)
            : nullptr;
    if (mapped == nullptr || mapped_index == nullptr) {
      rep.error = "restart_mid_traffic: persist or mmap-load failed";
      sh.port.store(0, std::memory_order_release);  // actors give up fast
    } else {
      const uint32_t inc =
          sh.incarnation.load(std::memory_order_relaxed) + 1;
      oracle.Register(inc, 0, mapped);
      // Zero-rebuild restart: the mapped index plugs in as the prebuilt
      // index (same bytes, same nprobe → the full-probe exactness that
      // the membership oracle relies on carries across the boundary).
      TopKServerOptions ropts = sopts;
      ropts.ann.prebuilt = mapped_index;
      topk = std::make_unique<TopKServer>(mapped, spec_.num_users,
                                          spec_.num_items, ropts);
      WarmFromSidecar(topk.get(), spath);
      net = std::make_unique<NetServer>(topk.get(), nopts);
      if (net->Start()) {
        sh.incarnation.store(inc, std::memory_order_release);
        sh.port.store(net->port(), std::memory_order_release);
      } else {
        rep.error = "restart_mid_traffic: NetServer restart failed";
        sh.port.store(0, std::memory_order_release);
      }
    }
    std::remove(mpath);
    std::remove(spath);
    std::remove(ipath);
    {
      std::unique_lock<std::mutex> lk(sh.mu);
      sh.restart_done = true;
    }
    sh.cv.notify_all();
  }

  for (std::thread& t : actors) t.join();
  if (trainer.joinable()) trainer.join();
  if (net != nullptr) {
    rep.backpressure_closes += net->stats().backpressure_closes;
    net->Stop();
  }

  rep.published_epochs = published;
  rep.responses = sh.responses.load(std::memory_order_relaxed);
  rep.membership_violations =
      sh.membership_violations.load(std::memory_order_relaxed);
  rep.epoch_regressions =
      sh.epoch_regressions.load(std::memory_order_relaxed);
  rep.status_violations =
      sh.status_violations.load(std::memory_order_relaxed);
  rep.unexpected_closes =
      sh.unexpected_closes.load(std::memory_order_relaxed);
  rep.reconnects = sh.reconnects.load(std::memory_order_relaxed);
  rep.stream_closes = sh.stream_closes.load(std::memory_order_relaxed);

  rep.p50_ms = PercentileMs(&sh.rtt_ms, 50);
  rep.p99_ms = PercentileMs(&sh.rtt_ms, 99);
  // Invariant (d) is host_cpus-guarded: on one core the client, server,
  // reactor, and trainer time-slice a single CPU and the percentile
  // measures the scheduler, not the code. Always measured, enforced > 1.
  rep.p99_enforced = std::thread::hardware_concurrency() > 1;
  rep.p99_ok = !rep.p99_enforced || rep.p99_ms <= spec_.p99_bound_ms;

  rep.ran = rep.error.empty();
  return rep;
}

}  // namespace mars
