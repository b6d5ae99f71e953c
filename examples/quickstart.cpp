// Quickstart: train MARS on implicit feedback and produce top-10
// recommendations for a user.
//
//   1. build an ImplicitDataset (here: generated; swap in
//      LoadInteractionsCsv("your.csv") for real data),
//   2. hold out dev/test items per user with MakeLeaveOneOutSplit,
//   3. configure and Fit a Mars model,
//   4. evaluate with the sampled-candidate protocol,
//   5. serve top-10 recommendations for one user through the TopKServer
//      (full-catalog batched sweep + per-user cache),
//   6. persist the whole restart unit — format-v3 model snapshot, ANN
//      candidate index, top-k sidecar — mmap all of it back zero-copy,
//      and serve from the mappings: the restart / model-swap path skips
//      both the cold sweeps *and* the k-means index build
//      (docs/FORMAT.md),
//   7. serve *concurrently while training*: a background run keeps
//      training and publishes a fresh snapshot at every epoch boundary
//      (TrainOptions::epoch_callback → TopKServer::PublishEpoch) while
//      several frontend threads query the same server — every response is
//      then verified to match one of the published snapshots exactly,
//   8. serve the same answers *over TCP*: a NetServer fronts the server
//      with the MRSN wire protocol (docs/PROTOCOL.md) on an epoll
//      reactor, and a pipelined client burst — decoded in one
//      reactor wake-up, served as one TopKBatch — is verified
//      bit-identical to the in-process API.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "ann/index_io.h"
#include "core/mars.h"
#include "core/persistence.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/top_k_server.h"
#include "serve/top_k_sidecar.h"
#include "serve/write_tracker.h"

int main(int argc, char** argv) {
  using namespace mars;

  // Optional overrides (used by scripts/ci.sh for tiny smoke runs):
  //   quickstart [num_users] [num_items] [epochs] [num_threads]
  const size_t arg_users = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 600;
  const size_t arg_items = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 500;
  const size_t arg_epochs = argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 30;
  const size_t arg_threads =
      argc > 4 ? std::strtoul(argv[4], nullptr, 10) : 1;

  // 1. Data: 600 users × 500 items of multi-facet implicit feedback.
  SyntheticConfig data_cfg;
  data_cfg.num_users = arg_users;
  data_cfg.num_items = arg_items;
  data_cfg.target_interactions = arg_users * 20;
  data_cfg.num_facets = 4;
  data_cfg.seed = 7;
  const auto dataset = GenerateSyntheticDataset(data_cfg);
  std::printf("dataset: %zu users, %zu items, %zu interactions\n",
              dataset->num_users(), dataset->num_items(),
              dataset->num_interactions());

  // 2. Leave-one-out split (last item per user = test, one more = dev).
  const LeaveOneOutSplit split = MakeLeaveOneOutSplit(*dataset, /*seed=*/1);

  // 3. Model: 4 facet spaces of dimension 32, spherical optimization.
  MultiFacetConfig model_cfg;
  model_cfg.dim = 32;
  model_cfg.num_facets = 4;
  Mars model(model_cfg);

  TrainOptions train;
  train.epochs = arg_epochs;
  train.learning_rate = 0.3;
  train.seed = 42;
  // >1 shards each epoch across Hogwild workers and overlaps the dev
  // evaluation with the next epoch (see src/train/parallel_trainer.h).
  train.num_threads = arg_threads;
  // Early stopping against the dev split.
  Evaluator dev(*split.train, split.dev_item, EvalProtocol{.seed = 5});
  train.dev_evaluator = &dev;
  model.Fit(*split.train, train);
  if (arg_threads > 1) {
    std::printf("trained with %zu Hogwild workers (overlapped eval)\n",
                arg_threads);
  }

  // 4. Test-set quality under the paper's protocol (100 negatives/user).
  Evaluator test(*split.train, split.test_item, EvalProtocol{.seed = 6});
  const RankingMetrics metrics = test.Evaluate(model);
  std::printf("test: HR@10=%.4f nDCG@10=%.4f over %zu users\n", metrics.hr10,
              metrics.ndcg10, metrics.users_evaluated);

  // 5. Serving: top-10 recommendations through the TopKServer, which
  //    sweeps the full catalog with the batched kernels and caches the
  //    per-user heap (invalidation hooks: serve/write_tracker.h).
  const UserId user = 0;
  TopKServerOptions serve_opts;
  serve_opts.k = 10;
  serve_opts.exclude_interactions = split.train.get();
  // The ANN retrieval tier, at full probe: every miss goes probe →
  // exact re-rank through the candidate index, but probing every list
  // keeps the answers bit-identical to the exact sweep — so all the
  // equality checks below still hold while the index machinery (build,
  // per-epoch rebuild, persistence in step 6) is exercised end to end.
  serve_opts.ann.enable = true;
  serve_opts.ann.index.nprobe = 1u << 20;
  TopKServer server(&model, dataset->num_users(), dataset->num_items(),
                    serve_opts);
  const TopKResponse recs = server.TopK(user);  // cold full-catalog sweep
  std::printf("top-10 items for user %u:", user);
  for (size_t i = 0; i < recs.items.size(); ++i) {
    std::printf(" %u(%.3f)", recs.items[i], recs.scores[i]);
  }
  std::printf("\n");
  const TopKResponse again = server.TopK(user);  // LRU hit, no sweep
  std::printf("re-query served from cache: %s (hits=%llu misses=%llu)\n",
              again.from_cache ? "yes" : "no",
              static_cast<unsigned long long>(server.stats().hits),
              static_cast<unsigned long long>(server.stats().misses));

  // 6. Persistence: save the restart unit — aligned-stride v3 snapshot,
  //    the server's live ANN index, the top-k sidecar — then restart
  //    serving by mmap'ing the snapshot *and* the index (zero copy — the
  //    facet tensors and the inverted lists are read straight from the
  //    page cache; no k-means re-run) and warming the new server's cache
  //    from the sidecar. The three files pair with each other: regenerate
  //    them together.
  const char* model_path = "quickstart_model.v3";
  const char* index_path = "quickstart_ann.annidx";
  const char* sidecar_path = "quickstart_topk.sidecar";
  const std::shared_ptr<const SphericalIvfIndex> live_index =
      server.AnnIndexSnapshot();
  const bool persisted = SaveMarsV3(model, model_path) &&
                         live_index != nullptr &&
                         SaveCandidateIndex(*live_index, index_path) &&
                         SaveTopKSidecar(server, sidecar_path);
  // The mappings keep serving after the unlink, so the files can be
  // consumed-and-removed immediately — no stray files on any exit path.
  const auto mapped = persisted ? LoadMarsMapped(model_path) : nullptr;
  const auto mapped_index =
      mapped != nullptr ? LoadCandidateIndexMapped(index_path, *mapped,
                                                   dataset->num_items())
                        : nullptr;
  std::remove(model_path);
  std::remove(index_path);
  if (mapped == nullptr || mapped_index == nullptr) {
    std::remove(sidecar_path);
    std::fprintf(stderr, "failed to persist or mmap the restart unit\n");
    return 1;
  }
  TopKServerOptions restart_opts = serve_opts;
  restart_opts.ann.prebuilt = mapped_index;  // zero-rebuild restart
  TopKServer restarted(mapped.get(), dataset->num_users(),
                       dataset->num_items(), restart_opts);
  const size_t warmed = WarmFromSidecar(&restarted, sidecar_path);
  std::remove(sidecar_path);
  const TopKResponse after_restart = restarted.TopK(user);
  std::printf(
      "mmap-served top-10 after restart (mapped index, %zu cache "
      "entries warmed, first query %s cache): ",
      warmed, after_restart.from_cache ? "from" : "missed");
  bool identical = after_restart.items.size() == recs.items.size();
  for (size_t i = 0; identical && i < recs.items.size(); ++i) {
    identical = after_restart.items[i] == recs.items[i];
  }
  std::printf("%s\n", identical ? "identical to pre-restart ranking"
                                : "MISMATCH vs pre-restart ranking");
  if (!identical || !after_restart.from_cache) return 1;

  // 7. Concurrent serving during live training. A second training run
  //    keeps improving the model in the background; its epoch_callback
  //    fires at each quiesced epoch boundary, takes an owned frozen copy
  //    (ServingSnapshot) and publishes it — swap first, then absorb the
  //    tracker's dirty shards (PublishEpoch does both in order). Frontend
  //    threads keep querying throughout: each query pins whichever
  //    snapshot is current and never blocks on the swap. Afterwards every
  //    recorded response must be bit-identical to one published epoch —
  //    a mid-swap query may serve the older or the newer model, never a
  //    blend of the two.
  WriteTracker tracker(dataset->num_users(), dataset->num_items());
  std::shared_ptr<const Mars> epoch0 = model.ServingSnapshot();
  // Only the training thread (the epoch_callback below) appends here,
  // and it is read after the frontends join — no locking needed.
  std::vector<std::shared_ptr<const ItemScorer>> published = {epoch0};
  TopKServer live(epoch0, dataset->num_users(), dataset->num_items(),
                  serve_opts);

  TrainOptions more = train;
  more.epochs = arg_epochs >= 3 ? 3 : arg_epochs;
  more.dev_evaluator = nullptr;  // keep the background run simple
  more.write_tracker = &tracker;
  more.epoch_callback = [&](size_t) {
    std::shared_ptr<const Mars> snap = model.ServingSnapshot();
    published.push_back(snap);
    live.PublishEpoch(snap, &tracker);
  };

  const size_t kQueryThreads = 3, kProbeUsers = 6;
  struct Response {
    UserId user;
    std::vector<ItemId> items;
    std::vector<float> scores;
  };
  std::vector<std::vector<Response>> responses(kQueryThreads);
  std::atomic<bool> training_done{false};
  std::vector<std::thread> frontends;
  for (size_t t = 0; t < kQueryThreads; ++t) {
    frontends.emplace_back([&, t] {
      size_t q = 0;
      // Query throughout the background training, and a fixed minimum in
      // case training finishes first. Only a bounded sample is kept for
      // verification — queries continue past it to keep the race hot.
      const size_t kKeep = 2000;
      while (!training_done.load(std::memory_order_acquire) || q < 30) {
        const UserId u = static_cast<UserId>((q * 3 + t) % kProbeUsers);
        TopKResponse r = live.TopK(u);
        if (responses[t].size() < kKeep) {
          responses[t].push_back(
              {u, std::move(r.items), std::move(r.scores)});
        }
        ++q;
      }
    });
  }
  model.Fit(*split.train, more);  // retrains + publishes per epoch
  training_done.store(true, std::memory_order_release);
  for (auto& th : frontends) th.join();

  // Verify: reference rankings per published epoch come from a fresh
  // cold-sweeping server over that snapshot (same kernels, bit-exact).
  size_t checked = 0, unmatched = 0;
  std::vector<std::vector<TopKResponse>> reference(published.size());
  for (size_t g = 0; g < published.size(); ++g) {
    TopKServer ref(published[g], dataset->num_users(), dataset->num_items(),
                   serve_opts);
    for (UserId u = 0; u < kProbeUsers; ++u) {
      reference[g].push_back(ref.TopK(u));
    }
  }
  for (const auto& thread_responses : responses) {
    for (const Response& r : thread_responses) {
      bool matched = false;
      for (size_t g = 0; g < published.size() && !matched; ++g) {
        matched = r.items == reference[g][r.user].items &&
                  r.scores == reference[g][r.user].scores;
      }
      ++checked;
      if (!matched) ++unmatched;
    }
  }
  std::printf(
      "live serving: %zu concurrent responses across %zu threads, "
      "%zu published epochs, %zu unmatched\n",
      checked, kQueryThreads, published.size(), unmatched);
  if (unmatched != 0) {
    std::fprintf(stderr,
                 "FATAL: a response matched no published snapshot\n");
    return 1;
  }

  // 8. The same answers over TCP. The NetServer wraps the live server
  //    (non-owning: in-process callers could keep querying alongside the
  //    wire); the client writes all probe requests as one burst, so the
  //    reactor decodes them in one wake-up and serves them as one
  //    TopKBatch — the wire feeds the coalesced multi-user kernels with
  //    no artificial delay. k = 0 asks for the server's configured depth.
  NetServerOptions net_opts;  // loopback, ephemeral port
  NetServer net(&live, net_opts);
  if (!net.Start()) {
    std::fprintf(stderr, "failed to start the TCP front-end\n");
    return 1;
  }
  NetClient client;
  if (!client.Connect(net_opts.host, net.port())) {
    std::fprintf(stderr, "failed to connect to %s:%u\n",
                 net_opts.host.c_str(), net.port());
    return 1;
  }
  std::vector<TopKRequest> burst;
  for (UserId u = 0; u < kProbeUsers; ++u) burst.push_back({.user = u});
  std::vector<WireResponse> over_wire;
  bool wire_ok = client.TopKPipelined(burst, &over_wire) &&
                 over_wire.size() == burst.size();
  for (size_t i = 0; wire_ok && i < over_wire.size(); ++i) {
    const TopKResponse in_process = live.TopK(burst[i]);
    wire_ok = over_wire[i].status == WireStatus::kOk &&
              over_wire[i].response.items == in_process.items &&
              over_wire[i].response.scores == in_process.scores;
  }
  client.Close();
  net.Stop();
  std::printf("wire serving (%s reactor): %zu pipelined responses, %s\n",
              net.backend_name().c_str(), over_wire.size(),
              wire_ok ? "bit-identical to in-process TopK"
                      : "MISMATCH vs in-process TopK");
  if (!wire_ok) return 1;

  // Bonus: the user's learned facet mixture.
  std::printf("facet weights of user %u:", user);
  for (float t : model.FacetWeights(user)) std::printf(" %.2f", t);
  std::printf("\n");
  return 0;
}
