#!/usr/bin/env python3
"""Bench regression gate: compare fresh bench runs against committed baselines.

Usage:
    scripts/check_bench.py [--threshold 0.25] BASELINE FRESH [BASELINE FRESH ...]

Each (BASELINE, FRESH) pair must be JSON emitted by the same bench binary
(`bench_train` -> "mars_epoch_threads", `bench_serve` -> "topk_serve"); the
"bench" field selects the comparison. A fresh single-thread timing more than
`threshold` (default 25%) slower than the committed baseline fails the gate.
A baseline that lacks a section or a row (catalog size, nprobe, batch size)
the fresh run emits fails too: the gate never passes by having nothing to
compare against. Regenerate the baseline with scripts/bench.sh instead.

Scaling checks (multi-thread speedup) are skipped unless BOTH runs saw more
than one CPU: a 1-core container serializes the Hogwild workers, so its
"speedup" numbers measure overhead, not scaling (see BENCH_train.json
host_cpus). Every such skip is listed again in an end-of-run summary so a
green run on a 1-core host states which gates never ran. The batched-miss
serving gate (check_serve_batch: one TopKBatch over B cold users against B
solo sweeps) is single-threaded by construction and stays armed regardless
of core count.

Wired into scripts/ci.sh as the opt-in `--bench` stage.
"""

import argparse
import json
import sys

FAILURES = []
CPU_SKIPS = []


def fail(msg):
    FAILURES.append(msg)
    print(f"FAIL: {msg}")


def ok(msg):
    print(f"  ok: {msg}")


def skip(msg):
    print(f"skip: {msg}")


def skip_cpu(msg):
    """A gate skipped because a 1-CPU host can't measure it (scaling needs
    real parallelism). Recorded so the end-of-run summary states explicitly
    which gates never ran — a green check on a 1-core container must not
    read as 'all gates passed'."""
    CPU_SKIPS.append(msg)
    skip(msg)


def fail_no_baseline(what):
    """A fresh section or row with nothing in the baseline to diff it
    against: the baseline is stale, not the code slow."""
    fail(f"{what}: not in the baseline (regenerate it with scripts/bench.sh)")


# Timings below this (1 µs) are a single hash lookup; their run-to-run and
# cross-machine jitter dwarfs any real regression, so the ratio check is
# skipped and only invariants (e.g. the >=5x cached speedup) apply.
NOISE_FLOOR_MS = 1e-3


def check_slower(name, base, fresh, threshold):
    """Fails when fresh > base * (1 + threshold). Returns the ratio."""
    if base <= 0:
        skip(f"{name}: baseline is {base}, nothing to compare")
        return None
    if base < NOISE_FLOOR_MS and fresh < NOISE_FLOOR_MS:
        skip(f"{name}: {fresh:.6f} vs {base:.6f}, both under the "
             f"{NOISE_FLOOR_MS} ms noise floor")
        return None
    ratio = fresh / base
    if ratio > 1.0 + threshold:
        fail(f"{name}: {fresh:.6f} vs baseline {base:.6f} "
             f"({(ratio - 1.0) * 100:+.1f}%, limit +{threshold * 100:.0f}%)")
    else:
        ok(f"{name}: {fresh:.6f} vs {base:.6f} ({(ratio - 1.0) * 100:+.1f}%)")
    return ratio


def check_train(base, fresh, threshold):
    base_by_t = {r["num_threads"]: r for r in base["results"]}
    fresh_by_t = {r["num_threads"]: r for r in fresh["results"]}
    if 1 not in base_by_t or 1 not in fresh_by_t:
        fail("mars_epoch_threads: missing num_threads=1 row")
        return
    check_slower("train seconds_per_epoch @1 thread",
                 base_by_t[1]["seconds_per_epoch"],
                 fresh_by_t[1]["seconds_per_epoch"], threshold)

    if base.get("host_cpus", 1) <= 1 or fresh.get("host_cpus", 1) <= 1:
        skip_cpu("train scaling: host_cpus == 1 on at least one side "
                 "(serialized workers measure overhead, not scaling)")
        return
    for t in sorted(set(base_by_t) & set(fresh_by_t)):
        if t == 1:
            continue
        base_s = base_by_t[t]["speedup_vs_serial"]
        fresh_s = fresh_by_t[t]["speedup_vs_serial"]
        if base_s > 0 and fresh_s < base_s * (1.0 - threshold):
            fail(f"train speedup @{t} threads: {fresh_s:.2f}x vs "
                 f"baseline {base_s:.2f}x")
        else:
            ok(f"train speedup @{t} threads: {fresh_s:.2f}x vs {base_s:.2f}x")


def check_serve(base, fresh, threshold):
    base_by_m = {r["num_items"]: r for r in base["results"]}
    fresh_by_m = {r["num_items"]: r for r in fresh["results"]}
    shared = sorted(set(base_by_m) & set(fresh_by_m))
    if not shared:
        fail("topk_serve: no shared catalog sizes between baseline and fresh")
        return
    for m in sorted(set(fresh_by_m) - set(base_by_m)):
        fail_no_baseline(f"serve results @{m} items")
    for m in shared:
        check_slower(f"serve cold_ms_per_query @{m} items",
                     base_by_m[m]["cold_ms_per_query"],
                     fresh_by_m[m]["cold_ms_per_query"], threshold)
        check_slower(f"serve cached_ms_per_query @{m} items",
                     base_by_m[m]["cached_ms_per_query"],
                     fresh_by_m[m]["cached_ms_per_query"], threshold)
        # Roadmap acceptance invariant, not a diff: cached hot-user queries
        # must beat a cold full-catalog sweep by >= 5x at >= 10k items.
        if m >= 10000:
            speedup = fresh_by_m[m]["cached_speedup"]
            if speedup < 5.0:
                fail(f"serve cached_speedup @{m} items: {speedup:.1f}x < 5x")
            else:
                ok(f"serve cached_speedup @{m} items: {speedup:.1f}x >= 5x")
    check_serve_ann(base, fresh, threshold)
    check_serve_batch(base, fresh, threshold)
    check_serve_incremental(base, fresh, threshold)
    check_serve_mt(base, fresh, threshold)


def check_serve_batch(base, fresh, threshold):
    """Coalesced-batch serving: TopKBatch per-user cost vs solo sweeps.

    Regression diff on batch_ms_per_user per (num_items, batch_size) point,
    plus the batching acceptance invariants at B = 8: the *gate point* (the
    smallest catalog >= 50k items) must show the batched sweep >= 1.5x
    faster per user than solo sweeps, and every larger catalog must show
    batching at least not slower (>= 1.0x). The gate point is where the
    item-block reuse is robustly cache-backed; far larger working sets
    leave the ratio to the host's memory subsystem (measured 1.1-1.7x at
    200k on a shared 1-vCPU box, run to run), so they are tracked but not
    held to the 1.5x bar. The section is measured single-threaded
    (TopKBatch drives the multi-user sweep the wire front-end uses, with no
    thread choreography), so unlike the scaling checks these gates stay
    armed on 1-CPU hosts.
    """
    if "batch" not in fresh:
        fail("topk_serve: fresh run has no 'batch' section")
        return
    if "batch" not in base:
        fail_no_baseline("serve batch section")
    base_by_key = {(r["num_items"], r["batch_size"]): r
                   for r in base.get("batch", {}).get("results", [])}
    eligible = [r["num_items"] for r in fresh["batch"]["results"]
                if r["num_items"] >= 50000 and r["batch_size"] == 8]
    gate_items = min(eligible) if eligible else None
    for r in fresh["batch"]["results"]:
        m, bsz = r["num_items"], r["batch_size"]
        b = base_by_key.get((m, bsz))
        if b is not None:
            check_slower(f"serve batch_ms_per_user @{m} items B={bsz}",
                         b["batch_ms_per_user"], r["batch_ms_per_user"],
                         threshold)
        elif "batch" in base:
            fail_no_baseline(f"serve batch @{m} items B={bsz}")
        if bsz != 8 or m < 50000:
            continue
        speedup = r["speedup_per_user"]
        if m == gate_items:
            if speedup < 1.5:
                fail(f"serve batch speedup_per_user @{m} items B=8: "
                     f"{speedup:.2f}x < 1.5x (gate point)")
            else:
                ok(f"serve batch speedup_per_user @{m} items B=8: "
                   f"{speedup:.2f}x >= 1.5x (gate point)")
        elif speedup < 1.0:
            fail(f"serve batch speedup_per_user @{m} items B=8: "
                 f"{speedup:.2f}x < 1.0x (batching must never lose)")
        else:
            ok(f"serve batch speedup_per_user @{m} items B=8: "
               f"{speedup:.2f}x >= 1.0x")
    if gate_items is None and not fresh.get("fast_mode"):
        fail("serve batch: no B=8 point at >= 50k items (full mode must "
             "measure the gate point)")


def check_serve_ann(base, fresh, threshold):
    """ANN probe-then-rerank: recall/latency at the committed default nprobe.

    Regression diff on ms_per_query per (num_items, nprobe) point, plus the
    retrieval-tier acceptance invariants: the default operating point must
    keep recall@10 >= 0.95, and must beat the cold exact sweep >= 3x at
    >= 50k items. Both invariants are full-mode only: fast mode shrinks the
    training set below what gives the embeddings ANN-friendly structure, so
    its recall measures the shrunken dataset, not the index.
    """
    if "ann" not in fresh:
        fail("topk_serve: fresh run has no 'ann' section")
        return
    invariants = not fresh.get("fast_mode")
    if not invariants:
        skip("serve ann invariants: fast mode (recall reflects the "
             "shrunken training set, not the index)")
    if "ann" not in base:
        fail_no_baseline("serve ann section")
    base_by_m = {r["num_items"]: r for r in base.get("ann", [])}
    for r in fresh["ann"]:
        m = r["num_items"]
        b = base_by_m.get(m)
        if b is None and "ann" in base:
            fail_no_baseline(f"serve ann @{m} items")
        if b is not None:
            check_slower(f"serve ann default ms_per_query @{m} items",
                         b["default"]["ms_per_query"],
                         r["default"]["ms_per_query"], threshold)
            base_sweep = {p["nprobe"]: p for p in b.get("sweep", [])}
            for p in r.get("sweep", []):
                bp = base_sweep.get(p["nprobe"])
                if bp is None:
                    fail_no_baseline(f"serve ann @{m} items nprobe="
                                     f"{p['nprobe']}")
                    continue
                check_slower(
                    f"serve ann ms_per_query @{m} items nprobe="
                    f"{p['nprobe']}", bp["ms_per_query"],
                    p["ms_per_query"], threshold)
        # Acceptance invariants (retrieval-tier roadmap): the committed
        # default nprobe must hold recall@10 >= 0.95, and at >= 50k items
        # the ANN miss path must beat the cold exact sweep >= 3x.
        if not invariants:
            continue
        recall = r["default"]["recall_at_10"]
        if recall < 0.95:
            fail(f"serve ann recall@10 @{m} items: {recall:.3f} < 0.95 "
                 f"(default nprobe={r['default']['nprobe']})")
        else:
            ok(f"serve ann recall@10 @{m} items: {recall:.3f} >= 0.95")
        if m >= 50000:
            speedup = r["default"]["speedup_vs_cold"]
            if speedup < 3.0:
                fail(f"serve ann speedup_vs_cold @{m} items: "
                     f"{speedup:.2f}x < 3x")
            else:
                ok(f"serve ann speedup_vs_cold @{m} items: "
                   f"{speedup:.2f}x >= 3x")
    check_serve_ann_mars(fresh)
    check_serve_ann_restart(base, fresh, threshold)


def check_serve_ann_mars(fresh):
    """ANN on MARS: recall@10 at the default nprobe, an absolute floor.

    MARS ranks by a θ-weighted sum of facet cosines; the IVF's 4-bit first
    pass must follow that sum well enough that the exact re-rank of its
    short list recovers the exact top-10 (recall@10 >= 0.95). The section
    trains its own model at a fixed shape, so the floor holds in fast mode
    too; there is no baseline diff.
    """
    r = fresh.get("ann_mars")
    if r is None:
        fail("topk_serve: fresh run has no 'ann_mars' section")
        return
    m = r["index"]["num_items"]
    d = r["index"]["default"]
    if d["recall_at_10"] < 0.95:
        fail(f"serve ann_mars recall@10 @{m} items: {d['recall_at_10']:.3f} "
             f"< 0.95 (default nprobe={d['nprobe']})")
    else:
        ok(f"serve ann_mars recall@10 @{m} items: {d['recall_at_10']:.3f} "
           f">= 0.95")


def check_serve_ann_restart(base, fresh, threshold):
    """Persisted-index restart: mmap the MRSI file vs rebuild from scratch.

    Invariants at any core count (the section is single-threaded and its
    two sides run on the same host back to back): the mapped index must
    answer *identically* to the freshly built one — recall@10 at the
    default nprobe equal to the last recorded digit and every sampled
    response bit-identical — and at the million-item point the warm
    restart (mmap + validate + first query) must beat the cold restart
    (k-means + assignment + first query) by >= 5x. The speedup gate is
    full-mode only because fast mode shrinks the catalog to 100k; the
    identity gates hold at any size.
    """
    if "ann_restart" not in fresh:
        fail("topk_serve: fresh run has no 'ann_restart' section")
        return
    r = fresh["ann_restart"]
    m = r["num_items"]
    if r["recall_mapped"] != r["recall_built"]:
        fail(f"serve ann_restart @{m} items: mapped recall@10 "
             f"{r['recall_mapped']:.4f} != built {r['recall_built']:.4f} "
             f"(mapped probes must be bit-identical)")
    else:
        ok(f"serve ann_restart @{m} items: recall@10 {r['recall_mapped']:.4f}"
           f" identical built vs mapped")
    if r["responses_identical"] != r["responses_checked"] or \
            r["responses_checked"] <= 0:
        fail(f"serve ann_restart @{m} items: only {r['responses_identical']}"
             f"/{r['responses_checked']} responses identical built vs mapped")
    else:
        ok(f"serve ann_restart @{m} items: {r['responses_identical']}"
           f"/{r['responses_checked']} responses identical")
    if m >= 1000000:
        speedup = r["restart_speedup"]
        if speedup < 5.0:
            fail(f"serve ann_restart @{m} items: restart_speedup "
                 f"{speedup:.1f}x < 5x (mapped index must skip the rebuild)")
        else:
            ok(f"serve ann_restart @{m} items: restart_speedup "
               f"{speedup:.1f}x >= 5x")
    elif not fresh.get("fast_mode"):
        fail(f"serve ann_restart: full mode must measure the million-item "
             f"point (got {m} items)")
    b = base.get("ann_restart")
    if b is None:
        fail_no_baseline("serve ann_restart section")
    elif b["num_items"] != m:
        fail_no_baseline(f"serve ann_restart @{m} items")
    else:
        check_slower(f"serve ann_restart warm_restart_ms @{m} items",
                     b["warm_restart_ms"], r["warm_restart_ms"], threshold)


def check_serve_incremental(base, fresh, threshold):
    """AbsorbWrites incremental-refresh cost vs a cold sweep."""
    if "incremental" not in fresh:
        fail("topk_serve: fresh run has no 'incremental' section")
        return
    if "incremental" not in base:
        fail_no_baseline("serve incremental section")
    base_by_m = {r["num_items"]: r for r in base.get("incremental", [])}
    for r in fresh["incremental"]:
        m = r["num_items"]
        if m in base_by_m:
            check_slower(f"serve refresh_ms_per_entry @{m} items",
                         base_by_m[m]["refresh_ms_per_entry"],
                         r["refresh_ms_per_entry"], threshold)
        elif "incremental" in base:
            fail_no_baseline(f"serve incremental @{m} items")
        # Acceptance invariant (serving roadmap): with <= 1/8 of the item
        # shards dirty, refreshing a cached entry must cost <= 1/4 of a
        # cold full-catalog sweep at >= 10k items.
        if m >= 10000 and r["dirty_shards"] * 8 <= r["total_shards"]:
            ratio = r["refresh_vs_cold"]
            if ratio > 0.25:
                fail(f"serve refresh_vs_cold @{m} items: {ratio:.3f} > 0.25 "
                     f"({r['dirty_shards']}/{r['total_shards']} shards dirty)")
            else:
                ok(f"serve refresh_vs_cold @{m} items: {ratio:.3f} <= 0.25")


def check_serve_mt(base, fresh, threshold):
    """Multi-threaded QPS under a churning publisher."""
    if "mt" not in fresh:
        fail("topk_serve: fresh run has no 'mt' section")
        return
    fresh_rows = {r["threads"]: r for r in fresh["mt"]["results"]}
    for t, r in sorted(fresh_rows.items()):
        # Invariant at any core count: the concurrent read front actually
        # served every query (qps computes over the full count).
        if r["qps"] <= 0:
            fail(f"serve mt qps @{t} threads is {r['qps']}")
    # The mt section records the cores it actually saw; prefer that over
    # the run-level field (older baselines only have the latter).
    base_cpus = base.get("mt", {}).get("host_cpus",
                                       base.get("host_cpus", 1))
    fresh_cpus = fresh.get("mt", {}).get("host_cpus",
                                         fresh.get("host_cpus", 1))
    if base_cpus <= 1 or fresh_cpus <= 1:
        skip_cpu("serve mt scaling: host_cpus == 1 on at least one side "
                 "(serialized frontends measure overhead, not scaling)")
        return
    base_rows = {r["threads"]: r for r in base.get("mt", {}).get("results", [])}
    for t in sorted(set(base_rows) & set(fresh_rows)):
        if t == 1:
            continue
        base_s = base_rows[t]["speedup_vs_1"]
        fresh_s = fresh_rows[t]["speedup_vs_1"]
        if base_s > 0 and fresh_s < base_s * (1.0 - threshold):
            fail(f"serve mt speedup @{t} threads: {fresh_s:.2f}x vs "
                 f"baseline {base_s:.2f}x")
        else:
            ok(f"serve mt speedup @{t} threads: {fresh_s:.2f}x vs "
               f"{base_s:.2f}x")


CHECKERS = {
    "mars_epoch_threads": check_train,
    "topk_serve": check_serve,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed slowdown fraction (default 0.25)")
    parser.add_argument("files", nargs="+",
                        help="BASELINE FRESH pairs of bench JSON files")
    args = parser.parse_args()
    if len(args.files) % 2 != 0:
        parser.error("files must come in BASELINE FRESH pairs")

    for base_path, fresh_path in zip(args.files[::2], args.files[1::2]):
        with open(base_path) as f:
            base = json.load(f)
        with open(fresh_path) as f:
            fresh = json.load(f)
        name = base.get("bench", "?")
        print(f"== {name}: {fresh_path} vs baseline {base_path} ==")
        if fresh.get("bench") != name:
            fail(f"bench kind mismatch: {fresh.get('bench')} vs {name}")
            continue
        if base.get("fast_mode") != fresh.get("fast_mode"):
            fail(f"{name}: fast_mode mismatch between baseline and fresh "
                 "(rerun with matching MARS_BENCH_FAST)")
            continue
        checker = CHECKERS.get(name)
        if checker is None:
            fail(f"no checker for bench kind '{name}'")
            continue
        checker(base, fresh, args.threshold)

    if CPU_SKIPS:
        print(f"\n{len(CPU_SKIPS)} gate(s) skipped because host_cpus == 1 "
              "(never ran, not passed):")
        for msg in CPU_SKIPS:
            print(f"  - {msg}")
    if FAILURES:
        print(f"\n{len(FAILURES)} bench regression(s).")
        return 1
    print("\nbench check OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
