"""Per-layer metrics of the xswap benchmark (--trace 1).

Runs the traced replay program (perfbench/trace/xswap_trace.cpp) on the
run's input, reads its spans and summary, computes each layer's busy and
self time, and checks that every deterministic component field equals
the untraced child's output. Every workload replays its stream (as
`xswap serve` runs it) and its book (as `xswap batch` runs it).

Self time of a span is its duration minus the time its child spans
cover. Spans named bench.* are the benchmark's own bookkeeping: they and
everything under them are left out of both the layer self times and the
traced wall, and bench.layer_coverage is the share of that wall the
layer spans account for.
"""

from __future__ import annotations

import json
import math
import subprocess

COMPONENT_FIELDS = (
    "clear", "index", "seed", "parties", "transfers", "leaders",
    "all_triggered", "no_conforming_underwater", "audit_ok",
    "last_trigger_time", "finished_at", "total_transactions",
    "failed_transactions", "total_storage_bytes")


def nearest_rank(values: list[float], pct: float) -> float:
    if not values:
        return 0.0
    s = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(s)))
    return s[rank - 1]


class SpanStats:
    """Busy and self time per span name over one or more span files."""

    def __init__(self):
        self.durations: dict[str, list[float]] = {}  # ns, layer spans
        self.self_ns: dict[str, float] = {}
        self.bookkeeping_ns: dict[str, float] = {}  # spans under bench.*
        self.wall_ns = 0.0

    def add(self, spans: list[dict]) -> None:
        child_ns = [0.0] * len(spans)
        excluded = [False] * len(spans)
        for i, s in enumerate(spans):
            parent = s["parent"]
            if s["name"].startswith("bench.") and parent >= 0:
                excluded[i] = True
            elif parent >= 0 and excluded[parent]:
                excluded[i] = True
            if parent >= 0:
                child_ns[parent] += s["end"] - s["start"]
        for i, s in enumerate(spans):
            duration = s["end"] - s["start"]
            if s["parent"] < 0:  # bench.replay, the root
                self.wall_ns += duration
                continue
            if excluded[i]:
                self.bookkeeping_ns[s["name"]] = \
                    self.bookkeeping_ns.get(s["name"], 0.0) + duration
                if not excluded[s["parent"]]:
                    self.wall_ns -= duration
                continue
            self.durations.setdefault(s["name"], []).append(duration)
            self.self_ns[s["name"]] = self.self_ns.get(s["name"], 0.0) + \
                duration - child_ns[i]

    def count(self, name: str) -> int:
        return len(self.durations.get(name, []))

    def busy_ms(self, name: str) -> float:
        return sum(self.durations.get(name, [])) / 1e6

    def pct(self, name: str, p: float, scale: float) -> float:
        return nearest_rank(self.durations.get(name, []), p) / scale

    def coverage(self) -> float:
        return sum(self.self_ns.values()) / self.wall_ns if self.wall_ns else 0.0


def run_replay(bench, mode: str, input_text: str, tag: str) -> tuple[list, dict]:
    work = bench.work / f"trace-{tag}"
    work.mkdir()
    inp = work / "input.txt"
    inp.write_text(input_text)
    args = [str(bench.bins["trace"]), "--mode", mode, "--input", str(inp),
            "--work", str(work), "--spans", str(work / "spans.jsonl"),
            "--summary", str(work / "summary.json")]
    if mode == "serve" and bench.start_dir is not None:
        args += ["--durable", str(bench.start_dir)]
    subprocess.run(args, check=True, stdout=subprocess.DEVNULL, timeout=150)
    spans = [json.loads(line) for line in
             (work / "spans.jsonl").read_text().splitlines()]
    return spans, json.loads((work / "summary.json").read_text())


def compare_serve(bench, summary: dict, comps: list[dict]) -> int:
    """Field-for-field comparison with the untraced child's JSON lines."""
    child = sorted(tuple(c[f] for f in COMPONENT_FIELDS) for c in comps)
    traced = sorted(tuple(r[f] for f in COMPONENT_FIELDS)
                    for r in summary["records"])
    misses = sum(1 for a, b in zip(child, traced) if a != b) + \
        abs(len(child) - len(traced))
    if misses:
        bench.problems.append(f"traced serve replay differs from the child "
                              f"in {misses} components")
    return misses


def compare_batch(bench, summary: dict, batch_comps) -> int:
    traced = [(r["parties"], r["transfers"], r["leaders"], r["all_triggered"])
              for r in summary["records"]]
    misses = sum(1 for a, b in zip(batch_comps, traced) if a != b) + \
        abs(len(batch_comps) - len(traced))
    if misses:
        bench.problems.append(f"traced batch replay differs from the child "
                              f"in {misses} components")
    return misses


def check_summary(bench, summary: dict, tag: str) -> int:
    bad = []
    if summary["invalid"]:
        bad.append(f"{summary['invalid']} events did not apply")
    if not summary["streaming_equals_batch"]:
        bad.append("incremental decomposition != decompose_offers")
    if not summary["verify_ok"]:
        bad.append("a re-timed hashkey did not verify")
    if summary["integrity_failures"]:
        bad.append(f"{summary['integrity_failures']} ledgers failed "
                   "verify_integrity")
    for b in bad:
        bench.problems.append(f"traced {tag} replay: {b}")
    return len(bad)


def layer_metrics(bench, closed_comps, closed_stats, opened, untraced_s,
                  batch) -> dict:
    """Every per-layer metric of one run, as {name: (value, unit)}.
    untraced_s is the wall of the untraced children doing the same work:
    the closed-loop serve pass, the batch pass and one set-up run."""
    wl = bench.wl
    stats = SpanStats()
    replays = []  # (mode, summary)
    spans, summary = run_replay(bench, "serve", wl.stream_text(), "serve")
    stats.add(spans)
    replays.append(("serve", summary))
    failed = check_summary(bench, summary, "serve")
    failed += compare_serve(bench, summary, closed_comps)
    _, batch_comps, run_wall_ms = batch
    batch_stats = SpanStats()
    spans, summary = run_replay(bench, "batch", bench.book_wl.book_text(),
                                "batch")
    batch_stats.add(spans)
    stats.add(spans)
    replays.append(("batch", summary))
    failed += check_summary(bench, summary, "batch")
    failed += compare_batch(bench, summary, batch_comps)
    run_busy_ms = batch_stats.busy_ms("swap.engine.run")
    bench.failed += failed
    bench.attempted += sum(len(s["records"]) for _, s in replays)

    def total(key: str) -> float:
        return sum(s[key] for _, s in replays)

    serve_summary = replays[0][1]
    inc = serve_summary["incremental"]
    reuse_total = inc["reused"] + inc["recleared"]
    journal = serve_summary["journal"]
    verify_p50 = replays[1][1]["verify_p50_us"]
    run_busy_all = stats.busy_ms("swap.engine.run")
    late_ms = [x * 1000.0 for x in opened["late"]]
    jobs = bench.cfg["jobs"]
    m = {
        "bench.gen_late_p99_ms": (nearest_rank(late_ms, 99), "ms"),
        "bench.trace_overhead_ratio": (stats.wall_ns / 1e9 / untraced_s,
                                       "ratio"),
        "bench.layer_coverage": (stats.coverage(), "ratio"),
        "serve.parse.busy_ms": (stats.busy_ms("serve.parse"), "ms"),
        "serve.queue_high_water": (closed_stats["queue_high_water"], "count"),
        "serve.clears": (closed_stats["clears"], "count"),
        "serve.incremental.apply.count":
            (stats.count("serve.incremental.apply"), "count"),
        "serve.incremental.apply.busy_ms":
            (stats.busy_ms("serve.incremental.apply"), "ms"),
        "serve.incremental.apply.p99_us":
            (stats.pct("serve.incremental.apply", 99, 1e3), "us"),
        "serve.incremental.consume.busy_ms":
            (stats.busy_ms("serve.incremental.consume"), "ms"),
        "serve.incremental.reuse_ratio":
            (inc["reused"] / reuse_total if reuse_total else 0.0, "ratio"),
        "serve.incremental.full_recomputes": (inc["full_recomputes"], "count"),
        "serve.incremental.live_offers_max":
            (serve_summary["live_offers_max"], "count"),
        "swap.clearing.decompose.busy_ms":
            (stats.busy_ms("swap.clearing.decompose"), "ms"),
        "swap.clearing.components": (total("components"), "count"),
        "swap.clearing.arcs": (total("arcs"), "count"),
        "swap.clearing.leaders": (total("leaders"), "count"),
        "swap.engine.build.busy_ms": (stats.busy_ms("swap.engine.build"), "ms"),
        "swap.engine.build.p50_us":
            (stats.pct("swap.engine.build", 50, 1e3), "us"),
        "swap.engine.build.p99_us":
            (stats.pct("swap.engine.build", 99, 1e3), "us"),
        "swap.engine.run.busy_ms": (run_busy_all, "ms"),
        "swap.engine.run.p50_ms": (stats.pct("swap.engine.run", 50, 1e6), "ms"),
        "swap.engine.run.p99_ms": (stats.pct("swap.engine.run", 99, 1e6), "ms"),
        "swap.executor.run_wall_ms": (run_wall_ms, "ms"),
        "swap.executor.parallel_efficiency":
            (run_busy_ms / (jobs * run_wall_ms) if run_wall_ms else 0.0,
             "ratio"),
        "swap.invariants.check_all.busy_ms":
            (stats.busy_ms("swap.invariants.check_all"), "ms"),
        "crypto.hashkey_verifies": (total("hashkey_verifies"), "count"),
        "crypto.sig_verifies": (total("sig_verifies"), "count"),
        "crypto.verify.p50_us": (verify_p50, "us"),
        "crypto.verify.est_share":
            (total("sig_verifies") * verify_p50 / 1e3 / run_busy_all
             if run_busy_all else 0.0, "ratio"),
        "crypto.signs": (total("signs"), "count"),
        "chain.transactions": (total("transactions"), "count"),
        "chain.failed_ratio":
            (total("failed_transactions") / total("transactions")
             if total("transactions") else 0.0, "ratio"),
        "chain.blocks": (total("blocks"), "count"),
        "chain.storage_bytes": (total("storage_bytes"), "bytes"),
        "chain.verify_integrity.busy_ms":
            (stats.bookkeeping_ns.get("chain.verify_integrity", 0.0) / 1e6,
             "ms"),
        "sim.finished_at_ticks_max":
            (max(s["finished_at_max"] for _, s in replays), "ticks"),
        "sim.last_trigger_ticks_max":
            (max(s["last_trigger_max"] for _, s in replays), "ticks"),
        "persist.recover.busy_ms": (stats.busy_ms("persist.recover"), "ms"),
        "persist.recover.journals":
            (serve_summary["recover_journals"], "count"),
        "persist.recover.blocks": (serve_summary["recover_blocks"], "count"),
        "persist.torn_tails": (serve_summary["torn_tails"], "count"),
        "persist.journal.bytes": (journal["bytes"], "bytes"),
        "persist.journal.records": (journal["records"], "count"),
        "persist.journal.segments": (journal["segments"], "count"),
        "persist.append.busy_ms": (journal["append_ms"], "ms"),
        "persist.fsync.count": (journal["fsyncs"], "count"),
        "persist.fsync.busy_ms": (journal["fsync_ms"], "ms"),
    }
    if serve_summary["recover_journals"] != bench.start_journals:
        bench.failed += 1
        bench.problems.append("traced recovery replayed "
                              f"{serve_summary['recover_journals']} journals, "
                              f"expected {bench.start_journals}")
    return m
