#!/usr/bin/env python3
"""The xswap benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds the `xswap` CLI (Release) and, with --trace 1, the traced
replay program from source under .bench_build/, generates the workload
from the seed (perfbench/xgen.py; shapes, rates and sizes in
perfbench/spec.json), and drives `xswap serve` / `xswap batch` as child
processes that receive only the generated input and the flags --jobs
and --durable (whose default fsync policy is `batch`).

A run repeats reps for --seconds seconds (at least MIN_REPS of them; a
rep is started only when it is expected to end in time). Each rep makes
`setup_per_rep` set-up runs, a closed-loop `xswap serve` pass and an
`xswap batch` pass on the same inputs, and an open-loop `xswap serve`
pass on a stream of its own. --trace 0 prints the end-to-end metrics,
measured with tracing off:
  setup_s                 median wall of `xswap serve` on an empty stdin
                          against the workload's start state (durable:
                          journal replay of the prior epochs; the
                          stream passes run in memory)
  events_per_s            closed loop: events / (first line written ->
                          stats line read); best rep
  report_latency_p50_ms   open loop at the workload's fixed rate: due time
  report_latency_tail_ms  of a `clear` line -> read time of each component
                          line it produced; the tail is the highest
                          percentile with >= 10 samples beyond it (its
                          percentile and sample count go to stderr);
                          best rep
  swaps_per_s             components / wall of the whole `xswap batch`
                          invocation on a book of the components a
                          stream of the workload's shape clears; best rep
  peak_rss_mb             largest ru_maxrss (wait4) of the set-up, serve
                          and batch children
--trace 1 runs one rep and the traced replay and prints the per-layer
metrics instead (perfbench/tracestats.py; layer mapping in spec.json).

Every child's output is checked against the generator's reference.
`attempted` counts the events sent, the components expected and the
set-up runs; `failed` counts every event not applied, every component
missing, different, not all-triggered or failing its audit, every
invariant violation and every wrong recovery count, so failed /
attempted is the error rate (also printed to stderr). The last stdout
line is the JSON result; progress goes to stderr. Exit code 0 only when
every check passed; a failed check prints a result with "correct":
false and exits 1, and a run that cannot complete (no sources, a build
error) exits 2 without a result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import xgen  # noqa: E402
import tracestats  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD = ROOT / ".bench_build" / "perfbench"
WORK_ROOT = ROOT / ".bench_work"
SPEC = json.loads((BENCH_DIR / "spec.json").read_text())
CHILD_DEADLINE_S = 120.0
MIN_REPS = 2


class BenchError(Exception):
    """The run could not complete (build failure, missing sources)."""


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


@contextlib.contextmanager
def phase(name: str):
    """Log the wall of one step of the run to stderr."""
    start = time.monotonic()
    yield
    log(f"perfbench: {name}: {time.monotonic() - start:.2f} s")


# ---------------------------------------------------------------- build

def build(trace: bool) -> dict[str, Path]:
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("run from the root of an xswap checkout: "
                         "CMakeLists.txt and src/ are missing")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    targets = ["xswap_cli"] + (["xswap_trace"] if trace else [])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  *targets])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    return {"xswap": BUILD / "xswap" / "tools" / "xswap",
            "trace": BUILD / "xswap_trace"}


# ------------------------------------------------------- child processes

class Child:
    """One `xswap` child; reaped with wait4 for its peak RSS."""

    def __init__(self, args: list[str], stdin, err_path: Path):
        self.started = time.monotonic()
        with open(err_path, "ab") as err:
            self.proc = subprocess.Popen(args, stdin=stdin,
                                         stdout=subprocess.PIPE, stderr=err)
        self.exit_code: int | None = None
        self.maxrss_kb = 0
        self.ended = 0.0

    def reap(self) -> None:
        if self.proc.stdin:
            self.proc.stdin.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.ended = time.monotonic()
        self.proc.returncode = self.exit_code = \
            os.waitstatus_to_exitcode(status)
        self.maxrss_kb = usage.ru_maxrss
        self.proc.stdout.close()

    @property
    def wall(self) -> float:
        return self.ended - self.started


def drive(child: Child, lines: list[str], rate: float | None) -> dict:
    """Feed `lines` to the child's stdin and collect its stdout.

    rate None is the closed loop: every line is due at once and the
    child's reading speed sets the pace. A rate is the open loop: line i
    is due at t0 + i / rate and is handed to an in-process buffer on
    schedule whether or not the child keeps up, so a stall shows as
    latency, not as a slower generator."""
    p = child.proc
    fd_in, fd_out = p.stdin.fileno(), p.stdout.fileno()
    os.set_blocking(fd_in, False)
    os.set_blocking(fd_out, False)
    data = [(line + "\n").encode() for line in lines]
    poller = select.poll()
    poller.register(fd_out, select.POLLIN)
    buf = bytearray()
    late: list[float] = []
    out: list[tuple[float, bytes]] = []
    partial = b""
    sent = 0
    stdin_open = True
    polling_in = False
    t0 = time.monotonic()
    if rate is None:
        buf += b"".join(data)
        sent = len(data)
    while True:
        now = time.monotonic()
        if rate is not None:
            while sent < len(data) and t0 + sent / rate <= now:
                buf += data[sent]
                late.append(now - (t0 + sent / rate))
                sent += 1
        if stdin_open and buf:
            try:
                del buf[:os.write(fd_in, buf)]
            except BlockingIOError:
                pass
            except BrokenPipeError:  # the child died; its exit code says why
                buf.clear()
                sent = len(data)
        if stdin_open and not buf and sent == len(data):
            if polling_in:
                poller.unregister(fd_in)
                polling_in = False
            p.stdin.close()
            stdin_open = False
        if stdin_open and bool(buf) != polling_in:
            if buf:
                poller.register(fd_in, select.POLLOUT)
            else:
                poller.unregister(fd_in)
            polling_in = bool(buf)
        if time.monotonic() > t0 + CHILD_DEADLINE_S:
            p.kill()
            child.reap()
            raise BenchError(f"child still running after {CHILD_DEADLINE_S} s")
        timeout = 1000.0
        if stdin_open and not buf:  # open loop, waiting for the next due line
            timeout = max(0.0, t0 + sent / rate - time.monotonic()) * 1000
        eof = False
        for fd, _ in poller.poll(timeout):
            if fd != fd_out:
                continue
            chunk = os.read(fd_out, 1 << 16)
            stamp = time.monotonic()
            if not chunk:
                eof = True
                break
            pieces = (partial + chunk).split(b"\n")
            partial = pieces.pop()
            out.extend((stamp, piece) for piece in pieces)
        if eof:
            break
    child.reap()
    return {"t0": t0, "out": out, "late": late}


def parse_lines(out: list[tuple[float, bytes]]):
    comps, stats = [], None
    for stamp, raw in out:
        try:
            j = json.loads(raw)
        except ValueError:
            continue
        if j.get("type") == "component":
            j["_read"] = stamp
            comps.append(j)
        elif j.get("type") == "stats":
            j["_read"] = stamp
            stats = j
    return comps, stats


def multiset_misses(expected: list, got: list) -> int:
    """Entries of either list without a partner in the other."""
    e, g = Counter(expected), Counter(got)
    return sum(((e - g) + (g - e)).values())


def check_serve(run: dict, child: Child, wl: xgen.Workload,
                problems: list[str]) -> tuple[int, int]:
    """Compare one serve pass with the reference: (attempted, failed)."""
    comps, stats = parse_lines(run["out"])
    expected = sum(len(r) for r in wl.reference)
    attempted = wl.events + expected
    if child.exit_code != 0 or stats is None:
        problems.append(f"serve exited {child.exit_code}, stats line "
                        f"{'missing' if stats is None else 'present'}")
        return attempted, attempted
    failed = 0
    bad = (stats["events_rejected_invalid"] + stats["parse_errors"] +
           stats["events_rejected_full"] + abs(stats["events_admitted"] -
                                               wl.events))
    failed += bad
    got: dict[int, list] = {}
    for c in comps:
        got.setdefault(c["clear"], []).append(
            (c["parties"], c["transfers"], c["leaders"]))
        if not (c["all_triggered"] and c["audit_ok"] and
                c["no_conforming_underwater"]):
            failed += 1
    for k in set(got) | set(range(len(wl.reference))):
        exp = wl.reference[k] if k < len(wl.reference) else []
        failed += multiset_misses(exp, got.get(k, []))
    failed += stats["violations"]
    checks = {
        "offers_unmatched": (stats["offers_unmatched"], wl.final_unmatched),
        "clears": (stats["clears"], len(wl.reference) + 1),
    }
    for name, (have, want) in checks.items():
        if have != want:
            failed += 1
            problems.append(f"serve {name} = {have}, expected {want}")
    if failed:
        problems.append(f"serve pass: {failed} failures "
                        f"(invalid/rejected events {bad})")
    return attempted, min(failed, attempted)


def parse_batch(text: str):
    comps, wall_ms, audits_ok = [], None, False
    for line in text.splitlines():
        if line.startswith("swap ") and " parties, " in line:
            head, _, verdict = line.partition(" -> ")
            fields = head.split(": ", 1)[1].split(", ")
            comps.append((int(fields[0].split()[0]),
                          int(fields[1].split()[0]),
                          int(fields[2].split()[0]),
                          verdict.strip() == "all triggered"))
        elif line.startswith("wall clock: "):
            wall_ms = float(line.split()[2])
        elif line.startswith("batch: "):
            audits_ok = line.rstrip().endswith("audits: ok")
    return comps, wall_ms, audits_ok


# ------------------------------------------------------------ workloads

def latency_stats(samples: list[float]) -> tuple[float, float, float]:
    """(p50, tail, tail percentile): the tail is the sample with exactly
    ten samples above it, or the median when there are fewer than 21."""
    s = sorted(samples)
    p50 = statistics.median(s)
    k = max(len(s) - 11, len(s) // 2)
    return p50, s[k], 100.0 * (k + 1) / len(s)


def report_latencies(wl: xgen.Workload, opened: dict, rate: float):
    """Due time of each `clear` line -> read time of each component line
    it produced, in ms."""
    due = [opened["t0"] + i / rate
           for i, line in enumerate(wl.lines) if line == "clear"]
    comps, _ = parse_lines(opened["out"])
    return [(c["_read"] - due[c["clear"]]) * 1000.0
            for c in comps if c["clear"] < len(due)]


class Bench:
    """One run of one workload.

    The run generates one closed-loop stream, one batch book (the
    components another stream clears) and one open-loop stream per rep,
    and every throughput or latency metric is the best of its reps. On
    a shared host other tenants slow whole stretches of a run, and the
    best rep repeats far better than the median (a minute of identical
    `xswap serve` runs on a shared 4-vCPU host: the median of each
    window of 17 runs moved by 13%, the best of each by 4%). The
    open-loop reps get streams of their own because the latency tail is
    set by the few slowest clearing points of a stream. Set-up time is
    the median of its reps, spread over the run."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        self.name = name
        self.cfg = SPEC["workloads"][name]
        self.seed = seed
        self.trace = trace
        self.bins = build(trace)
        self.work = WORK_ROOT / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.err = self.work / "child.stderr"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.maxrss_kb = 0
        self.seconds = seconds
        self.wl = self.generate(seed * 100, self.cfg["closed_events"])
        self.book_wl = self.generate(seed * 100 + 2, self.cfg["book_events"])
        self.start_dir: Path | None = None
        self.start_journals = 0

    # -- inputs

    def generate(self, seed: int, events: int):
        shape = self.cfg["shape"]
        if shape["generator"] == "rings":
            return xgen.ring_book(seed, events=events,
                                  clear_every=shape["clear_every"])
        return xgen.grouped_stream(
            seed, groups=shape["parties"] // shape["group_size"],
            size=shape["group_size"], events=events,
            clear_every=shape["clear_every"],
            expire_p=shape["expire_p"])

    def serve_args(self, durable: Path | None) -> list[str]:
        args = [str(self.bins["xswap"]), "serve", "--jobs",
                str(self.cfg["jobs"])]
        if durable is not None:
            args += ["--durable", str(durable)]
        return args

    def prepare_start_state(self) -> None:
        """Untimed: prior epochs of the same stream shape, journaled by
        the real service into the start directory."""
        epochs = self.cfg.get("prior_epochs", 0)
        if not epochs:
            return
        self.start_dir = self.work / "start"
        self.start_dir.mkdir()
        for e in range(epochs):
            prior = self.generate(self.seed * 100 + 50 + e,
                                  self.cfg["prior_events"])
            r = subprocess.run(self.serve_args(self.start_dir),
                               input=prior.stream_text().encode(),
                               stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL)
            if r.returncode != 0:
                raise BenchError(f"start-state epoch {e} failed")
        self.start_journals = sum(1 for p in self.start_dir.rglob("*")
                                  if p.is_dir() and any(p.glob("*.seg")))

    def reset_state(self) -> Path | None:
        """Bring back the start state: recovery only reads prior epochs,
        and a set-up run adds one empty epoch."""
        if self.start_dir is None:
            return None
        for epoch in self.start_dir.iterdir():
            if epoch.name >= f"run-{self.cfg['prior_epochs']:03d}":
                shutil.rmtree(epoch)
        return self.start_dir

    def track(self, child: Child) -> None:
        self.maxrss_kb = max(self.maxrss_kb, child.maxrss_kb)

    # -- passes

    def setup_pass(self, count: int) -> list[float]:
        """Walls of `count` runs of `xswap serve` on an empty stdin."""
        walls = []
        for _ in range(count):
            child = Child(self.serve_args(self.reset_state()),
                          subprocess.DEVNULL, self.err)
            text = child.proc.stdout.read()
            child.reap()
            self.track(child)
            walls.append(child.wall)
            stats = json.loads(text.splitlines()[-1]) if text else {}
            self.attempted += 1
            want = self.start_journals
            if child.exit_code != 0 or stats.get("recovered_ledgers") != want:
                self.failed += 1
                self.problems.append(
                    f"setup: exit {child.exit_code}, recovered "
                    f"{stats.get('recovered_ledgers')} of {want} journals")
        return walls

    def serve_pass(self, wl: xgen.Workload, rate: float | None, tag: str):
        """One stream pass, in memory: journal writes on a shared disk
        swing the whole pass by 15-30% from minute to minute, so they are
        timed per layer by the traced run instead."""
        child = Child(self.serve_args(None), subprocess.PIPE, self.err)
        run = drive(child, wl.lines, rate)
        attempted, failed = check_serve(run, child, wl, self.problems)
        self.attempted += attempted
        self.failed += failed
        self.track(child)
        (self.work / f"{tag}.out").write_bytes(
            b"\n".join(raw for _, raw in run["out"]))
        return run, child

    def batch_pass(self, wl: xgen.Workload, tag: str):
        book = self.work / f"{tag}.book"
        if not book.exists():
            book.write_text(wl.book_text())
        child = Child([str(self.bins["xswap"]), "batch", str(book), "--jobs",
                       str(self.cfg["jobs"])], subprocess.DEVNULL, self.err)
        text = child.proc.stdout.read().decode()
        child.reap()
        self.track(child)
        comps, wall_ms, audits_ok = parse_batch(text)
        expected = len(wl.book_reference)
        self.attempted += expected
        failed = multiset_misses(wl.book_reference,
                                 sorted(c[:3] for c in comps))
        failed += sum(1 for c in comps if not c[3])
        if child.exit_code != 0 or not audits_ok or wall_ms is None:
            failed = max(failed, 1)
        if failed:
            self.problems.append(f"batch: {failed} failures, exit "
                                 f"{child.exit_code}, audits_ok {audits_ok}")
        self.failed += min(failed, expected)
        return child, comps, wall_ms

    # -- the run

    def measure(self) -> dict:
        with phase("start state"):
            self.prepare_start_state()
        per_rep: dict[str, list[float]] = {}
        setup_walls: list[float] = []
        rate = self.cfg["rate"]
        wl = self.wl
        start = time.monotonic()
        r = 0
        while True:
            open_wl = self.generate(self.seed * 100 + 10 + r,
                                    self.cfg["open_events"])
            values = {}
            with phase(f"rep {r}"):
                setup_walls += self.setup_pass(self.cfg["setup_per_rep"])
                closed, closed_child = self.serve_pass(wl, None, "closed")
                batch = self.batch_pass(self.book_wl, "batch")
                opened, _ = self.serve_pass(open_wl, rate, "open")
                samples = report_latencies(open_wl, opened, rate)
                if not samples:
                    raise BenchError("open loop produced no reports")
                p50, tail, tail_pct = latency_stats(samples)
                values["report_latency_p50_ms"] = p50
                values["report_latency_tail_ms"] = tail
                log(f"perfbench: rep {r}: report latency tail is "
                    f"p{tail_pct:.2f} of {len(samples)} samples")
            if self.trace:
                comps, stats = parse_lines(closed["out"])
                with phase("traced replay"):
                    return tracestats.layer_metrics(
                        self, comps, stats, opened,
                        closed_child.wall + batch[0].wall +
                        statistics.median(setup_walls), batch)
            _, stats = parse_lines(closed["out"])
            end = stats["_read"] if stats else time.monotonic()
            values["events_per_s"] = wl.events / (end - closed["t0"])
            values["swaps_per_s"] = len(batch[1]) / batch[0].wall
            log(f"perfbench: rep {r}: " +
                ", ".join(f"{k} {v:.4g}" for k, v in values.items()))
            for key, value in values.items():
                per_rep.setdefault(key, []).append(value)
            r += 1
            elapsed = time.monotonic() - start
            if r >= MIN_REPS and elapsed * (r + 1) / r > self.seconds:
                break  # the next rep would likely end after --seconds
        log(f"perfbench: {r} reps in {elapsed:.2f} s: {wl.events} "
            f"closed-loop events, {open_wl.events} open-loop events at "
            f"{rate}/s, {len(self.book_wl.book_reference)} components in "
            f"the book")
        return {
            "setup_s": (statistics.median(setup_walls), "s"),
            "events_per_s": (max(per_rep["events_per_s"]), "events/s"),
            "report_latency_p50_ms":
                (min(per_rep["report_latency_p50_ms"]), "ms"),
            "report_latency_tail_ms":
                (min(per_rep["report_latency_tail_ms"]), "ms"),
            "swaps_per_s": (max(per_rep["swaps_per_s"]), "swaps/s"),
            "peak_rss_mb": (self.maxrss_kb / 1024.0, "MB"),
        }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(SPEC["workloads"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        bench = Bench(args.workload, args.seed, args.seconds,
                      bool(args.trace))
        metrics = bench.measure()
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    for p in bench.problems:
        log(f"perfbench: check failed: {p}")
    log(f"perfbench: error_rate {bench.failed / max(1, bench.attempted):.6f} "
        f"({bench.failed} failed of {bench.attempted} attempted)")
    correct = bench.failed == 0 and not bench.problems
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
