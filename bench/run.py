"""stablepairs benchmark: one seeded workload, timed, checked, reported.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the library is imported from its
``src/`` directory.  One process and one thread drive a closed loop with a
single client: the next operation starts when the previous one returns (for
``cli``, one child process at a time).

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds.
``--trace 1`` runs a fixed number of operations once untraced and once with
spans around the library's public functions, and reports per-layer metrics
and the tracing overhead.  Every output is checked after the timed region;
the last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, and the exit code is 1 if any output was wrong.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
OUTDIR = ROOT / ".bench_out"

SETUP_PROBES = 7
TAIL_BEYOND = 10
SPAWN_PROBES = 5


def spec_units(kind: str) -> dict[str, str]:
    """Metric name to unit for "end_to_end" or "per_layer" in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def with_units(metrics: dict, kind: str) -> dict:
    units = spec_units(kind)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json's {kind}: "
                           f"{sorted(set(metrics) ^ set(units))}")
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


# ---------------------------------------------------------------------------
# Environment

def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(), "numpy": numpy_version,
        "git_commit": git_commit(), "trace_overhead": None,
    }


# ---------------------------------------------------------------------------
# Measurement helpers

def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_BEYOND samples above it,
    that percentile, and the number of samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / n, n - k - 1


def children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_child(argv: list[str], env=None) -> subprocess.CompletedProcess:
    return subprocess.run(argv, capture_output=True, env=env, cwd=ROOT, timeout=120, check=True)


def setup_seconds(args) -> float:
    """Median set-up time (import plus seeded inputs) over fresh
    interpreters, after one unmeasured run that fills the bytecode cache."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"]
    samples = [float(run_child(argv).stdout) for _ in range(SETUP_PROBES + 1)]
    return statistics.median(samples[1:])


class OpLog:
    """Latencies and ``(op index, result)`` pairs of the ops run so far.

    An op that raises is logged with result None and counts as failed.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.results: list[tuple] = []
        self.raised: set[int] = set()

    def run(self, fn, idx: int, op):
        t0 = time.perf_counter()
        try:
            res = fn(op)
        except Exception as exc:
            print(f"op {idx} raised {exc!r}", file=sys.stderr)
            res = None
            self.raised.add(len(self.results))
        self.latencies.append(time.perf_counter() - t0)
        self.results.append((idx, res))


def gate(wl, logs: list[OpLog]):
    """Check the outputs of every logged op; returns (attempted, failed,
    gate report)."""
    ok, failed, attempted = [], 0, 0
    for log in logs:
        attempted += len(log.results)
        failed += len(log.raised)
        ok += [r for k, r in enumerate(log.results) if k not in log.raised]
    report = wl.check(ok)
    return attempted, failed + len(report.wrong), report


# ---------------------------------------------------------------------------
# The two kinds of run

def untraced(args, wl, env) -> tuple[dict, int, int, dict]:
    log = OpLog()
    cpu_now = time.process_time if wl.in_process else children_cpu
    cpu0 = cpu_now()
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        idx = len(log.results) % len(wl.ops)
        log.run(wl.run_op, idx, wl.ops[idx])
    elapsed = time.perf_counter() - start
    cpu = cpu_now() - cpu0
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0

    n = len(log.results)
    attempted, failed, report = gate(wl, [log])
    tail_ms, tail_pct, beyond = tail(log.latencies)
    metrics = {
        "setup_s": setup_seconds(args),
        "ops_per_s": n / elapsed,
        "latency_p50_ms": statistics.median(log.latencies) * 1e3,
        "cpu_ms_per_op": cpu / n * 1e3,
        "peak_rss_mb": peak_mb,
    }
    # The tail is reported but not bounded in BENCHMARK.json: with only ten
    # samples beyond it, it spread up to 0.30 across seeds on corpus.
    detail = {"latency_tail_ms": tail_ms * 1e3, "tail_percentile": tail_pct,
              "tail_samples_beyond": beyond, "samples": n,
              "error_rate": failed / attempted, "digest": report.digest, "checks": report.checks}
    return with_units(metrics, "end_to_end"), attempted, failed, detail


def median_child_ms(argv, env) -> float:
    samples = []
    for _ in range(SPAWN_PROBES):
        t0 = time.perf_counter()
        run_child(argv, env)
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def traced(args, wl, env) -> tuple[dict, int, int, dict]:
    import tracing

    count = max(round(wl.trace_ops_per_second * args.seconds), 1)
    indices = [k % len(wl.ops) for k in range(count)]
    logs = []
    extra = {}
    if wl.in_process:
        run_inproc = wl.run_op
    else:
        # Children cannot be traced from here: run each command as a child
        # for its latency, then replay it through cli.main in this process.
        children = OpLog()
        for idx in indices:
            children.run(wl.run_op, idx, wl.ops[idx])
        logs.append(children)
        run_inproc = wl.run_inproc
        spawn = median_child_ms([sys.executable, "-c", "pass"], wl.env)
        imported = median_child_ms([sys.executable, "-c", "import stablepairs.cli"], wl.env)
        extra = {"cli.spawn_ms": spawn, "cli.import_ms": imported - spawn}

    # Each op runs once bare and once traced, alternating which goes first,
    # so that warm-up falls on both sides of the overhead ratio alike.
    bare, under_trace = OpLog(), OpLog()
    tracer = tracing.Tracer()
    for k, idx in enumerate(indices):
        op = wl.ops[idx]
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if not with_trace:
                bare.run(run_inproc, idx, op)
                continue
            tracer.install()
            try:
                under_trace.run(lambda o: tracer.run_op(k, run_inproc, o), idx, op)
            finally:
                tracer.uninstall()
    logs += [bare, under_trace]
    tracer.write(OUTDIR / f"spans-{args.workload}-seed{args.seed}.jsonl")

    bare_s = sum(bare.latencies)
    overhead = bare_s / sum(under_trace.latencies)
    env["trace_overhead"] = overhead
    metrics = dict.fromkeys(spec_units("per_layer"), 0.0)
    metrics.update(tracer.layer_metrics(count))
    metrics.update(extra)
    metrics["trace.overhead"] = overhead
    metrics["trace.op_ms"] = sum(logs[0].latencies) / count * 1e3
    if not wl.in_process:
        metrics["cli.inproc_ms"] = bare_s / count * 1e3

    attempted, failed, report = gate(wl, logs)
    detail = {"traced_ops": count, "digest": report.digest, "checks": report.checks,
              "error_rate": failed / attempted}
    return with_units(metrics, "per_layer"), attempted, failed, detail


def main(argv=None) -> int:
    if not (SRC / "stablepairs" / "__init__.py").is_file():
        print(f"error: no stablepairs package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH), str(SRC)]
    t0 = time.perf_counter()  # for --setup-probe: before the library is imported
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.setup_probe:
        wl = workloads.make(args.workload, args.seed, WORKDIR)
        print(repr(time.perf_counter() - t0))
        wl.close()
        return 0

    env = environment(args)
    wl = workloads.make(args.workload, args.seed, WORKDIR)
    try:
        run = traced if args.trace else untraced
        metrics, attempted, failed, detail = run(args, wl, env)
    finally:
        wl.close()

    for name, m in metrics.items():
        print(f"{args.workload:10s} {name:28s} {m['value']:14.6f} {m['unit']}")
    if "latency_tail_ms" in detail:
        print(f"{args.workload:10s} {'latency_tail_ms':28s} {detail['latency_tail_ms']:14.6f} ms"
              f" (p{detail['tail_percentile']:.2f} of {detail['samples']} samples,"
              f" {detail['tail_samples_beyond']} beyond it)")
    print(f"{args.workload:10s} {'error_rate':28s} {detail['error_rate']:14.6f} ratio")
    print(json.dumps({"env": env, "detail": detail}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
