"""Benchmark of the jumploci CLI: one workload, one process, one thread.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload membership --seed 1111 --seconds 30 --trace 0

The workload's operations are generated from the seed (see
``perfbench/workloads.py``) and run as a closed loop through
``jumploci.cli.main`` in this process: the next CLI call starts when the
previous one returns, pass after pass over the fixed list, until
``--seconds`` have elapsed (at least three passes).  Every answer is checked
by the benchmark's own code (``perfbench/checks.py``), and every later pass
must print byte-identical output.  Call and set-up times are reported at
full machine speed: each time is scaled by the slowdown that a fixed
reference kernel shows right around it (see :func:`reference_kernel`), and
the summary lines also print them as timed.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of
``perfbench/trace.py``.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable summary.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

MIN_PASSES = 3
SETUP_REPEATS = 7

#: Seconds the reference kernel takes when the machine runs at full speed
#: (its fastest time on the 2-vCPU machine the first results were taken on).
REFERENCE_KERNEL_S = 550e-6
_KERNEL_ROWS = tuple(tuple(Fraction((7 * i + 3 * j) % 11 - 5, (i + j) % 5 + 1)
                           for j in range(6)) for i in range(6))


def reference_kernel() -> float:
    """Seconds taken by a fixed exact elimination of the benchmark's own.

    Load from outside the process slows the whole machine by up to 2x, in
    bursts shorter than a second and in drifts lasting minutes.  The kernel
    is timed right before and after every timed call; the ratio of its time
    to REFERENCE_KERNEL_S is the slowdown the call ran under.
    """
    t0 = time.perf_counter()
    work = [list(row) for row in _KERNEL_ROWS]
    for col in range(6):
        piv = next((i for i in range(col, 6) if work[i][col]), None)
        if piv is None:
            continue
        work[col], work[piv] = work[piv], work[col]
        for i in range(6):
            if i != col and work[i][col]:
                f = work[i][col] / work[col][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[col])]
    return time.perf_counter() - t0

#: Run in a fresh interpreter: import the CLI, build the inputs, report the
#: monotonic clock (system-wide, so comparable with the parent's) and the
#: digest of the inputs.
_SETUP_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
import jumploci.cli
from perfbench import workloads
ops = workloads.build(sys.argv[3], int(sys.argv[4]))
done = time.monotonic()
print(done, workloads.argv_digest(ops))
"""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class Runner:
    """Calls the CLI for each operation and keeps the first answer of each."""

    def __init__(self, cli, ops, checks):
        self.cli = cli
        self.ops = ops
        self.checks = checks
        self.first = [None] * len(ops)      # (exit code, stdout) of pass 1
        self.bad = [None] * len(ops)        # reason, once an op has failed
        self.attempted = 0
        self.failed = 0

    def one_pass(self, timed=None, scaled=None) -> None:
        """Run every op once.

        With ``timed`` and ``scaled`` (one list per op), every call's time
        is appended to them, as timed and at full speed; the reference
        kernel is then timed right before and right after every call.
        """
        before = reference_kernel() if scaled is not None else None
        for i, op in enumerate(self.ops):
            buf = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = self.cli.main(list(op.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:        # a crash is a failed operation
                code = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if scaled is not None:
                after = reference_kernel()
                timed[i].append(t1 - t0)
                scaled[i].append(at_full_speed(t1 - t0, before, after))
                before = after
            self._judge(i, code, buf.getvalue())

    def _judge(self, i, code, out) -> None:
        self.attempted += 1
        if self.first[i] is None:
            self.first[i] = (code, out)
            reason = self.checks.check(self.ops[i].expect, code, out) \
                if isinstance(code, int) else f"exception {code}"
        elif self.first[i] != (code, out):
            reason = "answer differs from the first pass"
        else:
            reason = self.bad[i]
        if reason is not None:
            self.failed += 1
            if self.bad[i] is None:
                self.bad[i] = reason
                print(f"FAILED {self.ops[i].argv[0]} #{i}: {reason}")


def at_full_speed(seconds: float, before: float, after: float) -> float:
    """A time taken while the kernel took ``before`` and ``after`` seconds,
    scaled to the machine speed at which it takes REFERENCE_KERNEL_S."""
    return seconds * REFERENCE_KERNEL_S * 2 / (before + after)


def _setup_probe(workload: str, seed: int) -> tuple[float, float, str]:
    """Launch-to-inputs-built time of a fresh interpreter, as timed and at
    full speed, and the digest of the inputs it built."""
    before = reference_kernel()
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, SRC, ROOT, workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    done, digest = proc.stdout.split()
    seconds = float(done) - t0
    return seconds, at_full_speed(seconds, before, reference_kernel()), digest


def _quantile(values, q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1]


def _latency_metrics(per_call: list[float]) -> dict:
    return {
        "ops_per_s": (len(per_call) / sum(per_call), "op/s"),
        "op_p50_ms": (statistics.median(per_call) * 1e3, "ms"),
        "op_p90_ms": (_quantile(per_call, 90) * 1e3, "ms"),
    }


def _end_to_end(timed, scaled, probes, digest, passes):
    """Metrics at full machine speed: each call's median over the passes of
    its time scaled by the kernel's slowdown around it."""
    same_inputs = all(d == digest for _, _, d in probes)
    if not same_inputs:
        print("FAILED: a fresh interpreter built different inputs")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"op latency samples: {len(scaled)} calls, each the median of "
          f"{passes} passes")
    as_timed = _latency_metrics([statistics.median(s) for s in timed])
    as_timed["setup_s"] = (statistics.median(t for t, _, _ in probes), "s")
    print("as timed: " + ", ".join(f"{k} = {v:.6g} {u}"
                                   for k, (v, u) in as_timed.items()))
    metrics = _latency_metrics([statistics.median(s) for s in scaled])
    metrics["setup_s"] = (statistics.median(t for _, t, _ in probes), "s")
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    return metrics, same_inputs


def _per_layer(runner, trace, laurent, seconds):
    """Alternate untraced and traced passes; per-pass layer figures.

    A first untraced pass fills the library's caches and records the
    answers that every traced pass must repeat byte for byte.  The tracing
    overhead compares the full-speed times of the two kinds of pass.
    """
    tracer = trace.Tracer()
    runner.one_pass()
    n = len(runner.ops)
    plain, traced = [[] for _ in range(n)], [[] for _ in range(n)]
    summaries = []
    counters: dict[str, int] = {}
    start = time.perf_counter()
    while len(summaries) < 2 or time.perf_counter() - start < seconds:
        runner.one_pass([[] for _ in range(n)], plain)
        tracer.install()
        try:
            runner.one_pass([[] for _ in range(n)], traced)
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary())
        for key, value in tracer.counters.items():
            counters[key] = counters.get(key, 0) + value
        tracer.reset()
    k = len(summaries)
    metrics = {}
    for name, _, _, figures in trace.TARGETS:
        if "calls" in figures:
            calls = sum(s[name][0] for s in summaries) / k
            metrics[f"{name}.calls"] = (calls, "count")
        if "self_s" in figures:
            self_s = sum(s[name][1] for s in summaries) / k
            metrics[f"{name}.self_s"] = (self_s, "s")
    lcs = "qlinalg.lattice_coset_solve"
    total = sum(s[lcs][0] for s in summaries)
    metrics[f"{lcs}.hit_ratio"] = (
        counters.get(f"{lcs}.hits", 0) / total if total else 0.0, "ratio")
    apm = "tcone.admissible_partitions_maximal"
    visited = sum(s["tcone.partition_subspace"][0] for s in summaries)
    metrics["tcone.maximal_ratio"] = (
        counters.get(f"{apm}.returned", 0) / visited if visited else 0.0, "ratio")
    cache = getattr(getattr(laurent, "_power_table", None), "cache_info", None)
    info = cache() if cache is not None else None
    metrics["laurent.power_table.misses"] = (info.misses if info else 0, "count")
    metrics["laurent.power_table.entries"] = (info.currsize if info else 0, "count")
    metrics["trace.overhead_ratio"] = (
        sum(statistics.median(t) for t in traced)
        / sum(statistics.median(t) for t in plain), "ratio")
    print(f"traced passes: {k}, untraced passes: {k}")
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "jumploci", "cli.py")):
        print(f"perfbench: no jumploci sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from jumploci import cli, laurent
    from perfbench import checks, trace, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    ops = workloads.build(args.workload, seed)
    digest = workloads.argv_digest(ops)
    print(f"workload {args.workload}, seed {seed}, {len(ops)} ops, "
          f"inputs sha256 {digest}")

    runner = Runner(cli, ops, checks)
    same_inputs = True
    if args.trace:
        metrics = _per_layer(runner, trace, laurent, args.seconds)
    else:
        # set-up probes run between passes, so that their median spans the
        # run rather than one moment of it
        probes = []
        timed, scaled = [[] for _ in ops], [[] for _ in ops]
        start = time.perf_counter()
        passes = 0
        while passes < MIN_PASSES or time.perf_counter() - start < args.seconds:
            runner.one_pass(timed, scaled)
            passes += 1
            if len(probes) < SETUP_REPEATS:
                probes.append(_setup_probe(args.workload, seed))
        while len(probes) < SETUP_REPEATS:
            probes.append(_setup_probe(args.workload, seed))
        metrics, same_inputs = _end_to_end(timed, scaled, probes, digest,
                                           passes)
    ratio = runner.failed / runner.attempted
    print(f"fail_ratio: {ratio:g} ({runner.failed} of {runner.attempted} calls)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0 and same_inputs,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
