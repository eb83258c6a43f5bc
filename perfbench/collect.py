"""Repeat benchmark runs over seeds and summarize each metric.

Usage, from the root of a source checkout::

    python3 perfbench/collect.py --workloads membership tcone characters \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --trace-seeds 1111 --out results.json

Runs ``perfbench/run.py`` once per (workload, seed), one after another:
untraced for every ``--seeds`` entry, traced for every ``--trace-seeds``
entry.  Prints for every metric the median, the quartiles and the spread
(the distance between the quartiles, from ``statistics.quantiles(values,
n=4)``, as a share of the median).  With ``--out`` the figures, every run's
values and the inputs digest of every run are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["inputs_sha256"] = next(
        (ln.rsplit(" ", 1)[1] for ln in lines if "inputs sha256" in ln), None)
    return result


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def _metrics(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        m = out[name] = dict(unit=runs[0]["metrics"][name]["unit"],
                             **summarize(values))
        print(f"  {name:40s} median {m['median']:12.6g} {m['unit']:6s} "
              f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread {m['spread']:.3f}",
              flush=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="*", type=int, default=[])
    parser.add_argument("--trace-seeds", nargs="*", type=int, default=[])
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            seconds = json.load(fh)["run_seconds"]

    report = {"seconds": seconds, "python": platform.python_version(),
              "cpus": os.cpu_count(), "workloads": {}}
    all_correct = True
    for workload in args.workloads:
        entry = report["workloads"][workload] = {}
        for key, trace, seeds in (("end_to_end", 0, args.seeds),
                                  ("per_layer", 1, args.trace_seeds)):
            if not seeds:
                continue
            runs = []
            for seed in seeds:
                result = run_once(workload, seed, seconds, trace)
                runs.append(result)
                all_correct = all_correct and result["correct"]
                print(f"{workload} trace {trace} seed {seed}: "
                      f"correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}",
                      flush=True)
            entry[key] = {
                "seeds": seeds,
                "correct": all(r["correct"] for r in runs),
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "inputs_sha256": {str(s): r["inputs_sha256"]
                                  for s, r in zip(seeds, runs)},
                "metrics": _metrics(runs),
            }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
