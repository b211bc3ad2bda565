"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root::

    python3 bench/spread.py --seeds 1-10 --workloads certify_m8 reference_stats
    python3 bench/spread.py --seeds 1-10 --record set1

For every end-to-end metric it prints the median of the runs, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and their distance as
a share of the median, next to the metric's bound from ``BENCHMARK.json``.
``--record NAME`` stores those figures under ``baseline.NAME`` in
``bench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baseline.json")


def seeds_from(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--record", help="store the figures under this name in baseline.json")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    figures = {}
    for workload in args.workloads:
        runs = []
        for seed in seeds_from(args.seeds):
            started = time.monotonic()
            result = one_run(workload, seed, args.seconds)
            elapsed = time.monotonic() - started
            if not result["correct"]:
                print(f"{workload} seed {seed}: outputs failed their check", flush=True)
            runs.append(result["metrics"])
            print(f"{workload} seed {seed} ({elapsed:.1f} s): " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        figures[workload] = {}
        for name in runs[0]:
            values = [r[name]["value"] for r in runs]
            figures[workload][name] = summary(values)
            s = figures[workload][name]
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "ok" if s["spread"] < bound / 3 else ("wide" if s["spread"] <= bound else "FAIL")
            print(f"  {workload:<16} {name:<30} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} bound {bound} {flag}", flush=True)

    if args.record:
        with open(BASELINE) as handle:
            baseline = json.load(handle)
        for workload, metrics in figures.items():
            entry = baseline["baseline"].setdefault(args.record, {})
            entry[workload] = {name: {k: round(v, 6) for k, v in s.items()} for name, s in metrics.items()}
            entry["seeds"] = args.seeds
            entry["seconds"] = args.seconds
        with open(BASELINE, "w") as handle:
            json.dump(baseline, handle, indent=2)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
