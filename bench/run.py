"""qfftsim benchmark: one command, every workload, end-to-end and per-layer metrics.

Usage, from the repository root::

    python3 bench/run.py --workload certify_m8 --seed 1 --seconds 27 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 27

The workloads and metrics are the ones ``BENCHMARK.json`` names. Each runs in a fresh interpreter (``bench/worker.py``) as a closed
loop with one client: the next op starts when the previous one returns.
``setup_s`` is the time from spawning that interpreter to its first timed op
(imports, input generation and one untimed warm-up op); the command sets up
``SETUPS`` times, all but once without measuring ops, and reports the median.

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics. With ``--trace 1`` the worker splits ``--seconds``
between an untraced pass and a traced pass of the same ops, and the JSON
object carries the per-layer metrics. Lines before it are for people. The process exits 0 only
when it has printed a result; failed ops are counted, not fatal.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: Set-up samples per run, the main worker's own included.
SETUPS = 3

#: A run must end within this many seconds, workers included.
DEADLINE_S = 170.0

TAIL_BEYOND = 10


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def tail(samples, beyond: int = TAIL_BEYOND):
    """Highest order statistic with at least ``beyond`` samples above it.

    Returns ``(value, percentile, count_beyond)``. When that statistic would
    lie below the median (``2 * beyond + 1`` samples or fewer) it says nothing
    about the tail, so the maximum is returned, as percentile 100 with nothing
    beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 2 * beyond:
        return ordered[-1], 100.0, 0
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def best_repetitions(records):
    """Each op input's fastest wall time, keyed by input."""
    best = {}
    for r in records:
        best[r["input"]] = min(best.get(r["input"], math.inf), r["wall"])
    return best


def end_to_end(setups, records, peak_rss_mb):
    """The metrics of one untraced pass, gated ones and printed ones.

    Op times exclude the output checks. A failed op counts in ``pass_ratio``
    and ``failed_ratio`` and never in a throughput.

    The best-of timings use each op input's fastest repetition in the run (its
    smallest wall and CPU time). On a shared host other tenants slow a core
    for seconds at a time; an input's best repetition is the one they slowed
    least. A slowdown that lasts the whole run still shows. The plain median,
    tail, throughput and CPU per op are printed beside them.
    """
    walls = [r["wall"] for r in records]
    passed = sum(r["ok"] for r in records)
    best_wall, best_cpu, input_ok = best_repetitions(records), {}, {}
    for r in records:
        key = r["input"]
        best_cpu[key] = min(best_cpu.get(key, math.inf), r["cpu"])
        input_ok[key] = input_ok.get(key, True) and r["ok"]
    return {
        "setup_s": statistics.median(setups),
        "op_best_s": statistics.median(best_wall.values()),
        "best_ops_per_s": sum(input_ok.values()) / sum(best_wall.values()),
        "best_cpu_per_op_s": statistics.mean(best_cpu.values()),
        "peak_rss_mb": peak_rss_mb,
        "pass_ratio": passed / len(records),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail(walls)[0],
        "ops_per_s": passed / sum(walls),
        "cpu_per_op_s": sum(r["cpu"] for r in records) / len(records),
        "failed_ratio": (len(records) - passed) / len(records),
    }


def trace_overhead(untraced, traced):
    """Median over inputs of best traced wall over best untraced wall, minus 1."""
    plain, wrapped = best_repetitions(untraced), best_repetitions(traced)
    return statistics.median(wrapped[k] / plain[k] for k in wrapped) - 1.0


def per_layer(result):
    """The per-layer metrics of a traced run, ``trace.overhead`` and ``cli.bytes_out`` included."""
    traced = result["traced"]
    return {
        **result["layers"],
        "trace.overhead": trace_overhead(result["untraced"], traced),
        "cli.bytes_out": sum(r["bytes_out"] for r in traced) / len(traced),
    }


def commit():
    """The checked-out commit, or 'unknown' outside a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def spawn(args, workdir, result_path, deadline, setup_only=False, spans=None):
    """Run one worker to completion; returns (spawn stamp, parsed result)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", workdir, "--result", result_path,
    ]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    env = {k: v for k, v in os.environ.items() if k != "QFFT_THREADS"}
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"bench: worker for {args.workload} passed the {DEADLINE_S:.0f} s deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise SystemExit(f"bench: worker for {args.workload} exited with code {code}")
    with open(result_path) as handle:
        return started, json.load(handle)


def run_workload(args, spec):
    """Set up SETUPS times, run the measured worker, and print the report."""
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        setups = []
        for k in range(SETUPS - 1):
            workdir = os.path.join(scratch, f"setup{k}")
            os.mkdir(workdir)
            started, result = spawn(args, workdir, os.path.join(workdir, "result.json"), deadline, True)
            setups.append(result["ready"] - started)
        workdir = os.path.join(scratch, "run")
        os.mkdir(workdir)
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl") if args.trace else None
        started, result = spawn(args, workdir, os.path.join(workdir, "result.json"), deadline, spans=spans)
        setups.append(result["ready"] - started)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report(args, spec, setups, result)


def report(args, spec, setups, result):
    records = result["untraced"] + result.get("traced", [])
    failed = sum(not r["ok"] for r in records)
    problems = sorted({r["reason"] for r in records if not r["ok"]})
    if result["warmup_reason"]:
        problems.insert(0, f"warm-up op: {result['warmup_reason']}")
    if result.get("leftover_wrappers"):
        problems.append(f"tracer left wrappers behind: {result['leftover_wrappers']}")

    meta = dict(result["meta"], commit=commit(), nproc=os.cpu_count(), seed=args.seed,
                workload=args.workload, seconds=args.seconds, trace=args.trace)
    print(f"== {args.workload}  seed {args.seed}  ({'traced' if args.trace else 'untraced'} run)")
    print("meta " + json.dumps(meta, sort_keys=True))
    untraced = result["untraced"]
    walls = [r["wall"] for r in untraced]
    e2e = end_to_end(setups, untraced, result["peak_rss_mb"])
    _, pct, beyond = tail(walls)
    n_failed = sum(not r["ok"] for r in untraced)
    n_inputs = len({r["input"] for r in untraced})
    notes = {
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
        "op_p50_s": f"{len(walls)} ops",
        "op_best_s": f"median over {n_inputs} inputs of each one's fastest of {len(walls) // n_inputs}+ repetitions",
        "op_tail_s": f"p{pct:.1f} of {len(walls)} ops, {beyond} beyond"
        + ("" if beyond else " (too few ops for a tail percentile: maximum)"),
        "failed_ratio": f"{n_failed} of {len(untraced)} ops",
    }
    gated = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    printed = {"op_best_s": "s", "best_cpu_per_op_s": "s", "op_p50_s": "s", "op_tail_s": "s",
               "ops_per_s": "1/s", "cpu_per_op_s": "s", "failed_ratio": "1"}
    for name, unit in {**gated, **printed}.items():
        mark = "" if name in gated else "(printed, not gated) "
        print(f"  {name:<18} {e2e[name]:>12.6g} {unit:<4} {mark}{notes.get(name, '')}")
    by_kind = {}
    for r in untraced:
        by_kind.setdefault(r["kind"], []).append(r["wall"])
    for kind, kind_walls in by_kind.items():
        print(f"    {kind:<22} {len(kind_walls):>3} ops, median {statistics.median(kind_walls):.4f} s")

    if args.trace:
        values, wanted = per_layer(result), spec["per_layer"]
        for m in wanted:
            print(f"  {m['name']:<32} {values[m['name']]:>14.6g} {m['unit']}")
        for kind, shares in result["shares_by_kind"].items():
            top = sorted(shares.items(), key=lambda kv: -kv[1])
            print(f"    self-time share, {kind}: " + ", ".join(f"{k} {v:.1%}" for k, v in top))
    else:
        values, wanted = e2e, spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print("check: " + ("every op passed its output check" if not problems else "; ".join(problems)))
    print(json.dumps({"correct": not problems and failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qfftsim", "__init__.py")):
        print(f"bench: no qfftsim sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if not (math.isfinite(args.seconds) and args.seconds > 0):
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    names = workloads if args.workload == "all" else [args.workload]
    for name in names:
        run_workload(argparse.Namespace(**{**vars(args), "workload": name}), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
