"""One workload process: set up, then a closed loop of ops with one client.

Started by ``run.py`` in a fresh interpreter. It imports the package,
builds the inputs from the seed, writes them into its work directory, runs
one untimed warm-up op and stamps the moment it is ready (on the system-wide
monotonic clock, so the parent can subtract its own spawn stamp). With
``--setup-only`` it stops there. Otherwise it runs the untraced pass for
``--seconds``; with ``--trace 1`` the untraced and the traced pass get half
of ``--seconds`` each, and every wrapped binding is restored after the
traced pass. A pass repeats the op cycle until its time is up, ending on a
cycle boundary so every run does the same mix of ops.

The result goes to ``--result`` as one JSON object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import qfftsim  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics, leftover_wrappers, shares_by_kind  # noqa: E402


def run_pass(workload, prepared, seconds, min_cycles, tracer=None):
    """Closed loop over whole op cycles, at least ``min_cycles``; one record per op."""
    records = []
    start = time.perf_counter()
    for cycle in itertools.count():
        for index, prep in enumerate(prepared):
            records.append(run_op(workload, index, prep, tracer, len(records)))
        if cycle + 1 >= min_cycles and time.perf_counter() - start >= seconds:
            return records


def run_op(workload, index, prep, tracer, op_id):
    """Run and check one op; an op that raises is a failed op, not a dead run."""
    if tracer is not None:
        tracer.op = op_id
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = workload.run(prep)
        else:
            with tracer.span("bench.op", "bench"):
                result = workload.run(prep)
        error = None
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    c1 = time.process_time()
    reason = error or workload.check(prep, result)
    return {
        "input": index,
        "kind": workload.kind(prep),
        "wall": t1 - t0,
        "cpu": c1 - c0,
        "ok": reason is None,
        "reason": reason,
        "bytes_out": workload.bytes_out(prep),
    }


def openblas_threads():
    """The thread count of the OpenBLAS bundled with numpy, or None if not found."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    items = workload.inputs(args.seed)
    prepared = workload.prepare(items, args.workdir)
    warmup = workload.run(prepared[0])
    warmup_reason = workload.check(prepared[0], warmup)
    ready = time.monotonic()
    out = {"ready": ready, "warmup_reason": warmup_reason}
    if not args.setup_only:
        # The gated metrics take each input's best of at least two repetitions;
        # a traced run reports per-layer figures, for which one cycle will do.
        seconds, min_cycles = (args.seconds / 2, 1) if args.trace else (args.seconds, 2)
        out["untraced"] = run_pass(workload, prepared, seconds, min_cycles)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            with Tracer() as tracer:
                tracer.install(qfftsim, callers=[workloads])
                traced = run_pass(workload, prepared, seconds, min_cycles, tracer)
            out["traced"] = traced
            out["layers"] = layer_metrics(tracer.spans, len(traced))
            out["shares_by_kind"] = shares_by_kind(tracer.spans, [r["kind"] for r in traced])
            out["leftover_wrappers"] = leftover_wrappers(qfftsim, callers=[workloads])
            if args.spans:
                tracer.write(args.spans)
        out["meta"] = {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "qfftsim": qfftsim.__version__,
            "openblas_threads": openblas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        }
    with open(args.result, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
