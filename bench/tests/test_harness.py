"""Tests of the benchmark harness's own logic (not of qfftsim)."""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import qfftsim  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics, leftover_wrappers, self_times  # noqa: E402


def span(sid, name, start, end, parent, busy=None, op=0, failed=False, counts=None):
    layer = name.split(".")[0]
    busy = end - start if busy is None else busy
    return (sid, name, layer, start, end, busy, parent, op, failed, counts)


class TestSelfTime:
    def spans(self):
        return [
            span(1, "linalg.permanent", 1.0, 4.0, 0),
            span(3, "linalg.permanent", 6.0, 7.0, 2),
            span(2, "models.fock_distribution", 5.0, 9.0, 0),
            # a generator span: open from 2.0 to 9.5 but busy for 1.5 of it
            span(4, "fourier.enumerate_outputs", 2.0, 9.5, 0, busy=1.5),
            span(0, "bench.op", 0.0, 10.0, None),
        ]

    def test_duration_minus_children(self):
        own = self_times(self.spans())
        assert own == {0: 10.0 - 3.0 - 4.0 - 1.5, 1: 3.0, 2: 4.0 - 1.0, 3: 1.0, 4: 1.5}

    def test_self_times_add_up_to_the_root(self):
        assert sum(self_times(self.spans()).values()) == pytest.approx(10.0)

    def test_layer_metrics_per_op(self):
        spans = self.spans()
        second_op = [s[:7] + (1,) + s[8:] for s in spans]
        second_op = [(s[0] + 10,) + s[1:6] + (None if s[6] is None else s[6] + 10,) + s[7:] for s in second_op]
        metrics = layer_metrics(spans + second_op, n_ops=2)
        assert metrics["linalg.self_ms"] == pytest.approx(4000.0)
        assert metrics["models.self_ms"] == pytest.approx(3000.0)
        assert metrics["fourier.self_ms"] == pytest.approx(1500.0)
        assert metrics["linalg.permanent.calls"] == 2
        assert metrics["linalg.permanent.share"] == pytest.approx(0.4)

    def test_failed_spans_counted_per_layer(self):
        spans = [span(0, "bench.op", 0.0, 2.0, None), span(1, "certify.violation_curve", 0.5, 1.0, 0, failed=True)]
        metrics = layer_metrics(spans, n_ops=1)
        assert metrics["certify.failed"] == 1
        assert metrics["linalg.failed"] == 0

    def test_best_basin_ratio_ignores_the_polish(self):
        fit = span(1, "reconstruct.fit_phases", 0.0, 9.0, 0, counts={"restarts": 3})
        restarts = [
            span(2 + k, "reconstruct.minimize", k, k + 1.0, 1, counts={"nfev": 10, "fun": fun})
            for k, fun in enumerate((5.0, 5.0 + 1e-9, 7.0, 5.0))  # the last is the polish
        ]
        metrics = layer_metrics([span(0, "bench.op", 0.0, 10.0, None), fit, *restarts], n_ops=1)
        assert metrics["reconstruct.best_basin_ratio"] == pytest.approx(2 / 3)
        assert metrics["reconstruct.objective_evals"] == 40


class TestTail:
    def test_ten_samples_beyond(self):
        samples = list(range(30, 0, -1))
        value, pct, beyond = run.tail(samples)
        assert value == 20
        assert sum(s > value for s in samples) == beyond == 10
        assert pct == pytest.approx(100.0 * 20 / 30)

    def test_smallest_sample_count_with_a_percentile(self):
        value, pct, beyond = run.tail([float(k) for k in range(21)])
        assert (value, beyond) == (10.0, 10)
        assert pct == pytest.approx(100.0 * 11 / 21)

    def test_too_few_samples_gives_the_maximum(self):
        assert run.tail([float(k) for k in range(20)]) == (19.0, 100.0, 0)
        assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


class TestEndToEnd:
    RECORDS = [
        {"input": 0, "wall": 1.0, "cpu": 1.0, "ok": True},
        {"input": 1, "wall": 1.0, "cpu": 1.0, "ok": False},
        {"input": 0, "wall": 2.0, "cpu": 1.5, "ok": True},
        {"input": 1, "wall": 4.0, "cpu": 3.0, "ok": True},
        {"input": 2, "wall": 3.0, "cpu": 2.0, "ok": True},
        {"input": 2, "wall": 5.0, "cpu": 3.0, "ok": True},
    ]

    def test_failed_ops_count_against_pass_ratio_not_throughput(self):
        metrics = run.end_to_end([1.0, 3.0, 2.0], self.RECORDS, 100.0)
        assert metrics["ops_per_s"] == pytest.approx(5 / 16)
        assert metrics["pass_ratio"] == pytest.approx(5 / 6)
        assert metrics["failed_ratio"] == pytest.approx(1 / 6)
        # input 1 failed once, so only inputs 0 and 2 count in the best-case throughput
        assert metrics["best_ops_per_s"] == pytest.approx(2 / (1.0 + 1.0 + 3.0))

    def test_best_repetition_per_input(self):
        metrics = run.end_to_end([1.0, 3.0, 2.0], self.RECORDS, 100.0)
        assert metrics["setup_s"] == 2.0
        assert metrics["op_best_s"] == 1.0
        assert run.best_repetitions(self.RECORDS) == {0: 1.0, 1: 1.0, 2: 3.0}
        assert metrics["best_cpu_per_op_s"] == pytest.approx((1.0 + 1.0 + 2.0) / 3)
        assert metrics["op_p50_s"] == 2.5
        assert metrics["cpu_per_op_s"] == pytest.approx(11.5 / 6)

    def test_trace_overhead_compares_best_repetitions(self):
        traced = [
            {"input": 0, "wall": 1.5, "cpu": 1.5, "ok": True},
            {"input": 1, "wall": 1.1, "cpu": 1.1, "ok": True},
            {"input": 2, "wall": 3.3, "cpu": 3.3, "ok": True},
            {"input": 2, "wall": 9.0, "cpu": 9.0, "ok": True},
        ]
        # per-input ratios 1.5, 1.1 and 1.1; their median is 1.1
        assert run.trace_overhead(self.RECORDS, traced) == pytest.approx(0.1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_byte_identical_for_a_seed(name):
    workload = workloads.WORKLOADS[name]
    first = json.dumps(workload.inputs(7)).encode()
    assert json.dumps(workload.inputs(7)).encode() == first
    assert json.dumps(workload.inputs(8)).encode() != first


def all_bindings():
    namespaces = [qfftsim, workloads, *tracer._layer_modules(qfftsim).values()]
    return {(ns.__name__, attr): id(obj) for ns in namespaces for attr, obj in vars(ns).items()}


class TestTracer:
    def test_leaves_no_wrapper_behind(self):
        before = all_bindings()
        with Tracer() as t:
            t.install(qfftsim, callers=[workloads])
            assert hasattr(sys.modules["qfftsim.models"].permanent, "span_name")
            assert hasattr(sys.modules["qfftsim.reconstruct"].minimize, "span_name")
            assert hasattr(workloads.qfft_main, "span_name")
            assert leftover_wrappers(qfftsim, callers=[workloads])
        assert all_bindings() == before
        assert leftover_wrappers(qfftsim, callers=[workloads]) == []

    def test_restores_after_an_error(self):
        before = all_bindings()
        with pytest.raises(RuntimeError):
            with Tracer() as t:
                t.install(qfftsim, callers=[workloads])
                raise RuntimeError("op blew up")
        assert all_bindings() == before

    def test_spans_nest_at_layer_boundaries(self):
        u = qfftsim.qft_matrix(4)
        state = (1, 0, 1, 0)
        plain = qfftsim.fock_distribution(u, state)
        with Tracer() as t:
            t.install(qfftsim, callers=[workloads])
            t.op = 0
            traced = workloads.fock_distribution(u, state)
        assert traced.probabilities == plain.probabilities
        by_name = {}
        for s in t.spans:
            by_name.setdefault(s[tracer.NAME], []).append(s)
        (fock,) = by_name["models.fock_distribution"]
        (outputs,) = by_name["fourier.enumerate_outputs"]
        assert len(by_name["linalg.permanent"]) == len(plain.probabilities) == 10
        assert {s[tracer.PARENT] for s in by_name["linalg.permanent"]} == {fock[tracer.ID]}
        assert outputs[tracer.PARENT] == fock[tracer.ID]
        assert 0.0 < outputs[tracer.BUSY] <= outputs[tracer.END] - outputs[tracer.START]
        assert fock[tracer.COUNTS] == {"outcomes": 10}
        assert all(s[tracer.OP] == 0 and not s[tracer.FAILED] for s in t.spans)
        own = self_times(t.spans)
        assert own[fock[tracer.ID]] > 0.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"),
         "--workload", "certify_m8", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
