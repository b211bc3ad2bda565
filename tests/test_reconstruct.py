import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    distinguishable_pair_probability,
    fock_pair_probability,
    layer_product_unitary,
    lbfgsb_minimum,
)
from qfftsim import reconstruct
from qfftsim.circuit import (
    circuit_to_unitary,
    compile_circuit,
    nontrivial_phase_positions,
    set_phases,
    synthesize_qfft,
)
from qfftsim.errors import ConvergenceError, DomainError, ValidationError
from qfftsim.fourier import qft_matrix
from qfftsim.linalg import fidelity, haar_random_unitary
from qfftsim.models import distinguishable_distribution, fock_distribution
from qfftsim.reconstruct import (
    ReconstructionProblem,
    canonical_gauge,
    chi2_objective,
    fit_phases,
    gauge_fixed_fidelity,
    moduli_from_singles,
    phase_sensitivity,
    problem_from_json,
    problem_to_json,
    result_to_json,
    singles_from_unitary,
    visibilities_from_unitary,
)

TWO_PI = 2 * np.pi

ALL_PAIRS_8 = [(a, b) for a in range(8) for b in range(a + 1, 8)]
ALL_PAIRS_4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
CYCLIC_8 = [(0, 4), (1, 5), (2, 6), (3, 7)]


def make_problem(p, true_phases=None, input_pairs=None, sigma=0.02, noise_rng=None):
    template = synthesize_qfft(p)
    free = tuple(nontrivial_phase_positions(template))
    if true_phases is None:
        true = template
    else:
        true = set_phases(template, dict(zip(free, true_phases)))
    u_true = circuit_to_unitary(true)
    if input_pairs is None:
        input_pairs = ALL_PAIRS_8 if p == 3 else ALL_PAIRS_4
    vis = visibilities_from_unitary(u_true, input_pairs, sigma)
    if noise_rng is not None:
        vis = {key: (v + noise_rng.normal(0.0, sigma), s) for key, (v, s) in vis.items()}
    problem = ReconstructionProblem(
        template=template,
        free_phases=free,
        singles=singles_from_unitary(u_true),
        visibilities=vis,
    )
    return problem, u_true, free


def circular_distance(a, b):
    d = np.abs(np.mod(a - b, TWO_PI))
    return np.minimum(d, TWO_PI - d)


def phases_match(fit, true, tol):
    """Match modulo 2*pi and the conjugation gauge (global sign flip)."""
    fit = np.asarray(fit)
    true = np.asarray(true)
    direct = np.max(circular_distance(fit, true))
    conjugate = np.max(circular_distance(-fit, true))
    return min(direct, conjugate) < tol


class TestChi2Objective:
    def test_zero_at_generating_phases(self):
        rng = np.random.default_rng(0)
        true_phases = rng.uniform(0, TWO_PI, 5)
        problem, _, _ = make_problem(3, true_phases)
        assert chi2_objective(problem, true_phases) == pytest.approx(0.0, abs=1e-18)

    def test_positive_away_from_truth(self):
        rng = np.random.default_rng(1)
        true_phases = rng.uniform(0, TWO_PI, 5)
        problem, _, _ = make_problem(3, true_phases)
        assert chi2_objective(problem, true_phases + 0.3) > 1.0

    def test_invariant_under_two_pi_shift(self):
        rng = np.random.default_rng(2)
        true_phases = rng.uniform(0, TWO_PI, 5)
        problem, _, _ = make_problem(3, true_phases)
        probe = rng.uniform(0, TWO_PI, 5)
        for idx in range(5):
            shifted = probe.copy()
            shifted[idx] += TWO_PI
            assert chi2_objective(problem, shifted) == pytest.approx(
                chi2_objective(problem, probe), rel=1e-12, abs=1e-12
            )

    def test_double_path_evaluation(self):
        # recompute through the general-n distributions instead of the
        # vectorised pair formulas
        rng = np.random.default_rng(3)
        true_phases = rng.uniform(0, TWO_PI, 5)
        probe = rng.uniform(0, TWO_PI, 5)
        problem, _, free = make_problem(3, true_phases)
        u = circuit_to_unitary(set_phases(problem.template, dict(zip(free, probe))))
        total = 0.0
        for ((a, b), (i, j)), (v_meas, sigma) in problem.visibilities.items():
            state = tuple(1 if k in (a, b) else 0 for k in range(8))
            out = tuple(1 if k in (i, j) else 0 for k in range(8))
            pq = fock_distribution(u, state).probabilities[out]
            pc = distinguishable_distribution(u, state).probabilities[out]
            total += ((1 - pq / pc - v_meas) / sigma) ** 2
        assert chi2_objective(problem, probe) == pytest.approx(total, rel=1e-10, abs=1e-10)

    def test_wrong_parameter_count(self):
        problem, _, _ = make_problem(3)
        with pytest.raises(DomainError):
            chi2_objective(problem, [0.0, 0.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_phases_rejected(self, bad):
        problem, _, _ = make_problem(3)
        with pytest.raises(DomainError, match="finite"):
            chi2_objective(problem, [0.0, bad, 0.0, 0.0, 0.0])


def oracle_residuals(problem, phases):
    """Sigma-scaled visibility residuals from the dense oracle circuit and pair formulas."""
    u = layer_product_unitary(set_phases(problem.template, dict(zip(problem.free_phases, phases))))
    return np.array([
        (1.0 - fock_pair_probability(u, inp, out) / distinguishable_pair_probability(u, inp, out) - v) / s
        for (inp, out), (v, s) in sorted(problem.visibilities.items())
    ])


def random_problem(p, seed):
    """Three free phases anywhere in the template (first layer included), three
    random input pairs, and a probe point, all drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    template = synthesize_qfft(p)
    positions = [(layer.step, t) for layer in template.layers for t in range(template.m)]
    free = tuple(positions[i] for i in sorted(rng.choice(len(positions), size=3, replace=False)))
    pairs = [(a, b) for a in range(template.m) for b in range(a + 1, template.m)]
    pairs = [pairs[i] for i in rng.choice(len(pairs), size=3, replace=False)]
    truth = rng.uniform(0, TWO_PI, len(free))
    u_true = circuit_to_unitary(set_phases(template, dict(zip(free, truth))))
    problem = ReconstructionProblem(template, free, {}, visibilities_from_unitary(u_true, pairs, 0.02))
    return problem, rng.uniform(0, TWO_PI, len(free))


class TestResidualJacobian:
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(p=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
    def test_matches_central_differences_of_oracle(self, p, seed):
        problem, probe = random_problem(p, seed)
        free = problem.free_phases
        r, jac = reconstruct._residuals(reconstruct._compile(problem), probe, jacobian=True)
        assert r == pytest.approx(oracle_residuals(problem, probe), rel=1e-9, abs=1e-9)
        h = 1e-6
        fd = np.column_stack([
            (oracle_residuals(problem, probe + h * e) - oracle_residuals(problem, probe - h * e)) / (2 * h)
            for e in np.eye(len(free))
        ])
        # first-layer phases are input-mode phases, which no visibility sees: J
        # is then zero, and differences are compared at the scale of one
        assert np.max(np.abs(jac - fd)) <= 1e-6 * max(np.max(np.abs(jac)), 1.0)

    def test_zero_classical_rate_is_refused_on_the_jacobian_path(self, monkeypatch):
        # no butterfly template has a zero entry, so U is replaced by the identity,
        # for which every visibility with i, j not in {a, b} has C = 0
        class Identity:
            def unitary(self, values=None, derivatives=False):
                u = np.eye(4, dtype=complex)
                flat = np.zeros((len(values), 4), dtype=complex)
                return (u, flat, flat) if derivatives else u

        problem, _, _ = make_problem(2, [1.0])
        data = dataclasses.replace(reconstruct._compile(problem), circuit=Identity())
        with pytest.raises(DomainError, match="zero classical rate for input"):
            reconstruct._residuals(data, [1.0], jacobian=True)
        monkeypatch.setattr(reconstruct, "_compile", lambda _: data)
        with pytest.raises(DomainError, match="zero classical rate for input"):
            fit_phases(problem, restarts=1, seed=0)


@st.composite
def free_layouts(draw):
    """A layer count p and free phases, in any order, on some modes of no layer,
    the first, the last (next to the relabeling), two adjacent layers or two
    layers with a fixed one between them."""
    p = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["none", "first", "last", "adjacent", "apart"][: p + 2]))
    if kind == "adjacent":
        step = draw(st.integers(1, p - 1))
        steps = [step, step + 1]
    elif kind == "apart":
        step = draw(st.integers(1, p - 2))
        steps = [step, draw(st.integers(step + 2, p))]
    else:
        steps = {"none": [], "first": [1], "last": [p]}[kind]
    positions = [
        (step, mode)
        for step in steps
        for mode in draw(st.lists(st.integers(0, 2**p - 1), min_size=1, max_size=4, unique=True))
    ]
    return p, tuple(draw(st.permutations(positions)))


class TestFoldedTemplate:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(layout=free_layouts(), seed=st.integers(0, 2**32 - 1))
    @example(layout=(2, ((2, 3), (2, 0))), seed=0)
    @example(layout=(4, ((4, 1), (1, 5), (4, 6))), seed=1)
    def test_segments_factors_and_gradient_match_the_dense_oracle(self, layout, seed):
        p, free = layout
        rng = np.random.default_rng(seed)
        template = synthesize_qfft(p)
        values = rng.uniform(0, TWO_PI, len(free))

        def dense(x):
            return layer_product_unitary(set_phases(template, dict(zip(free, x))))

        compiled = compile_circuit(template, free)
        u, left, right = compiled.unitary(values, derivatives=True)
        assert np.max(np.abs(u - dense(values))) < 1e-12
        assert np.array_equal(compiled.unitary(values), u)
        assert left.shape == right.shape == (len(free), template.m)
        h = 1e-6
        for k, e in enumerate(np.eye(len(free))):
            fd = (dense(values + h * e) - dense(values - h * e)) / (2 * h)
            assert np.max(np.abs(1j * np.outer(left[k], right[k]) - fd)) < 1e-8

        pairs = [(a, b) for a in range(template.m) for b in range(a + 1, template.m)]
        pairs = [pairs[i] for i in rng.choice(len(pairs), size=min(2, len(pairs)), replace=False)]
        vis = {
            key: (v + rng.normal(0.0, 0.02), s)
            for key, (v, s) in visibilities_from_unitary(dense(values), pairs, 0.02).items()
        }
        problem = ReconstructionProblem(template, free, {}, vis)
        r, jac = reconstruct._residuals(reconstruct._compile(problem), values, jacobian=True)
        chi2, grad = float(r @ r), 2.0 * (jac.T @ r)
        r = oracle_residuals(problem, values)
        jac = np.zeros((len(r), len(free)))
        for k, e in enumerate(np.eye(len(free))):
            plus, minus = (oracle_residuals(problem, values + sign * h * e) for sign in (1, -1))
            jac[:, k] = (plus - minus) / (2 * h)
        reference = 2.0 * (jac.T @ r)
        assert chi2 == pytest.approx(float(r @ r), rel=1e-9, abs=1e-12)
        scale = max(np.max(np.abs(reference), initial=0.0), 1.0)
        assert np.max(np.abs(grad - reference), initial=0.0) <= 1e-6 * scale


class TestFitPhases:
    def test_noiseless_round_trip_eight_modes(self):
        rng = np.random.default_rng(4)
        true_phases = rng.uniform(0, TWO_PI, 5)
        problem, u_true, free = make_problem(3, true_phases)
        result = fit_phases(problem, restarts=8, seed=0, target=u_true)
        assert result.chi2 < 1e-10
        fitted = np.array([result.fitted_phases[pos] for pos in free])
        assert phases_match(fitted, true_phases, 1e-6)
        assert result.fidelity_vs_target >= 1 - 1e-8

    def test_noiseless_round_trip_four_modes(self):
        rng = np.random.default_rng(5)
        true_phases = rng.uniform(0, TWO_PI, 1)
        problem, u_true, free = make_problem(2, true_phases)
        result = fit_phases(problem, restarts=4, seed=0, target=u_true)
        assert result.chi2 < 1e-10
        fitted = np.array([result.fitted_phases[pos] for pos in free])
        assert phases_match(fitted, true_phases, 1e-6)

    def test_noisy_round_trip_keeps_high_fidelity(self):
        rng = np.random.default_rng(6)
        true_phases = rng.uniform(0, TWO_PI, 5)
        problem, u_true, _ = make_problem(3, true_phases, noise_rng=rng)
        result = fit_phases(problem, restarts=8, seed=1, target=u_true)
        assert result.fidelity_vs_target >= 0.99

    def test_zero_free_phases_returns_template(self):
        template = synthesize_qfft(2)
        u_nominal = circuit_to_unitary(template)
        vis = visibilities_from_unitary(u_nominal, ALL_PAIRS_4, 0.02)
        problem = ReconstructionProblem(template, (), {}, vis)
        result = fit_phases(problem, target=qft_matrix(4))
        assert result.fitted_phases == {}
        assert np.allclose(result.reconstructed_unitary, u_nominal)
        assert result.chi2 == pytest.approx(0.0, abs=1e-18)
        assert result.fidelity_vs_target >= 1 - 1e-10

    def test_underdetermined_rejected(self):
        template = synthesize_qfft(3)
        free = tuple(nontrivial_phase_positions(template))
        u = circuit_to_unitary(template)
        vis = visibilities_from_unitary(u, [(0, 4)], 0.02)
        small = dict(list(sorted(vis.items()))[:3])
        problem = ReconstructionProblem(template, free, {}, small)
        with pytest.raises(DomainError):
            fit_phases(problem)

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(7)
        true_phases = rng.uniform(0, TWO_PI, 1)
        problem, _, _ = make_problem(2, true_phases)
        a = fit_phases(problem, restarts=4, seed=11)
        b = fit_phases(problem, restarts=4, seed=11)
        assert a.fitted_phases == b.fitted_phases
        assert a.chi2 == b.chi2
        assert json.dumps(result_to_json(a)) == json.dumps(result_to_json(b))

    def test_restart_diagnostics(self):
        rng = np.random.default_rng(16)
        problem, u_true, _ = make_problem(3, rng.uniform(0, TWO_PI, 5), noise_rng=rng)
        result = fit_phases(problem, restarts=8, seed=2, target=u_true)
        assert len(result.restarts) == 8
        assert all(rec.success and rec.nfev > 0 for rec in result.restarts)
        best = min(rec.chi2 for rec in result.restarts)
        assert result.chi2 == pytest.approx(best, rel=1e-9)
        in_basin = sum(1 for rec in result.restarts if rec.chi2 - best <= 1e-6 * best)
        assert result.restarts_in_best_basin == in_basin >= 1
        assert 1.0 <= result.jacobian_condition < 100.0

    def test_every_restart_failing_raises(self, monkeypatch):
        problem, _, _ = make_problem(2, [1.0])

        def failing(fun, x0):
            r, _ = fun(x0)
            return reconstruct.LocalFit(x=x0, fun=float(r @ r), nfev=1, success=False, message="stub")

        monkeypatch.setattr(reconstruct, "minimize", failing)
        with pytest.raises(ConvergenceError):
            fit_phases(problem, restarts=3, seed=0)

    def test_one_minimize_call_per_restart(self, monkeypatch):
        # the benchmark's tracer counts fits through this binding
        problem, _, _ = make_problem(2, [1.0])
        expected = fit_phases(problem, restarts=3, seed=0)
        real = reconstruct.minimize
        calls = []

        def recording(*args, **options):
            calls.append((len(args), options))
            return real(*args, **options)

        monkeypatch.setattr(reconstruct, "minimize", recording)
        result = fit_phases(problem, restarts=3, seed=0)
        assert calls == [(2, {})] * 3
        assert result.restarts == expected.restarts

    @pytest.mark.parametrize("defect", ["nan_entry", "doubled", "wrong_size"])
    def test_bad_target_rejected(self, defect):
        problem, u_true, _ = make_problem(2, [1.0])
        target = u_true.copy()
        if defect == "nan_entry":
            target[2, 1] = np.nan
        elif defect == "doubled":
            target *= 2.0
        else:
            target = qft_matrix(8)
        with pytest.raises(ValidationError, match="target matrix"):
            fit_phases(problem, restarts=2, seed=0, target=target)

    def test_restarts_cap_at_its_boundary(self, monkeypatch):
        problem, _, _ = make_problem(2, [1.0])
        for restarts in (0, reconstruct.MAX_RESTARTS + 1, 10**12):
            with pytest.raises(DomainError, match="restarts"):
                fit_phases(problem, restarts=restarts, seed=0)
        monkeypatch.setattr(reconstruct, "MAX_RESTARTS", 3)
        with pytest.raises(DomainError, match=r"restarts must be in \[1, 3\], got 4"):
            fit_phases(problem, restarts=4, seed=0)
        assert len(fit_phases(problem, restarts=3, seed=0).restarts) == 3

    @pytest.mark.parametrize("restarts", [0, reconstruct.MAX_RESTARTS + 1])
    def test_restarts_checked_without_free_phases(self, restarts):
        template = synthesize_qfft(2)
        vis = visibilities_from_unitary(circuit_to_unitary(template), ALL_PAIRS_4, 0.02)
        problem = ReconstructionProblem(template, (), {}, vis)
        cap = reconstruct.MAX_RESTARTS
        with pytest.raises(DomainError, match=rf"restarts must be in \[1, {cap}\], got {restarts}"):
            fit_phases(problem, restarts=restarts, seed=0)


def rosenbrock(x):
    """Rosenbrock's function as residuals: 10 (x_{k+1} - x_k^2) and 1 - x_k, with their Jacobian."""
    n = len(x) - 1
    k = np.arange(n)
    jac = np.zeros((2 * n, n + 1))
    jac[k, k], jac[k, k + 1] = -20.0 * x[:-1], 10.0
    jac[n + k, k] = -1.0
    return np.concatenate([10.0 * (x[1:] - x[:-1] ** 2), 1.0 - x[:-1]]), jac


def chi2_and_gradient(data):
    """r.r and its gradient 2 J^T r, from the fit's residuals and Jacobian."""

    def fun(x):
        r, jac = reconstruct._residuals(data, x, jacobian=True)
        return r @ r, 2.0 * (jac.T @ r)

    return fun


class TestMinimize:
    def test_ill_conditioned_quadratic(self):
        # linear least squares with cond(J) = 1e4, so cond(J^T J) = 1e8; with
        # singular values >= 10 the gradient test bounds the error by about 1e-5 / 200
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        a = q @ np.diag(10.0 ** np.arange(1, 6)) @ q.T
        b = rng.normal(size=5)
        for x0 in (np.zeros(5), 10.0 * rng.normal(size=5)):
            res = reconstruct.minimize(lambda x: (a @ x - b, a), x0)
            assert res.success, res.message
            assert np.max(np.abs(res.x - np.linalg.solve(a, b))) <= 1e-6

    def test_rosenbrock(self):
        res = reconstruct.minimize(rosenbrock, np.array([-1.2, 1.0, -1.2, 1.0, -1.2]))
        assert res.success, res.message
        # J^T J has a smallest eigenvalue of 0.25 at the minimum, so the gradient
        # test alone would allow errors up to 2e-5 there
        assert np.max(np.abs(res.x - 1.0)) <= 1e-5 and res.fun <= 1e-10
        r, _ = rosenbrock(res.x)
        assert res.fun == r @ r

    def test_non_finite_trial_point_backs_off(self):
        # the first trial point's residuals are NaN; the damping then grows,
        # so the next trial step is shorter
        centre = np.array([0.3, -0.1])
        points = []

        def fun(x):
            points.append(x)
            r = 3.0 * (x - centre) + np.sin(x) ** 2
            jac = 3.0 * np.eye(2) + np.diag(np.sin(2.0 * x))
            return (np.full(2, np.nan) if len(points) == 2 else r), jac

        res = reconstruct.minimize(fun, np.zeros(2))
        assert np.linalg.norm(points[2] - points[0]) < np.linalg.norm(points[1] - points[0])
        assert res.success, res.message
        assert np.isfinite(res.fun) and res.fun <= 1e-12
        start = reconstruct.minimize(lambda x: (np.full(2, np.nan), np.eye(2)), np.zeros(2))
        assert not start.success and start.nfev == 1 and "at the start" in start.message

    def test_evaluation_cap_fails(self, monkeypatch):
        monkeypatch.setattr(reconstruct, "MAX_EVALS", 4)
        x0 = np.array([-1.2, 1.0, -1.2, 1.0, -1.2])
        res = reconstruct.minimize(rosenbrock, x0)
        assert not res.success and res.nfev == 4
        assert "evaluation limit" in res.message
        r0, _ = rosenbrock(x0)
        assert res.fun < r0 @ r0

    def test_wrong_sign_jacobian_fails_after_the_rejection_cap(self):
        # every step goes uphill, so each is rejected until the cap, not until MAX_EVALS
        res = reconstruct.minimize(lambda x: (x, -np.eye(3)), np.ones(3))
        assert not res.success and res.nfev == 1 + reconstruct.MAX_REJECTED
        assert "no decrease" in res.message
        assert res.fun == 3.0 and np.array_equal(res.x, np.ones(3))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(p=st.integers(2, 3), noisy=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_fit_reaches_the_lbfgsb_oracle(self, p, noisy, seed):
        rng = np.random.default_rng(seed)
        k = len(nontrivial_phase_positions(synthesize_qfft(p)))
        problem, _, _ = make_problem(p, rng.uniform(0, TWO_PI, k), noise_rng=rng if noisy else None)
        result = fit_phases(problem, restarts=4, seed=seed)
        data = reconstruct._compile(problem)
        starts = np.random.default_rng(seed).uniform(0.0, TWO_PI, size=(4, k))
        oracle = lbfgsb_minimum(chi2_and_gradient(data), starts)
        assert result.chi2 <= oracle * (1 + 1e-9) + 1e-12


class TestRankDeficientFits:
    @pytest.mark.parametrize("case", ["first-layer phase", "cyclic inputs", "cyclic inputs and (0, 1)"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_restart_converges_where_j_loses_rank(self, case, seed):
        # a first-layer phase is an input-mode phase, so its J column is zero;
        # cyclic visibilities do not depend on the phases at all, and one more
        # input pair leaves J at rank 3 of 5
        template = synthesize_qfft(3)
        free = tuple(nontrivial_phase_positions(template))
        pairs = ALL_PAIRS_8
        if case == "first-layer phase":
            free = ((1, 0),) + free
        else:
            pairs = CYCLIC_8 + ([(0, 1)] if case.endswith("(0, 1)") else [])
        truth = np.random.default_rng(seed).uniform(0, TWO_PI, len(free))
        u_true = circuit_to_unitary(set_phases(template, dict(zip(free, truth))))
        problem = ReconstructionProblem(template, free, {}, visibilities_from_unitary(u_true, pairs, 0.02))
        result = fit_phases(problem, restarts=8, seed=100 + seed)
        assert all(rec.success for rec in result.restarts)
        assert result.chi2 < 1e-10
        assert result.jacobian_condition == float("inf")


class TestModuliFromSingles:
    def test_exact_qft4(self):
        moduli = moduli_from_singles(singles_from_unitary(qft_matrix(4)))
        assert np.allclose(moduli, 0.5)

    def test_uniform_loss_removed(self):
        singles = singles_from_unitary(qft_matrix(4))
        lossy = {key: 0.9 * p for key, p in singles.items()}
        assert np.allclose(moduli_from_singles(lossy), 0.5)

    def test_perturbed_circuit_compose_then_measure(self):
        rng = np.random.default_rng(8)
        template = synthesize_qfft(3)
        free = nontrivial_phase_positions(template)
        u = circuit_to_unitary(
            set_phases(template, {pos: rng.uniform(0, TWO_PI) for pos in free})
        )
        moduli = moduli_from_singles(singles_from_unitary(u))
        assert np.max(np.abs(moduli - np.abs(u))) < 1e-10

    def test_negative_probability_rejected(self):
        with pytest.raises(DomainError):
            moduli_from_singles({(0, 0): -0.1, (0, 1): 0.5, (1, 0): 0.5, (1, 1): 0.5})

    def test_incomplete_table_rejected(self):
        with pytest.raises(DomainError):
            moduli_from_singles({(0, 0): 0.5, (1, 1): 0.5})

    @pytest.mark.parametrize("p", [float("nan"), float("inf"), -0.1])
    def test_non_finite_or_negative_probability_named(self, p):
        # a NaN used to be reported as a missing entry
        with pytest.raises(DomainError, match=r"^singles probability .* for \(1,0\) is not finite and non-negative$"):
            moduli_from_singles({(0, 0): 0.5, (0, 1): 0.5, (1, 0): p, (1, 1): 0.5})


class TestVisibilitiesFromUnitary:
    @pytest.mark.parametrize("pair", [(1.7, 3), (float("nan"), 3), (1, -1), ("a", 3)])
    def test_non_integral_labels_refused(self, pair):
        # none is truncated: (1.7, 3) used to score input (1, 3)
        with pytest.raises(DomainError, match="^input mode .* is not a non-negative integer$"):
            visibilities_from_unitary(qft_matrix(4), [pair], 0.02)
        u = qft_matrix(8)
        exact = visibilities_from_unitary(u, [(1, 3)], 0.02)
        same = visibilities_from_unitary(u, [(1.0, np.int64(3))], 0.02)
        assert same == exact and all(type(k) is int for (inp, _) in same for k in inp)


class TestGauge:
    def test_canonical_first_row_and_column_real(self):
        u = haar_random_unitary(5, np.random.default_rng(9))
        w = canonical_gauge(u)
        assert np.allclose(np.imag(w[0, :]), 0.0, atol=1e-12)
        assert np.allclose(np.imag(w[:, 0]), 0.0, atol=1e-12)
        assert np.all(np.real(w[0, :]) >= -1e-12)
        assert np.all(np.real(w[:, 0]) >= -1e-12)

    def test_idempotent(self):
        u = haar_random_unitary(4, np.random.default_rng(10))
        w = canonical_gauge(u)
        assert np.allclose(canonical_gauge(w), w)

    def test_mode_phases_are_gauged_away(self):
        rng = np.random.default_rng(11)
        u = haar_random_unitary(4, rng)
        d_out = np.diag(np.exp(1j * rng.uniform(0, TWO_PI, 4)))
        d_in = np.diag(np.exp(1j * rng.uniform(0, TWO_PI, 4)))
        assert gauge_fixed_fidelity(u, d_out @ u @ d_in) == pytest.approx(1.0, abs=1e-10)

    def test_conjugation_is_gauged_away(self):
        u = haar_random_unitary(4, np.random.default_rng(12))
        assert gauge_fixed_fidelity(u, np.conj(u)) == pytest.approx(1.0, abs=1e-10)

    def test_conjugate_fit_scores_although_noise_flips_the_branch(self):
        # a fit to noisy 8-mode visibilities that found the negated phases;
        # the entry that picks the branch has imaginary part ~1e-3 in both
        template = synthesize_qfft(3)
        free = nontrivial_phase_positions(template)
        generating = [3.1447149368450917, 0.02487538926956222, 5.539706208022232, 2.0287838117308006, 6.189163413822927]
        fitted = [3.1425197091969173, 6.258266437760934, 0.7471802627083806, 4.255128615841217, 0.09209620088501322]
        u, v = (circuit_to_unitary(set_phases(template, dict(zip(free, p)))) for p in (fitted, generating))
        assert fidelity(canonical_gauge(u), canonical_gauge(v)) < 0.71
        assert gauge_fixed_fidelity(u, v) == pytest.approx(1.0, abs=1e-5)

    def test_distinct_matrices_stay_distinct(self):
        rng = np.random.default_rng(13)
        u = haar_random_unitary(4, rng)
        v = haar_random_unitary(4, rng)
        assert gauge_fixed_fidelity(u, v) < 0.999


class TestPhaseSensitivity:
    def test_cyclic_inputs_leave_flat_directions(self):
        template = synthesize_qfft(3)
        free = nontrivial_phase_positions(template)
        _, cond = phase_sensitivity(template, free, CYCLIC_8)
        assert cond > 1e6

    @pytest.mark.parametrize("free, pairs", [((), [(0, 2)]), (None, [])], ids=["no-phases", "no-pairs"])
    def test_empty_problem_rejected(self, free, pairs):
        template = synthesize_qfft(2)
        free = nontrivial_phase_positions(template) if free is None else free
        with pytest.raises(DomainError, match="at least one free phase and one input pair"):
            phase_sensitivity(template, free, pairs)

    def test_all_pairs_are_well_conditioned(self):
        template = synthesize_qfft(3)
        free = nontrivial_phase_positions(template)
        svals, cond = phase_sensitivity(template, free, ALL_PAIRS_8)
        assert cond < 100.0
        assert svals[-1] > 1e-3


class TestProblemValidation:
    def test_bad_singles_probability(self):
        template = synthesize_qfft(2)
        with pytest.raises(DomainError):
            ReconstructionProblem(template, (), {(0, 0): 1.5}, {})

    def test_bad_sigma(self):
        template = synthesize_qfft(2)
        with pytest.raises(DomainError):
            ReconstructionProblem(template, (), {}, {((0, 1), (0, 1)): (0.5, 0.0)})

    @pytest.mark.parametrize("entry", [(0.5, float("nan")), (0.5, float("inf")), (float("nan"), 0.02)])
    def test_non_finite_visibility_rejected(self, entry):
        template = synthesize_qfft(2)
        with pytest.raises(DomainError):
            ReconstructionProblem(template, (), {}, {((0, 1), (0, 1)): entry})

    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), float("inf")])
    def test_ideal_table_needs_finite_positive_sigma(self, sigma):
        with pytest.raises(DomainError, match="sigma"):
            visibilities_from_unitary(qft_matrix(4), [(0, 1)], sigma)

    def test_duplicate_free_phases_rejected(self):
        template = synthesize_qfft(3)
        with pytest.raises(DomainError):
            ReconstructionProblem(template, ((2, 4), (2, 4)), {}, {})

    def test_row_sum_checked(self):
        template = synthesize_qfft(2)
        singles = {(0, o): 0.5 for o in range(4)}
        with pytest.raises(DomainError):
            ReconstructionProblem(template, (), singles, {})


class TestSerialisation:
    def test_problem_round_trip(self):
        rng = np.random.default_rng(14)
        problem, _, _ = make_problem(2, rng.uniform(0, TWO_PI, 1))
        again = problem_from_json(problem_to_json(problem))
        assert again.template == problem.template
        assert again.free_phases == problem.free_phases
        assert again.singles == pytest.approx(problem.singles)
        assert set(again.visibilities) == set(problem.visibilities)

    @pytest.mark.parametrize(
        "path, value",
        [
            (("visibilities", 0, "v"), "high"),
            (("visibilities", 0, "input"), [1]),
            (("singles", 0, "input"), "one"),
            (("singles", 0), [1, 2]),
            (("free_phases", 0), [2]),
            (("template", "p"), -1),
        ],
    )
    def test_malformed_values_rejected(self, path, value):
        problem, _, _ = make_problem(2, [1.0])
        obj = problem_to_json(problem)
        node = obj
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ValidationError):
            problem_from_json(obj)

    def test_result_json_shape(self):
        problem, u_true, _ = make_problem(2, [1.0])
        result = fit_phases(problem, restarts=4, seed=0, target=u_true)
        obj = result_to_json(result)
        assert {
            "fitted_phases", "reconstructed_unitary", "chi2", "fidelity_vs_target",
            "restarts", "restarts_in_best_basin", "jacobian_condition",
        } <= set(obj)
        assert obj["fitted_phases"][0]["mode"] == 4  # 1-based in files
        assert [set(rec) for rec in obj["restarts"]] == [{"chi2", "nfev", "success"}] * 4
        assert 1 <= obj["restarts_in_best_basin"] <= 4


def test_nominal_template_fidelity_to_qft():
    for p in (2, 3):
        template = synthesize_qfft(p)
        u = circuit_to_unitary(template)
        assert gauge_fixed_fidelity(u, qft_matrix(2**p)) >= 1 - 1e-10
        assert fidelity(u, qft_matrix(2**p)) >= 1 - 1e-10


def test_full_problem_uses_rows_from_singles():
    # moduli recovered from data equal the template's moduli for any phases
    rng = np.random.default_rng(15)
    problem, u_true, _ = make_problem(3, rng.uniform(0, TWO_PI, 5))
    moduli = moduli_from_singles(problem.singles)
    assert np.max(np.abs(moduli - np.abs(u_true))) < 1e-10
