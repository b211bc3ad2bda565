import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import distinguishable_pair_probability, fock_pair_probability, layer_product_unitary
from qfftsim import reconstruct
from qfftsim.circuit import (
    circuit_to_unitary,
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


class TestFitGradient:
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(p=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
    def test_equals_two_jt_r_and_oracle_differences(self, p, seed):
        problem, probe = random_problem(p, seed)
        data = reconstruct._compile(problem)
        chi2, grad = reconstruct._chi2_and_gradient(data, probe)
        r, jac = reconstruct._residuals(data, probe, jacobian=True)
        assert chi2 == pytest.approx(float(r @ r), rel=1e-12)
        reference = 2.0 * (jac.T @ r)
        # relative to the largest component, at the scale of one when every
        # component is of rounding size (phases no drawn visibility sees)
        scale = max(np.max(np.abs(reference)), 1.0)
        assert np.max(np.abs(grad - reference)) <= 1e-12 * scale

        def oracle_chi2(phases):
            res = oracle_residuals(problem, phases)
            return res @ res

        h = 1e-6
        fd = np.array([
            (oracle_chi2(probe + h * e) - oracle_chi2(probe - h * e)) / (2 * h)
            for e in np.eye(len(probe))
        ])
        assert np.max(np.abs(grad - fd)) <= 1e-6 * scale

    def test_zero_classical_rate_is_refused_on_the_gradient_path(self, monkeypatch):
        # no butterfly template has a zero entry, so U is replaced by the identity,
        # for which every visibility with i, j not in {a, b} has C = 0
        class Identity:
            def unitary(self, values=None, derivatives=False):
                u = np.eye(4, dtype=complex)
                return (u, np.zeros((len(values), 4, 4), dtype=complex)) if derivatives else u

        problem, _, _ = make_problem(2, [1.0])
        data = dataclasses.replace(reconstruct._compile(problem), circuit=Identity())
        with pytest.raises(DomainError, match="zero classical rate for input"):
            reconstruct._chi2_and_gradient(data, [1.0])
        monkeypatch.setattr(reconstruct, "_compile", lambda _: data)
        with pytest.raises(DomainError, match="zero classical rate for input"):
            fit_phases(problem, restarts=1, seed=0)


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
        from scipy.optimize import OptimizeResult

        problem, _, _ = make_problem(2, [1.0])

        def failing(fun, x0, **kwargs):
            return OptimizeResult(x=x0, fun=fun(x0)[0], nfev=1, success=False, message="stub")

        monkeypatch.setattr(reconstruct, "minimize", failing)
        with pytest.raises(ConvergenceError):
            fit_phases(problem, restarts=3, seed=0)

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

    def test_distinct_matrices_stay_distinct(self):
        rng = np.random.default_rng(13)
        u = haar_random_unitary(4, rng)
        v = haar_random_unitary(4, rng)
        assert gauge_fixed_fidelity(u, v) < 0.999


class TestPhaseSensitivity:
    def test_cyclic_inputs_leave_flat_directions(self):
        template = synthesize_qfft(3)
        free = nontrivial_phase_positions(template)
        cyclic = [(0, 4), (1, 5), (2, 6), (3, 7)]
        _, cond = phase_sensitivity(template, free, cyclic)
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
