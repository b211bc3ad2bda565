import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfftsim import fourier, models
from qfftsim.circuit import circuit_to_unitary, synthesize_qfft
from qfftsim.errors import CapacityError, DomainError, ShapeError, ValidationError
from qfftsim.fourier import (
    enumerate_outputs,
    is_suppressed,
    occupation_from_modes,
    occupations,
    occupied_modes,
    partition_outputs,
    photon_number,
    qft_matrix,
)
from qfftsim.linalg import haar_random_unitary
from qfftsim.models import (
    DelayModel,
    distinguishable_distribution,
    fock_distribution,
    full_bunching_visibilities,
    is_cyclic_state,
    mean_field_distribution,
    product_expansion,
    two_photon_coincidences,
    two_photon_probabilities,
)

from oracles import (
    distinguishable_pair_probability,
    distinguishable_probability,
    fock_pair_probability,
    fock_probability,
    mean_field_grid,
    mean_field_pair_grid,
    mean_field_probability,
    mean_occupations,
    pair_moments,
    permanent_definition,
)


def cyclic_state(n, m):
    return tuple(int(k % (m // n) == 0) for k in range(m))


def expansion_caches():
    return fourier._outputs.cache_info(), fourier._output_set.cache_info()


def plan_recorder(monkeypatch):
    """The (n, m) of each expansion plan the tables ask :mod:`qfftsim.fourier` for, in order."""
    calls = []

    def record(n, m):
        calls.append((n, m))
        return fourier._expansion_plan(n, m)

    monkeypatch.setattr(models, "_expansion_plan", record)
    return calls


def forbidden_pairs(m):
    part = partition_outputs(2, m)
    return [tuple(occupied_modes(s)) for s in sorted(part.forbidden)]


class TestFockDistribution:
    def test_hong_ou_mandel(self):
        dist = fock_distribution(qft_matrix(2), (1, 1))
        assert dist.probabilities[(2, 0)] == pytest.approx(0.5, abs=1e-12)
        assert dist.probabilities[(1, 1)] == pytest.approx(0.0, abs=1e-12)
        assert dist.probabilities[(0, 2)] == pytest.approx(0.5, abs=1e-12)

    def test_qft4_cyclic_input_forbidden_outputs_dark(self):
        dist = fock_distribution(qft_matrix(4), (1, 0, 1, 0))
        for i, j in forbidden_pairs(4):
            out = tuple(1 if k in (i, j) else 0 for k in range(4))
            assert dist.probabilities[out] < 1e-12

    def test_qft4_cyclic_input_full_table(self):
        # Frozen from the permutation-sum amplitude: bunched outputs carry 1/8
        # each, the two cyclic pairs 1/4 each, the four odd-sum pairs nothing.
        dist = fock_distribution(qft_matrix(4), (1, 0, 1, 0))
        expected = {
            (2, 0, 0, 0): 0.125,
            (0, 2, 0, 0): 0.125,
            (0, 0, 2, 0): 0.125,
            (0, 0, 0, 2): 0.125,
            (1, 0, 1, 0): 0.25,
            (0, 1, 0, 1): 0.25,
            (1, 1, 0, 0): 0.0,
            (1, 0, 0, 1): 0.0,
            (0, 1, 1, 0): 0.0,
            (0, 0, 1, 1): 0.0,
        }
        assert set(dist.probabilities) == set(expected)
        for out, p in expected.items():
            assert dist.probabilities[out] == pytest.approx(p, abs=1e-12), out
        assert dist.total() == pytest.approx(1.0, abs=1e-12)

    def test_matches_pair_oracle(self):
        u = haar_random_unitary(5, np.random.default_rng(21))
        dist = fock_distribution(u, (1, 0, 0, 1, 0))
        for out, p in dist.probabilities.items():
            modes = occupied_modes(out)
            pair = (modes[0], modes[-1])
            assert p == pytest.approx(fock_pair_probability(u, (0, 3), pair), abs=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            fock_distribution(np.ones((2, 2)), (1, 1))


class TestDistinguishableDistribution:
    @pytest.mark.parametrize("m,input_pair", [(4, (0, 2)), (4, (0, 1)), (8, (0, 4))])
    def test_uniform_collision_free_probability(self, m, input_pair):
        state = tuple(1 if k in input_pair else 0 for k in range(m))
        dist = distinguishable_distribution(qft_matrix(m), state)
        for out, p in dist.probabilities.items():
            if max(out) == 1:
                assert p == pytest.approx(2 / m**2, abs=1e-12)
            else:
                assert p == pytest.approx(1 / m**2, abs=1e-12)

    def test_balanced_coupler_coin_flips(self):
        dist = distinguishable_distribution(qft_matrix(2), (1, 1))
        assert dist.probabilities[(1, 1)] == pytest.approx(0.5, abs=1e-12)
        assert dist.probabilities[(2, 0)] == pytest.approx(0.25, abs=1e-12)
        assert dist.probabilities[(0, 2)] == pytest.approx(0.25, abs=1e-12)

    def test_matches_pair_oracle(self):
        u = haar_random_unitary(4, np.random.default_rng(31))
        dist = distinguishable_distribution(u, (0, 1, 0, 1))
        for out, p in dist.probabilities.items():
            modes = occupied_modes(out)
            pair = (modes[0], modes[-1])
            assert p == pytest.approx(
                distinguishable_pair_probability(u, (1, 3), pair), abs=1e-12
            )

    def test_equals_fock_on_permutation_matrix(self):
        perm = np.eye(4)[[2, 0, 3, 1]].astype(complex)
        state = (1, 1, 0, 1)
        fock = fock_distribution(perm, state).probabilities
        dist = distinguishable_distribution(perm, state).probabilities
        for out in fock:
            assert fock[out] == pytest.approx(dist[out], abs=1e-12)


class TestNormalization:
    @pytest.mark.parametrize("seed,m,n", [(0, 4, 2), (1, 5, 3), (2, 8, 2), (3, 6, 4)])
    def test_fock_and_distinguishable(self, seed, m, n):
        rng = np.random.default_rng(seed)
        u = haar_random_unitary(m, rng)
        state = tuple(1 if k < n else 0 for k in range(m))
        assert fock_distribution(u, state).total() == pytest.approx(1.0, abs=1e-10)
        assert distinguishable_distribution(u, state).total() == pytest.approx(1.0, abs=1e-10)

    def test_mean_field(self):
        dist = mean_field_distribution(qft_matrix(4), (1, 0, 1, 0))
        assert dist.total() == pytest.approx(1.0, abs=1e-10)


@st.composite
def haar_and_input(draw, model):
    """A Haar unitary on 2-8 modes and an input of 1-4 photons: any input,
    bunched ones included, for the Fock and distinguishable models, and a
    cyclic one for the mean field."""
    cyclic = model is mean_field_distribution
    m = draw(st.sampled_from([2, 3, 4, 6, 8]) if cyclic else st.integers(2, 8))
    u = haar_random_unitary(m, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    if cyclic:
        n = draw(st.sampled_from([n for n in (2, 3, 4) if m % n == 0]))
        first = draw(st.integers(0, m // n - 1))
        return u, occupation_from_modes(range(first, m, m // n), m)
    modes = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=4))
    return u, tuple(modes.count(k) for k in range(m))


class TestNonNegativeTables:
    # every table is |perm|^2, a sum of products of |U|^2 entries or a sum of
    # squared moduli, so no probability is negative and none needs clamping
    @pytest.mark.parametrize(
        "model", [fock_distribution, distinguishable_distribution, mean_field_distribution]
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_probabilities_are_non_negative_and_sum_to_one(self, model, data):
        u, state = data.draw(haar_and_input(model))
        p = np.array(list(model(u, state).probabilities.values()))
        assert np.all(np.isfinite(p))
        assert p.min() >= 0.0
        assert abs(p.sum() - 1.0) <= 1e-12


class TestMeanField:
    def test_forbidden_mass_quarter_m4(self):
        dist = mean_field_distribution(qft_matrix(4), (1, 0, 1, 0))
        mass = sum(
            dist.probabilities[tuple(1 if k in pair else 0 for k in range(4))]
            for pair in forbidden_pairs(4)
        )
        assert mass == pytest.approx(0.25, abs=1e-3)

    def test_forbidden_mass_quarter_m8(self):
        state = (1, 0, 0, 0, 1, 0, 0, 0)
        dist = mean_field_distribution(qft_matrix(8), state)
        mass = sum(
            dist.probabilities[tuple(1 if k in pair else 0 for k in range(8))]
            for pair in forbidden_pairs(8)
        )
        assert mass == pytest.approx(0.25, abs=1e-3)

    def test_matches_dense_grid_oracle(self):
        u = qft_matrix(8)
        dist = mean_field_distribution(u, (0, 1, 0, 0, 0, 1, 0, 0))
        for pair in [(0, 2), (1, 4), (3, 3)]:
            out = tuple(
                (2 if k == pair[0] else 0) if pair[0] == pair[1] else int(k in pair)
                for k in range(8)
            )
            ref = mean_field_pair_grid(u, [1, 5], pair, grid=64)
            assert dist.probabilities[out] == pytest.approx(ref, abs=1e-9)

    def test_three_photon_quadrature(self):
        # the p = 1 cyclic state on three modes: every mode of the input occupied
        dist = mean_field_distribution(qft_matrix(3), (1, 1, 1))
        assert dist.total() == pytest.approx(1.0, abs=1e-10)
        assert all(p >= 0 for p in dist.probabilities.values())

    def test_rejects_non_cyclic_input(self):
        with pytest.raises(DomainError):
            mean_field_distribution(qft_matrix(4), (1, 1, 0, 0))

    def test_coefficient_cap_at_its_boundary(self, monkeypatch):
        # two photons on four modes: the plan over the 2 phases and each of the 10 outputs
        # multiply 2 C(3, 2) = 6 terms, 66 in all, + 2 levels x 4096 steps
        monkeypatch.setattr(models, "MAX_EXPANSION_WORK", 8257)
        with monkeypatch.context() as patch:
            patch.setattr(models, "_outcomes", None)  # refused before any output is built
            with pytest.raises(CapacityError, match="needs 8258 expansion steps, above the budget 8257"):
                mean_field_distribution(qft_matrix(4), (1, 0, 1, 0))
        monkeypatch.setattr(models, "MAX_EXPANSION_WORK", 8258)
        dist = mean_field_distribution(qft_matrix(4), (1, 0, 1, 0))
        assert dist.total() == pytest.approx(1.0, abs=1e-12)

    def test_refused_before_any_output_is_built(self, monkeypatch):
        # 7 photons on 14 modes: the plan and C(20, 7) = 77,520 outputs x 7 C(13, 7) = 7 x 1716
        # terms, + 7 levels x 4096 steps
        monkeypatch.setattr(fourier, "occupations", None)
        plans = plan_recorder(monkeypatch)
        before = expansion_caches()
        with pytest.raises(CapacityError, match=(
            f"^the mean_field table of 7 photons on 14 modes needs {(1 + 77520) * 7 * 1716 + 7 * 4096} "
            f"expansion steps, above the budget {models.MAX_EXPANSION_WORK}$"
        )):
            mean_field_distribution(qft_matrix(14), (1, 0) * 7)
        assert expansion_caches() == before and plans == []

    def test_cap_admits_eight_photons_on_eight_modes(self):
        # the plan and N = C(m + n - 1, n) outputs, n C(2n - 1, n) terms each, + n levels x 4096 steps
        def work(n, m):
            return (1 + math.comb(m + n - 1, n)) * n * math.comb(2 * n - 1, n) + n * 4096

        budget = models.MAX_EXPANSION_WORK
        assert work(8, 8) <= budget < min(work(9, 9), work(7, 14))
        assert work(6, 12) <= budget

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 5),
        period=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        picks=st.lists(st.integers(0, 2**31), min_size=1, max_size=4),
    )
    def test_matches_permanent_sum_oracle(self, n, period, seed, picks):
        m = n * period
        u = haar_random_unitary(m, np.random.default_rng(seed))
        state = cyclic_state(n, m)
        probs = mean_field_distribution(u, state).probabilities
        outs = sorted(probs)
        for k in picks:  # the oracle costs ~50 ms an output at n = 5
            out = outs[k % len(outs)]
            assert abs(probs[out] - mean_field_probability(u, state, out)) <= 1e-14, out

    def test_cyclic_detection(self):
        assert is_cyclic_state((1, 0, 1, 0))
        assert is_cyclic_state((0, 1, 0, 0, 0, 1, 0, 0))
        assert not is_cyclic_state((1, 1, 0, 0))
        assert not is_cyclic_state((2, 0, 0, 0))
        assert not is_cyclic_state((1, 0, 0, 0))


class TestPerOutcomeOracles:
    @pytest.mark.parametrize("n,m", [(2, 8), (3, 9), (4, 8)])
    def test_every_model_and_outcome(self, n, m):
        u = haar_random_unitary(m, np.random.default_rng(100 + m))
        state = cyclic_state(n, m)
        for make, oracle in (
            (fock_distribution, fock_probability),
            (distinguishable_distribution, distinguishable_probability),
            (mean_field_distribution, mean_field_probability),
        ):
            probs = make(u, state).probabilities
            assert len(probs) == math.comb(m + n - 1, n)
            for out, p in probs.items():
                assert abs(p - oracle(u, state, out)) <= 1e-14, (make.__name__, out)

    def test_blocks_of_outcomes(self, monkeypatch):
        u = haar_random_unitary(8, np.random.default_rng(8))
        state = cyclic_state(4, 8)
        whole = fock_distribution(u, state).probabilities
        monkeypatch.setattr(models, "BLOCK_ENTRIES", 100)  # 6 of the 330 outcomes per block
        assert fock_distribution(u, state).probabilities == whole


MODELS = [fock_distribution, distinguishable_distribution, mean_field_distribution]

#: (n, m / n) of every cyclic input of 2-6 photons on at most 12 modes
CYCLIC_SHAPES = [(n, period) for n in range(2, 7) for period in range(1, 12 // n + 1)]


def table_moments(dist):
    """<n_i> and <n_i n_k - delta_ik n_i> of an outcome table."""
    outs = np.array(list(dist.probabilities), dtype=float)
    p = np.array(list(dist.probabilities.values()))
    first = p @ outs
    return first, (outs.T * p) @ outs - np.diag(first)


class TestMomentOracles:
    """Whole tables of cyclic inputs on Haar unitaries against closed-form
    moments, at sizes the per-outcome oracles cannot reach."""

    @pytest.mark.parametrize("model", MODELS)
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(shape=st.sampled_from(CYCLIC_SHAPES), first=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
    @example(shape=(6, 2), first=1, seed=0)
    def test_mean_occupations(self, model, shape, first, seed):
        u, modes = self.haar_and_cyclic_modes(shape, first, seed)
        means, _ = table_moments(model(u, occupation_from_modes(modes, len(u))))
        assert np.abs(means - mean_occupations(u, modes)).max() <= 1e-13

    @pytest.mark.parametrize("model", MODELS)
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(shape=st.sampled_from(CYCLIC_SHAPES), first=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
    @example(shape=(6, 2), first=1, seed=0)
    def test_pair_moments(self, model, shape, first, seed):
        u, modes = self.haar_and_cyclic_modes(shape, first, seed)
        dist = model(u, occupation_from_modes(modes, len(u)))
        _, pairs = table_moments(dist)
        assert np.abs(pairs - pair_moments(u, modes, dist.model)).max() <= 1e-13

    @staticmethod
    def haar_and_cyclic_modes(shape, first, seed):
        n, period = shape
        u = haar_random_unitary(n * period, np.random.default_rng(seed))
        return u, list(range(first % period, n * period, period))


class TestOutputTranslation:
    # a row shift of the Fourier matrix puts a phase on each column, so every
    # table, of any input, is invariant under the output translation T -> T + 1 mod m
    @pytest.mark.parametrize("model", MODELS)
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(shape=st.sampled_from(CYCLIC_SHAPES), picks=st.lists(st.integers(0, 2**31), min_size=1, max_size=4))
    def test_fourier_tables(self, model, shape, picks):
        n, period = shape
        m = n * period
        if model is mean_field_distribution:
            modes = range(picks[0] % period, m, period)
        else:
            modes = [k % m for k in picks]
        self.assert_translation_invariant(model(qft_matrix(m), occupation_from_modes(modes, m)).probabilities)

    # the synthesized butterfly composes to the Fourier matrix within ~2e-15
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("n, p", [(2, 2), (2, 3), (2, 4), (4, 4)])
    def test_synthesized_chip(self, model, n, p):
        u = circuit_to_unitary(synthesize_qfft(p))
        period = 2**p // n
        for first in range(period):
            state = occupation_from_modes(range(first, 2**p, period), 2**p)
            self.assert_translation_invariant(model(u, state).probabilities)

    @staticmethod
    def assert_translation_invariant(probs):
        for out, p in probs.items():
            assert abs(probs[out[-1:] + out[:-1]] - p) <= 1e-15, out


class TestProductExpansion:
    """The whole-table expansion against the permutation-sum permanent over prod_k t_k!."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        m=st.integers(1, 6),
        photons=st.lists(st.integers(0, 5), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_permanent_definition(self, m, photons, seed):
        modes = sorted(k % m for k in photons)  # bunched inputs included
        rng = np.random.default_rng(seed)
        u = haar_random_unitary(m, rng)
        rows = enumerate_outputs(len(modes), m)
        t_fact = [math.prod(map(math.factorial, occ)) for occ in occupations(rows, m).tolist()]
        plan = tuple(fourier._expansion_plan(len(modes), m))
        for mat in (rng.uniform(0.0, 1.0, (m, m)), np.abs(u) ** 2, u):
            coeff = product_expansion(mat[:, modes], plan)
            assert coeff.dtype == mat.dtype
            for row, c, t in zip(rows, coeff, t_fact):
                ref = permanent_definition(mat[np.ix_(row, modes)]) / t
                assert abs(c - ref) <= 1e-13 * max(1.0, abs(ref)), (row, mat.dtype)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        m=st.integers(1, 6),
        n=st.integers(1, 4),
        batch=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_axis_gives_separate_expansions(self, m, n, batch, seed):
        rng = np.random.default_rng(seed)
        cols = rng.normal(size=(batch, m, n)) + 1j * rng.normal(size=(batch, m, n))
        plan = tuple(fourier._expansion_plan(n, m))
        for mat in (cols, cols.real.copy()):
            whole = product_expansion(mat, plan)
            assert whole.shape == (batch, math.comb(m + n - 1, n))
            assert np.array_equal(whole, [product_expansion(one, plan) for one in mat])

    @pytest.mark.parametrize("state", [(2, 0, 1, 0), (0, 3, 0), (1, 1, 0, 2, 0)])
    def test_bunched_input_distribution(self, state):
        u = haar_random_unitary(len(state), np.random.default_rng(len(state)))
        for out, p in distinguishable_distribution(u, state).probabilities.items():
            assert abs(p - distinguishable_probability(u, state, out)) <= 1e-14, out


class TestPermanentCap:
    @pytest.mark.parametrize("make", [fock_distribution])
    def test_refused_above_the_cap(self, make):
        # refused before any output is built or looked up
        before = fourier._outputs.cache_info(), fourier._output_set.cache_info()
        with pytest.raises(CapacityError, match="^permanent of size 21 exceeds cap 20$"):
            make(qft_matrix(2), (21, 0))
        assert (fourier._outputs.cache_info(), fourier._output_set.cache_info()) == before


class TestExpansionBudget:
    """The distinguishable table is bounded by its expansion work, not by a permanent size."""

    @pytest.mark.parametrize("n", [20, 21, 64, 161, 2047])
    def test_binomial_beyond_the_permanent_cap(self, n):
        # each photon leaves a balanced coupler by either port: Binomial(n, 1/2), scaled by
        # (2 w)^n, as every |F_jk|^2 rounds to w = 1/2 - 2^-53; 2047 photons fill the entry cap
        u = qft_matrix(2)
        scale = (2 * np.abs(u[0, 0]) ** 2) ** n
        probs = distinguishable_distribution(u, (n, 0)).probabilities
        for k in range(n + 1):
            exact = math.comb(n, k) / 2**n * scale
            # a value that passes through subnormal numbers keeps only an absolute bound
            assert abs(probs[(k, n - k)] - exact) <= 1e-13 * exact + 1e-290, k

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(n=st.integers(1, 200), first=st.integers(0, 200), seed=st.integers(0, 2**32 - 1))
    @example(n=200, first=200, seed=0)
    @example(n=200, first=100, seed=1)
    def test_poisson_binomial_on_two_modes(self, n, first, seed):
        # photon j leaves by mode 0 with probability |U_0j|^2, independently of the others
        state = (first % (n + 1), n - first % (n + 1))
        u = haar_random_unitary(2, np.random.default_rng(seed))
        w = np.abs(u) ** 2
        pmf = np.ones(1)  # pmf[k]: k photons in mode 0
        for j, count in enumerate(state):
            for _ in range(count):
                pmf = np.convolve(pmf, [w[1, j], w[0, j]])
        probs = distinguishable_distribution(u, state).probabilities
        for k in range(n + 1):
            # a value that passes through subnormal numbers keeps only an absolute bound
            assert abs(probs[(k, n - k)] - pmf[k]) <= 1e-13 * pmf[k] + 1e-290, (state, k)

    @pytest.mark.parametrize(
        "make, state, work",
        [
            # one table and its plan, 131,009 terms each, + 131,009 levels x 4096 steps
            (distinguishable_distribution, (131009,), 2 * 131009 + 131009 * 4096),
            # the plan and C(17, 9) outputs, 9 C(17, 9) terms each, + 9 levels x 4096 steps
            (mean_field_distribution, (1,) * 9, (1 + 24310) * 9 * 24310 + 9 * 4096),
        ],
        ids=["distinguishable", "mean_field"],
    )
    def test_refused_at_once(self, make, state, work, monkeypatch):
        monkeypatch.setattr(fourier, "occupations", None)
        plans = plan_recorder(monkeypatch)
        before = expansion_caches()
        with pytest.raises(CapacityError, match=(
            f"^the {make.__name__.removesuffix('_distribution')} table of {sum(state)} photons on {len(state)} modes "
            f"needs {work} expansion steps, above the budget {models.MAX_EXPANSION_WORK}$"
        )):
            make(qft_matrix(len(state)), state)
        assert expansion_caches() == before and plans == []

    def test_distinguishable_budget_at_its_boundary(self, monkeypatch):
        # three photons on two modes: the plan and the table, 3 C(4, 3) = 12 terms each, + 3 levels x 4096
        monkeypatch.setattr(models, "MAX_EXPANSION_WORK", 12311)
        with monkeypatch.context() as patch:
            patch.setattr(models, "_outcomes", None)  # refused before any output is built
            with pytest.raises(CapacityError, match="needs 12312 expansion steps, above the budget 12311"):
                distinguishable_distribution(qft_matrix(2), (2, 1))
        monkeypatch.setattr(models, "MAX_EXPANSION_WORK", 12312)
        assert distinguishable_distribution(qft_matrix(2), (2, 1)).total() == pytest.approx(1.0, abs=1e-15)


class TestQuadratureExactness:
    """The expansion gives the average over a 64-node grid per relative phase."""

    @pytest.mark.parametrize("seed", range(2))
    def test_two_photons(self, seed):
        u = haar_random_unitary(4, np.random.default_rng(seed))
        dist = mean_field_distribution(u, (1, 0, 1, 0))
        for out, p in dist.probabilities.items():
            modes = occupied_modes(out)
            ref = mean_field_pair_grid(u, [0, 2], (modes[0], modes[-1]), grid=64)
            assert abs(p - ref) <= 1e-12, out

    @pytest.mark.parametrize("m", [3, 9])
    def test_three_photons(self, m):
        u = haar_random_unitary(m, np.random.default_rng(m))
        state = cyclic_state(3, m)
        dist = mean_field_distribution(u, state)
        outs = sorted(dist.probabilities)[::10]
        ref = mean_field_grid(u, occupied_modes(state), outs, grid=64)
        for out, p in zip(outs, ref):
            assert abs(dist.probabilities[out] - p) <= 1e-12, out

    def test_blocks_of_outputs_add_up(self, monkeypatch):
        # three photons on nine modes: 165 outputs x 10 monomials x 3 photons
        u = haar_random_unitary(9, np.random.default_rng(12))
        state = cyclic_state(3, 9)
        monkeypatch.setattr(models, "BLOCK_ENTRIES", 165 * 10 * 3)  # one block
        whole = mean_field_distribution(u, state).probabilities
        monkeypatch.setattr(models, "BLOCK_ENTRIES", 100)  # 3 of the 165 outputs per block
        plans = plan_recorder(monkeypatch)
        blocks = mean_field_distribution(u, state).probabilities
        assert plans == [(3, 3)]  # one plan, built once for all 55 blocks
        assert list(blocks) == list(whole)
        assert np.array_equal(list(blocks.values()), list(whole.values()))


class TestEnumerationCap:
    @pytest.mark.parametrize(
        "make", [fock_distribution, distinguishable_distribution, mean_field_distribution]
    )
    def test_refused_before_enumerating(self, make):
        # C(259, 4) = 183,181,376 outputs
        with pytest.raises(CapacityError):
            make(qft_matrix(256), occupation_from_modes([0, 64, 128, 192], 256))

    def test_boundary(self, monkeypatch):
        # more photons than modes: 4 outputs x 3 photons, the rows outgrow the occupations
        monkeypatch.setattr(fourier, "MAX_OUTCOME_ENTRIES", 11)
        with pytest.raises(CapacityError, match="4 outputs of 3 photons on 2 modes make 12 row entries"):
            fock_distribution(qft_matrix(2), (3, 0))
        monkeypatch.setattr(fourier, "MAX_OUTCOME_ENTRIES", 12)
        assert len(fock_distribution(qft_matrix(2), (3, 0)).probabilities) == 4

    @pytest.mark.parametrize(
        "make", [fock_distribution, distinguishable_distribution, mean_field_distribution]
    )
    def test_outcome_entry_cap_boundary(self, make, monkeypatch):
        # two photons on four modes: 10 outputs x 4 modes = 40 occupation entries
        monkeypatch.setattr(fourier, "MAX_OUTCOME_ENTRIES", 39)
        with monkeypatch.context() as patch:
            patch.setattr(fourier, "occupations", None)  # refused before any is built
            with pytest.raises(CapacityError, match="10 outputs of 2 photons on 4 modes make 40 "):
                make(qft_matrix(4), (1, 0, 1, 0))
        monkeypatch.setattr(fourier, "MAX_OUTCOME_ENTRIES", 40)
        assert len(make(qft_matrix(4), (1, 0, 1, 0)).probabilities) == 10

    @pytest.mark.parametrize(
        "enumerate_",
        [
            lambda: fock_distribution(qft_matrix(4), (1, 0, 1, 0)),
            lambda: distinguishable_distribution(qft_matrix(4), (1, 0, 1, 0)),
            lambda: mean_field_distribution(qft_matrix(4), (1, 0, 1, 0)),
            lambda: partition_outputs(2, 4),
        ],
        ids=["fock", "distinguishable", "mean_field", "partition"],
    )
    def test_one_cap_check_in_fourier(self, enumerate_, monkeypatch):
        # two photons on four modes have N = 10 outputs
        monkeypatch.setattr(fourier, "MAX_OUTCOME_ENTRIES", 39)
        with pytest.raises(CapacityError, match="^10 outputs of 2 photons on 4 modes make 40 occupation entries, above the cap 39$"):
            enumerate_()


class TestSharedTables:
    """Outcome tables are built once per (n, m); the caps still hold on every call."""

    makers = (fock_distribution, distinguishable_distribution, mean_field_distribution)

    @pytest.mark.parametrize("make", makers)
    def test_caps_hold_after_a_cached_call(self, make, monkeypatch):
        u, state = qft_matrix(4), (1, 0, 1, 0)
        assert len(make(u, state).probabilities) == 10
        monkeypatch.setattr(fourier, "MAX_OUTCOME_ENTRIES", 39)
        with pytest.raises(CapacityError, match="10 outputs of 2 photons on 4 modes make 40 "):
            make(u, state)
        monkeypatch.setattr(fourier, "MAX_OUTCOME_ENTRIES", 40)
        assert len(make(u, state).probabilities) == 10

    def test_more_keys_than_the_cache_holds(self):
        fourier._output_set.cache_clear()
        shapes = [(2, 4), (2, 6), (3, 6), (2, 8), (3, 9), (4, 8)]
        assert len(shapes) > fourier._output_set.cache_info().maxsize
        cases = {
            (n, m): (haar_random_unitary(m, np.random.default_rng(m + n)), cyclic_state(n, m))
            for n, m in shapes
        }
        cold = {key: [make(u, state) for make in self.makers] for key, (u, state) in cases.items()}
        for key in [*shapes[::-1], *shapes[::2], *shapes[1::2], *shapes]:
            u, state = cases[key]
            assert [make(u, state) for make in self.makers] == cold[key]
        assert fourier._output_set.cache_info().currsize == fourier._output_set.cache_info().maxsize

    def test_no_plan_outlives_its_table(self):
        # 500 photons on 2 modes: levels of up to 1,000 terms, a 5 MB plan if one were kept
        tracemalloc.start()
        try:
            distinguishable_distribution(qft_matrix(2), (500, 0))
            fourier._outputs.cache_clear()
            fourier._output_set.cache_clear()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 1 << 20

    @pytest.mark.parametrize("n,m", [(2, 8), (3, 9), (4, 16)])
    def test_tables_are_keyed_by_the_partition_tuples(self, n, m):
        part = partition_outputs(n, m)
        u, state = haar_random_unitary(m, np.random.default_rng(m)), cyclic_state(n, m)
        for make in self.makers:
            keys = {id(out): out for out in make(u, state).probabilities}
            assert all(keys.get(id(out)) is out for out in part.forbidden | part.allowed), make.__name__


class TestStateEntries:
    """Occupations must be non-negative integers; none is truncated."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: fock_distribution(qft_matrix(2), (2.7, 0)),
            lambda: distinguishable_distribution(qft_matrix(2), (1, 0.5)),
            lambda: fock_distribution(qft_matrix(2), (float("nan"), 2)),
            lambda: is_suppressed((1.5, 0.5), 2),
            lambda: is_suppressed((3, -1), 2),
            lambda: is_suppressed((float("nan"), 2), 2),
            lambda: is_cyclic_state((1.5, 0, 0.5, 0)),
            lambda: is_cyclic_state((float("nan"), 0)),
            lambda: photon_number((2.7, 0)),
            lambda: fourier.check_state(("a", 1)),
        ],
        ids=["fock-2.7", "dist-0.5", "fock-nan", "suppressed-1.5", "suppressed-negative", "suppressed-nan",
             "cyclic-1.5", "cyclic-nan", "photons-2.7", "state-str"],
    )
    def test_refused(self, call):
        with pytest.raises(DomainError, match="is not a non-negative integer"):
            call()

    def test_integral_floats_and_numpy_ints_give_identical_tables(self):
        u = haar_random_unitary(4, np.random.default_rng(4))
        for make in TestSharedTables.makers:
            table = make(u, (1, 0, 1, 0))
            for state in ((1.0, 0.0, 1.0, 0.0), np.array([1, 0, 1, 0]), tuple(np.array([1, 0, 1, 0], dtype=np.uint8))):
                same = make(u, state)
                assert same == table and all(type(k) is int for k in same.input), make.__name__


class TestCoincidenceCurves:
    def test_large_delay_gives_classical(self):
        curves = two_photon_coincidences(
            qft_matrix(4), (0, 2), DelayModel(alpha=0.95), delta_x=[1e6]
        )
        np.testing.assert_allclose(curves.quantum[0], curves.classical, rtol=0, atol=1e-12)

    def test_zero_delay_perfect_source_suppresses(self):
        curves = two_photon_coincidences(
            qft_matrix(4), (0, 2), DelayModel(alpha=1.0), delta_x=[0.0]
        )
        for pair in forbidden_pairs(4):
            assert curves.quantum[0, curves.pairs.index(pair)] == pytest.approx(0.0, abs=1e-12)

    def test_zero_delay_alpha_residual(self):
        curves = two_photon_coincidences(
            qft_matrix(4), (0, 2), DelayModel(alpha=0.95), delta_x=[0.0]
        )
        for pair in forbidden_pairs(4):
            k = curves.pairs.index(pair)
            assert curves.quantum[0, k] == pytest.approx(0.05 * curves.classical[k], abs=1e-12)

    def test_monotone_in_overlap(self):
        dx = np.linspace(0.0, 400.0, 30)
        curves = two_photon_coincidences(qft_matrix(4), (0, 1), DelayModel(alpha=0.9), dx)
        for pair, q in zip(curves.pairs, curves.quantum.T):
            diffs = np.diff(q)
            assert np.all(diffs >= -1e-12) or np.all(diffs <= 1e-12), pair

    def test_interpolates_between_models(self):
        u = haar_random_unitary(4, np.random.default_rng(3))
        curves = two_photon_coincidences(u, (0, 3), DelayModel(alpha=1.0), [0.0, 1e9])
        pq, pc = two_photon_probabilities(u, (0, 3))
        assert curves.pairs == tuple((i, j) for i in range(4) for j in range(i, 4))
        assert curves.quantum.shape == (2, 10) and curves.classical.shape == (10,)
        for k, (i, j) in enumerate(curves.pairs):
            assert curves.quantum[0, k] == pytest.approx(pq[i, j], abs=1e-12)
            assert curves.quantum[1, k] == pytest.approx(pc[i, j], abs=1e-12)
            assert curves.classical[k] == pc[i, j]

    def test_rejects_bunched_input(self):
        with pytest.raises(DomainError):
            two_photon_coincidences(qft_matrix(4), (1, 1), DelayModel(), [0.0])

    @pytest.mark.parametrize("pair", [(1.7, 3), (float("nan"), 3), (1, -1), ("a", 3)])
    def test_non_integral_labels_refused(self, pair):
        # none is truncated: (1.7, 3) used to score input (1, 3)
        with pytest.raises(DomainError, match="^input mode .* is not a non-negative integer$"):
            two_photon_coincidences(qft_matrix(4), pair, DelayModel(), [0.0])
        u = haar_random_unitary(4, np.random.default_rng(4))
        exact = two_photon_coincidences(u, (1, 3), DelayModel(), [0.0, 50.0])
        same = two_photon_coincidences(u, (1.0, np.int64(3)), DelayModel(), [0.0, 50.0])
        assert same.input == (1, 3) and all(type(k) is int for k in same.input)
        assert np.array_equal(same.quantum, exact.quantum)


class TestTwoPhotonProbabilities:
    @pytest.mark.parametrize("seed", range(5))
    def test_cross_check_with_general_distributions(self, seed):
        rng = np.random.default_rng(seed)
        u = haar_random_unitary(4, rng)
        pq, pc = two_photon_probabilities(u, (0, 2))
        state = (1, 0, 1, 0)
        fock = fock_distribution(u, state).probabilities
        dist = distinguishable_distribution(u, state).probabilities
        for out, p in fock.items():
            modes = occupied_modes(out)
            i, j = modes[0], modes[-1]
            assert pq[i, j] == pytest.approx(p, abs=1e-12)
            assert pc[i, j] == pytest.approx(dist[out], abs=1e-12)

    @pytest.mark.parametrize("u", [np.full(4, 0.5), np.full((3, 2), 0.5)], ids=["1-d", "3x2"])
    def test_non_square_matrix_refused(self, u):
        with pytest.raises(ShapeError):
            two_photon_probabilities(u, (0, 1))

    def test_normalised(self):
        u = haar_random_unitary(6, np.random.default_rng(9))
        pq, pc = two_photon_probabilities(u, (1, 4))
        iu = np.triu_indices(6)
        assert np.sum(pq[iu]) == pytest.approx(1.0, abs=1e-10)
        assert np.sum(pc[iu]) == pytest.approx(1.0, abs=1e-10)


class TestFullBunching:
    def test_qft4_cyclic_input(self):
        vis = full_bunching_visibilities(qft_matrix(4), (0, 2))
        assert set(vis) == {0, 1, 2, 3}
        for v in vis.values():
            assert v == pytest.approx(-1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(20))
    def test_haar_random_always_minus_one(self, seed):
        u = haar_random_unitary(4, np.random.default_rng(1000 + seed))
        for pair in [(0, 1), (0, 2), (1, 3)]:
            for v in full_bunching_visibilities(u, pair).values():
                assert v == pytest.approx(-1.0, abs=1e-10)

    def test_identity_has_no_bunching(self):
        assert full_bunching_visibilities(np.eye(4), (0, 2)) == {}


class TestDelayModel:
    def test_overlap_bounds(self):
        model = DelayModel(alpha=0.9, coherence_length=50.0)
        dx = np.linspace(-500, 500, 101)
        ov = model.overlap(dx)
        assert np.all(ov >= 0) and np.all(ov <= 0.9)
        assert model.overlap(0.0) == pytest.approx(0.9)
        assert model.overlap(1e6) == pytest.approx(0.0, abs=1e-300)

    def test_delay_that_overflows_the_ratio_has_no_overlap(self):
        # (dx / length)^2 overflows to inf; RuntimeWarnings are errors in this suite
        model = DelayModel(alpha=0.5, coherence_length=1e-250)
        assert model.overlap([-1e305, 0.0, 1e305]).tolist() == [0.0, 0.5, 0.0]

    def test_validation(self):
        with pytest.raises(DomainError):
            DelayModel(alpha=1.2)
        with pytest.raises(DomainError):
            DelayModel(coherence_length=0.0)
        for length in (float("nan"), float("inf")):
            with pytest.raises(DomainError, match="positive and finite"):
                DelayModel(coherence_length=length)

