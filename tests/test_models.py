import math

import numpy as np
import pytest

from qfftsim import models
from qfftsim.errors import CapacityError, DomainError, ValidationError
from qfftsim.fourier import occupation_from_modes, occupied_modes, partition_outputs, qft_matrix
from qfftsim.linalg import haar_random_unitary
from qfftsim.models import (
    DelayModel,
    distinguishable_distribution,
    distribution_from_json,
    fock_distribution,
    full_bunching_visibilities,
    is_cyclic_state,
    mean_field_distribution,
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
)


def cyclic_state(n, m):
    return tuple(int(k % (m // n) == 0) for k in range(m))


def forbidden_pairs(m):
    part = partition_outputs(2, m, collision_free_only=True)
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

    def test_single_shot_is_normalised_multinomial(self):
        probs = mean_field_distribution(qft_matrix(4), (1, 0, 1, 0), "monte_carlo", 1, seed=0)
        assert sum(probs.probabilities.values()) == pytest.approx(1.0, abs=1e-12)
        again = mean_field_distribution(qft_matrix(4), (1, 0, 1, 0), "monte_carlo", 1, seed=0)
        assert probs == again

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

    def test_monte_carlo_agrees_with_quadrature(self):
        u = qft_matrix(4)
        quad = mean_field_distribution(u, (1, 0, 1, 0))
        mc = mean_field_distribution(u, (1, 0, 1, 0), method="monte_carlo", samples=4000, seed=7)
        assert mc.stderr is not None
        for out, p in quad.probabilities.items():
            err = max(mc.stderr[out], 1e-6)
            assert abs(mc.probabilities[out] - p) < 3 * err, out

    def test_three_photon_quadrature(self):
        # p = 1 cyclic state on three modes exercises the 2-D quadrature grid
        dist = mean_field_distribution(qft_matrix(3), (1, 1, 1))
        assert dist.total() == pytest.approx(1.0, abs=1e-10)
        assert all(p >= 0 for p in dist.probabilities.values())

    def test_rejects_non_cyclic_input(self):
        with pytest.raises(DomainError):
            mean_field_distribution(qft_matrix(4), (1, 1, 0, 0))

    def test_samples_cap_at_its_boundary(self, monkeypatch):
        for samples in (0, models.MAX_SAMPLES + 1, 10**12):
            with pytest.raises(DomainError, match="samples"):
                mean_field_distribution(qft_matrix(4), (1, 0, 1, 0), "monte_carlo", samples, seed=0)
        monkeypatch.setattr(models, "MAX_SAMPLES", 5)
        with pytest.raises(DomainError, match=r"samples must be in \[1, 5\], got 6"):
            mean_field_distribution(qft_matrix(4), (1, 0, 1, 0), "monte_carlo", 6, seed=0)
        dist = mean_field_distribution(qft_matrix(4), (1, 0, 1, 0), "monte_carlo", 5, seed=0)
        assert dist.total() == pytest.approx(1.0, abs=1e-12)

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


class TestQuadratureExactness:
    """n + 1 nodes per relative phase give the 64-node grid's average."""

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

    def test_blocks_of_draws_add_up(self, monkeypatch):
        u = haar_random_unitary(8, np.random.default_rng(12))
        state = cyclic_state(2, 8)
        whole = mean_field_distribution(u, state, method="monte_carlo", samples=300, seed=5)
        monkeypatch.setattr(models, "BLOCK_ENTRIES", 500)  # 6 of the 300 draws per block
        blocks = mean_field_distribution(u, state, method="monte_carlo", samples=300, seed=5)
        for out, p in whole.probabilities.items():
            assert abs(blocks.probabilities[out] - p) <= 1e-15
            assert abs(blocks.stderr[out] - whole.stderr[out]) <= 1e-15


class TestEnumerationCap:
    @pytest.mark.parametrize(
        "make", [fock_distribution, distinguishable_distribution, mean_field_distribution]
    )
    def test_refused_before_enumerating(self, make):
        # C(259, 4) = 183,181,376 outputs
        with pytest.raises(CapacityError):
            make(qft_matrix(256), occupation_from_modes([0, 64, 128, 192], 256))

    def test_boundary(self, monkeypatch):
        monkeypatch.setattr(models, "ENUMERATION_CAP", 9)
        with pytest.raises(CapacityError):
            fock_distribution(qft_matrix(4), (1, 0, 1, 0))
        monkeypatch.setattr(models, "ENUMERATION_CAP", 10)
        assert len(fock_distribution(qft_matrix(4), (1, 0, 1, 0)).probabilities) == 10


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

    def test_validation(self):
        with pytest.raises(DomainError):
            DelayModel(alpha=1.2)
        with pytest.raises(DomainError):
            DelayModel(coherence_length=0.0)
        for length in (float("nan"), float("inf")):
            with pytest.raises(DomainError, match="positive and finite"):
                DelayModel(coherence_length=length)


def test_distribution_json_round_trip():
    dist = fock_distribution(qft_matrix(4), (1, 0, 1, 0), unitary_id="qft-model:m=4")
    again = distribution_from_json(dist.to_json())
    assert again.model == dist.model
    assert again.input == dist.input
    assert again.unitary_id == dist.unitary_id
    for out, p in dist.probabilities.items():
        assert again.probabilities[out] == pytest.approx(p, abs=0.0)
