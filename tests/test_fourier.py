import math
import re
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfftsim import fourier
from qfftsim.errors import CapacityError, DomainError
from qfftsim.fourier import (
    cyclic_inputs,
    enumerate_outputs,
    is_suppressed,
    occupation_from_modes,
    occupations,
    occupied_modes,
    partition_outputs,
    qft_matrix,
    suppressed,
)
from qfftsim.linalg import DEFAULT_TOL, unitarity_defect
from qfftsim.models import fock_distribution


class TestQftMatrix:
    def test_m1(self):
        assert np.array_equal(qft_matrix(1), np.array([[1.0 + 0j]]))

    def test_m2_is_hadamard(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.allclose(qft_matrix(2), expected)

    def test_m4_entry(self):
        assert qft_matrix(4)[1, 1] == pytest.approx(0.5j)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 16, 64])
    def test_unitary(self, m):
        assert unitarity_defect(qft_matrix(m)) <= DEFAULT_TOL

    def test_zero_modes(self):
        with pytest.raises(DomainError):
            qft_matrix(0)

    @pytest.mark.parametrize("m", [2.5, float("nan"), -1, "a"])
    def test_non_integral_size_refused(self, m):
        with pytest.raises(DomainError, match=f"^mode count {re.escape(repr(m))} is not a non-negative integer$"):
            qft_matrix(m)
        assert np.array_equal(qft_matrix(4.0), qft_matrix(4))
        assert np.array_equal(qft_matrix(np.int64(4)), qft_matrix(4))


class TestCyclicInputs:
    def test_two_photons_four_modes(self):
        assert cyclic_inputs(2, 2) == [(1, 0, 1, 0), (0, 1, 0, 1)]

    def test_two_photons_eight_modes(self):
        assert cyclic_inputs(2, 3) == [
            (1, 0, 0, 0, 1, 0, 0, 0),
            (0, 1, 0, 0, 0, 1, 0, 0),
            (0, 0, 1, 0, 0, 0, 1, 0),
            (0, 0, 0, 1, 0, 0, 0, 1),
        ]

    def test_two_photons_two_modes(self):
        assert cyclic_inputs(2, 1) == [(1, 1)]

    def test_states_are_translations(self):
        states = cyclic_inputs(3, 2)
        first = states[0]
        for shift, state in enumerate(states):
            rolled = tuple(np.roll(first, shift))
            assert state == rolled

    def test_rejects_single_photon(self):
        with pytest.raises(DomainError):
            cyclic_inputs(1, 3)

    @pytest.mark.parametrize("n,p", [(2.5, 2), (2, 1.5), (float("nan"), 2), (-1, 2), (2, "a")])
    def test_non_integral_arguments_refused(self, n, p):
        with pytest.raises(DomainError, match="is not a non-negative integer"):
            cyclic_inputs(n, p)
        assert cyclic_inputs(2.0, np.int64(2)) == cyclic_inputs(2, 2)

    def test_at_the_entry_cap(self):
        # 4^5 inputs x 4^6 modes = 2^22 occupation entries
        assert len(cyclic_inputs(4, 6)) == 4**5

    @pytest.mark.parametrize("n,p,entries", [(2, 12, "2^23"), (3, 8, "3^15"), (2, 10**9, "2^1999999999")])
    def test_refused_above_the_entry_cap(self, n, p, entries):
        # no power of a huge p is taken
        with pytest.raises(CapacityError, match=rf"on {n}\^{p} modes make {re.escape(entries)} occupation entries"):
            cyclic_inputs(n, p)


class TestIsSuppressed:
    def test_cyclic_output_allowed(self):
        # modes 1 and 3 (1-based): even label sum
        assert not is_suppressed((1, 0, 1, 0), 2)

    def test_adjacent_output_suppressed(self):
        assert is_suppressed((1, 1, 0, 0), 2)

    def test_bunched_output_allowed(self):
        assert not is_suppressed((2, 0, 0, 0), 2)

    def test_multiplicity_counts(self):
        # both photons in mode 2 (1-based): label sum 4
        assert not is_suppressed((0, 2, 0), 2)
        # three photons bunched in mode 2 of three modes: label sum 6
        assert not is_suppressed((0, 3, 0), 3)
        assert is_suppressed((0, 0, 3), 3) == (9 % 3 != 0)

    def test_photon_count_mismatch(self):
        with pytest.raises(DomainError):
            is_suppressed((1, 0, 1, 0), 3)

    def test_zero_photons_refused(self):
        with pytest.raises(DomainError, match="^photon number must be >= 1, got 0$"):
            is_suppressed((0, 0, 0, 0), 0)


def collision_free(states):
    return {s for s in states if max(s) == 1}


class TestPartitionOutputs:
    def test_m4_collision_free(self):
        part = partition_outputs(2, 4)
        forbidden_pairs = {tuple(occupied_modes(s)) for s in collision_free(part.forbidden)}
        allowed_pairs = {tuple(occupied_modes(s)) for s in collision_free(part.allowed)}
        assert forbidden_pairs == {(0, 1), (0, 3), (1, 2), (2, 3)}
        assert allowed_pairs == {(0, 2), (1, 3)}

    def test_m8_collision_free_counts(self):
        part = partition_outputs(2, 8)
        assert len(collision_free(part.forbidden)) == 16
        assert len(collision_free(part.allowed)) == 12

    def test_two_photon_forbidden_set_is_collision_free(self):
        # a bunched output (k, k) has the even label sum 2k, so the law never forbids it
        for m in range(2, 65):
            forbidden = partition_outputs(2, m).forbidden
            assert collision_free(forbidden) == forbidden, m
            rows = enumerate_outputs(2, m)
            picked = rows[suppressed(rows)]
            assert (picked[:, 0] < picked[:, 1]).all(), m
            assert forbidden == {occupation_from_modes(row, m) for row in picked.tolist()}, m

    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    def test_collision_free_total_is_binomial(self, m):
        part = partition_outputs(2, m)
        assert len(collision_free(part.forbidden | part.allowed)) == math.comb(m, 2)
        assert len(part.forbidden | part.allowed) == math.comb(m + 1, 2)

    def test_enumeration_cap(self):
        with pytest.raises(CapacityError):
            partition_outputs(2, 100_000)

    def test_occupation_entry_cap(self):
        # C(1025, 2) = 524,800 outputs x 1024 modes = 537 million occupation entries
        with pytest.raises(CapacityError, match="make 537395200 occupation entries"):
            partition_outputs(2, 1024)

    def test_occupation_entry_cap_boundary(self, monkeypatch):
        # two photons on four modes: 10 outputs x 4 modes
        monkeypatch.setattr(fourier, "MAX_OUTCOME_ENTRIES", 39)
        with monkeypatch.context() as patch:
            patch.setattr(fourier, "occupations", None)  # refused before any is built
            with pytest.raises(CapacityError, match="on 4 modes make 40 occupation entries"):
                partition_outputs(2, 4)
        monkeypatch.setattr(fourier, "MAX_OUTCOME_ENTRIES", 40)
        part = partition_outputs(2, 4)
        assert len(part.allowed) + len(part.forbidden) == 10


class TestEnumerateOutputs:
    """The (N, n) occupied-mode array against itertools and the scalar rule."""

    shapes = dict(n=st.integers(1, 5), m=st.integers(1, 8))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(**shapes)
    def test_rows_are_itertools_combinations_in_order(self, n, m):
        combos = list(combinations_with_replacement(range(m), n))
        rows = enumerate_outputs(n, m)
        assert rows.dtype == np.intp
        assert rows.shape == (len(combos), n)
        assert rows.tolist() == [list(c) for c in combos]

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(**shapes)
    def test_occupations_round_trip(self, n, m):
        rows = enumerate_outputs(n, m)
        occ = occupations(rows, m)
        assert occ.shape == (len(rows), m)
        assert (occ.sum(axis=1) == n).all()
        for row, state in zip(rows.tolist(), occ.tolist()):
            assert occupied_modes(state) == row

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(**shapes)
    def test_partition_agrees_with_scalar_rule(self, n, m):
        states = [occupation_from_modes(c, m) for c in combinations_with_replacement(range(m), n)]
        part = partition_outputs(n, m)
        assert part.allowed | part.forbidden == set(states)
        assert not part.allowed & part.forbidden
        for state in states:
            assert (state in part.forbidden) == is_suppressed(state, n), state

    @pytest.mark.parametrize(
        "n,m", [(n, m) for n in range(1, 6) for m in range(1, 9)] + [(2, 64), (4, 28), (40, 2), (25, 1), (12, 3)]
    )
    def test_expansion_plan_parents(self, n, m):
        # at (2, 64) and (4, 28) a positional key sum_j a_j (n + 1)^j would not fit in int64; at
        # (40, 2), (25, 1) and (12, 3) most terms inherit their parent through a long chain of levels
        plan = tuple(fourier._expansion_plan(n, m))
        assert len(plan) == n - 1
        for r, (modes, parents, starts) in enumerate(plan, start=2):
            rank = {tuple(row): i for i, row in enumerate(enumerate_outputs(r - 1, m).tolist())}
            outputs = enumerate_outputs(r, m).tolist()
            assert len(starts) == len(outputs)
            ends = [*starts[1:].tolist(), len(modes)]
            for out, lo, hi in zip(outputs, starts.tolist(), ends):
                distinct = sorted(set(out))
                assert modes[lo:hi].tolist() == distinct[-1:] + distinct[:-1], out  # the last term first
                for k, parent in zip(modes[lo:hi].tolist(), parents[lo:hi].tolist()):
                    less = list(out)
                    less.remove(k)
                    assert parent == rank[tuple(less)], (out, k)

    @pytest.mark.parametrize("n,m", [(0, 4), (2, 0)])
    def test_rejects_empty_shapes(self, n, m):
        with pytest.raises(DomainError):
            enumerate_outputs(n, m)


class TestSharedTables:
    """Outputs and partitions are built once per key; the caps still hold on every call."""

    def test_outputs_are_shared_and_read_only(self):
        rows = enumerate_outputs(3, 5)
        with pytest.raises(ValueError):
            rows[0, 0] = 4
        assert enumerate_outputs(3, 5) is rows
        assert rows.tolist() == [list(c) for c in combinations_with_replacement(range(5), 3)]

    def test_enumeration_cap_holds_after_a_cached_call(self, monkeypatch):
        # 10 outputs: 20 row entries, 40 with their occupations over 4 modes
        enumerate_outputs(2, 4)
        partition_outputs(2, 4)
        monkeypatch.setattr(fourier, "MAX_OUTCOME_ENTRIES", 19)
        with pytest.raises(CapacityError, match="10 outputs of 2 photons on 4 modes make 20 row entries"):
            enumerate_outputs(2, 4)
        monkeypatch.setattr(fourier, "MAX_OUTCOME_ENTRIES", 20)
        assert len(enumerate_outputs(2, 4)) == 10
        with pytest.raises(CapacityError, match="10 outputs of 2 photons on 4 modes make 40 occupation entries"):
            partition_outputs(2, 4)

    def test_entry_cap_holds_after_a_cached_call(self, monkeypatch):
        partition_outputs(2, 4)
        monkeypatch.setattr(fourier, "MAX_OUTCOME_ENTRIES", 39)
        with pytest.raises(CapacityError, match="on 4 modes make 40 occupation entries"):
            partition_outputs(2, 4)

    def test_refused_rows_are_not_kept(self):
        enumerate_outputs(2, 4)
        before = fourier._outputs.cache_info(), fourier._output_set.cache_info()
        with pytest.raises(CapacityError, match="make 537395200 occupation entries"):
            partition_outputs(2, 1024)
        assert (fourier._outputs.cache_info(), fourier._output_set.cache_info()) == before
        assert enumerate_outputs(2, 4).tolist() == [list(c) for c in combinations_with_replacement(range(4), 2)]

    def test_more_keys_than_the_cache_holds(self):
        fourier._outputs.cache_clear()
        fourier._output_set.cache_clear()
        size = max(fourier._outputs.cache_info().maxsize, fourier._output_set.cache_info().maxsize)
        keys = [(2, 5), (3, 4), (2, 6), (3, 5), (2, 7)]
        assert len(keys) > size
        cold = {key: (enumerate_outputs(*key).copy(), partition_outputs(*key)) for key in keys}
        for key in [*keys[::-1], *keys[::2], *keys[1::2], *keys]:
            rows, part = cold[key]
            assert np.array_equal(enumerate_outputs(*key), rows)
            assert partition_outputs(*key) == part


class TestSuppressionLaw:
    """Forbidden outputs of the exact Fourier matrix carry no Fock probability."""

    @pytest.mark.parametrize("n,p", [(2, 1), (2, 2), (2, 3), (3, 1)])
    def test_forbidden_outputs_are_dark(self, n, p):
        m = n**p
        u = qft_matrix(m)
        part = partition_outputs(n, m)
        for state in cyclic_inputs(n, p):
            dist = fock_distribution(u, state)
            for out in part.forbidden:
                assert dist.probabilities[out] < 1e-10, (state, out)

    def test_partition_exhausts_enumeration(self):
        part = partition_outputs(2, 4)
        outputs = occupations(enumerate_outputs(2, 4), 4).tolist()
        assert part.allowed | part.forbidden == set(map(tuple, outputs))
        assert not part.allowed & part.forbidden


def test_occupation_round_trip():
    state = occupation_from_modes([0, 0, 2], 4)
    assert state == (2, 0, 1, 0)
    assert occupied_modes(state) == [0, 0, 2]
