import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfftsim import linalg
from qfftsim.errors import CapacityError, DomainError, ShapeError, ValidationError
from qfftsim.fourier import qft_matrix
from qfftsim.linalg import (
    DEFAULT_TOL,
    GLYNN_BLOCK,
    PERMANENT_CAP,
    assert_unitary,
    fidelity,
    haar_random_unitary,
    matrix_from_json,
    matrix_to_json,
    permanent,
    unitarity_defect,
)

from oracles import permanent_definition


class TestPermanent:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_identity(self, n):
        assert permanent(np.eye(n)) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_all_ones_is_factorial(self, n):
        assert permanent(np.ones((n, n))) == pytest.approx(math.factorial(n), rel=1e-12)

    def test_random_5x5_vs_definition(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        ref = permanent_definition(a)
        assert abs(permanent(a) - ref) / abs(ref) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        p = np.eye(n)[rng.permutation(n)]
        q = np.eye(n)[rng.permutation(n)]
        assert permanent(p @ a @ q) == pytest.approx(permanent(a), rel=1e-10)

    @pytest.mark.parametrize("n", range(9))
    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_definition(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ref = permanent_definition(a)
        assert abs(permanent(a) - ref) <= 1e-12 * abs(ref)

    # n = 13 fills one sign block; 14, 16 and 20 loop over 2, 8 and 128 patterns of the rows above it
    @pytest.mark.parametrize("n", [13, 14, 16, 20])
    def test_large_sizes(self, n):
        rng = np.random.default_rng(n)
        assert permanent(np.ones((n, n))) == pytest.approx(math.factorial(n), rel=1e-12)
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        p = np.eye(n)[rng.permutation(n)]
        assert abs(permanent(np.diag(d) @ p) - np.prod(d)) <= 1e-12 * abs(np.prod(d))

    def test_row_expansion_across_the_block_edge(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((14, 14)) + 1j * rng.standard_normal((14, 14))
        expansion = sum(a[0, j] * permanent(np.delete(a[1:], j, axis=1)) for j in range(14))
        assert abs(permanent(a) - expansion) <= 1e-12 * abs(expansion)

    def test_row_expansion_at_the_largest_single_block(self):
        n = GLYNN_BLOCK + 1  # 13, the largest permanent of one matrix product
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        expansion = sum(a[0, j] * permanent(np.delete(a[1:], j, axis=1)) for j in range(n))
        assert abs(permanent(a) - expansion) <= 1e-12 * abs(expansion)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_block_split_matches_the_definition(self, n, monkeypatch):
        # a block of k + 1 < n rows runs the row loop over the 2^(n-1-k) sign patterns above it,
        # which the default block reaches only from n = 14
        rng = np.random.default_rng(100 + n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ref = permanent_definition(a)
        for k in range(n - 1):
            monkeypatch.setattr(linalg, "GLYNN_BLOCK", k)
            assert abs(permanent(a) - ref) <= 1e-12 * abs(ref), k

    @pytest.mark.parametrize("n", [1, 4, 8, GLYNN_BLOCK + 1, GLYNN_BLOCK + 2])
    def test_layouts_give_the_same_bits(self, n):
        # the Fock table passes views into its gathered (N, n, n) stack; the sums must not
        # depend on the memory layout a caller hands over
        rng = np.random.default_rng(n)
        u = haar_random_unitary(16, rng)
        rows = np.sort(rng.integers(0, 16, (3, n)), axis=1)
        stack = u[rows[:, :, None], np.sort(rng.integers(0, 16, n))]
        for block in stack:
            ref = permanent(block.copy())
            for layout in (block, np.ascontiguousarray(block.T).T, np.asfortranarray(block)):
                assert permanent(layout) == ref

    def test_repeated_row(self):
        u = haar_random_unitary(4, np.random.default_rng(3))
        assert abs(permanent(u[np.ix_([2, 2], [0, 3])]) - 2 * u[2, 0] * u[2, 3]) < 1e-13

    def test_zero_row_gives_zero(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((4, 4)) + 0j
        a[2, :] = 0.0
        assert abs(permanent(a)) < 1e-13

    def test_non_square(self):
        with pytest.raises(ShapeError):
            permanent(np.ones((2, 3)))

    def test_cap(self):
        with pytest.raises(CapacityError):
            permanent(np.eye(PERMANENT_CAP + 1))


class TestFidelity:
    def test_self_fidelity(self):
        u = haar_random_unitary(5, np.random.default_rng(0))
        assert fidelity(u, u) == pytest.approx(1.0, abs=1e-12)

    def test_global_phase_invariance(self):
        u = haar_random_unitary(4, np.random.default_rng(1))
        assert fidelity(u, np.exp(0.37j) * u) == pytest.approx(1.0, abs=1e-12)

    def test_identity_vs_hadamard_qft(self):
        assert fidelity(np.eye(2), qft_matrix(2)) == pytest.approx(0.0, abs=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        u = haar_random_unitary(4, rng)
        v = haar_random_unitary(4, rng)
        assert fidelity(u, v) == pytest.approx(fidelity(v, u), abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            fidelity(np.eye(2), np.eye(3))


class TestUnitarity:
    def test_haar_random_is_unitary(self):
        u = haar_random_unitary(6, np.random.default_rng(4))
        assert unitarity_defect(u) <= 1e-12

    def test_product_preserves_unitarity(self):
        rng = np.random.default_rng(9)
        u = assert_unitary(haar_random_unitary(5, rng))
        v = assert_unitary(haar_random_unitary(5, rng))
        assert unitarity_defect(u @ v) <= DEFAULT_TOL

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            assert_unitary(np.ones((2, 2)))

    def test_nan_defect_or_tolerance_fails(self):
        with pytest.raises(ValidationError):
            assert_unitary(np.full((2, 2), np.nan))
        with pytest.raises(ValidationError):
            assert_unitary(np.eye(2), tol=float("nan"))

    @pytest.mark.parametrize("m", [2.5, float("nan"), -1, "a"])
    def test_haar_size_refused(self, m):
        with pytest.raises(DomainError, match="^mode count .* is not a non-negative integer$"):
            haar_random_unitary(m, np.random.default_rng(0))
        u = haar_random_unitary(3, np.random.default_rng(5))
        assert np.array_equal(haar_random_unitary(3.0, np.random.default_rng(5)), u)

    def test_haar_seeding_is_reproducible(self):
        a = haar_random_unitary(4, np.random.default_rng(77))
        b = haar_random_unitary(4, np.random.default_rng(77))
        assert np.array_equal(a, b)


class TestMatrixJson:
    def test_round_trip(self):
        u = haar_random_unitary(3, np.random.default_rng(6))
        again = matrix_from_json(matrix_to_json(u))
        assert np.array_equal(u, again)
        # integral floats read as the same dimensions
        assert np.array_equal(u, matrix_from_json(json.loads(json.dumps(matrix_to_json(u)), parse_int=float)))

    def test_entry_count_validated(self):
        with pytest.raises(ValidationError):
            matrix_from_json({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]})

    def test_missing_field(self):
        with pytest.raises(ValidationError):
            matrix_from_json({"rows": 2, "entries": []})

    @pytest.mark.parametrize(
        "obj",
        [
            {"rows": "two", "cols": 1, "entries": [[1, 0], [0, 0]]},
            {"rows": float("inf"), "cols": 1, "entries": []},
            {"rows": 1, "cols": 1, "entries": 5},
            {"rows": 1, "cols": 1, "entries": [["1", "0"]]},
            {"rows": 1, "cols": 1, "entries": [[1, 0, 0]]},
            {"rows": 1, "cols": 1, "entries": [None]},
            {"rows": 2.5, "cols": 2, "entries": [[1, 0]] * 4},  # used to read as 2 rows
            {"rows": 2, "cols": 2.9, "entries": [[1, 0]] * 4},
            {"rows": "2", "cols": 2, "entries": [[1, 0]] * 4},
        ],
    )
    def test_malformed_values_rejected(self, obj):
        with pytest.raises(ValidationError):
            matrix_from_json(obj)
