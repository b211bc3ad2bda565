import functools
import importlib
import io
import math
import re
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from qfftsim import fourier
from qfftsim.certify import (
    CoincidenceTable,
    D_DISTINGUISHABLE,
    D_MEAN_FIELD,
    RULES_OUT_BOTH,
    RULES_OUT_DISTINGUISHABLE,
    RULES_OUT_NEITHER,
    SERIES_FROM,
    certify,
    classical_pair_probabilities,
    inverse_moments,
    read_coincidence_csv,
    violation_curve,
    visibility,
    write_coincidence_csv,
)
from qfftsim.circuit import circuit_to_unitary, set_phases, synthesize_qfft
from qfftsim.cli import simulate_experiment
from qfftsim.errors import CapacityError, DomainError, ParseError, UndefinedVisibilityError
from qfftsim.fourier import cyclic_inputs, occupied_modes, partition_outputs, qft_matrix
from qfftsim.models import (
    DelayModel,
    distinguishable_distribution,
    fock_distribution,
    mean_field_distribution,
)

from oracles import (
    coincidence_csv_text,
    plateau_reference,
    read_coincidence_csv_rows,
    truncated_poisson_inverse_moments,
    violation_curve_conditional_loop,
    violation_curve_exact_loop,
    violation_curve_loop,
)

# the package exports the function ``certify``, which shadows the module's name
certify_module = importlib.import_module("qfftsim.certify")


def library_moments(lam):
    mean, var = inverse_moments([lam])
    return mean[0], var[0]


cached_oracle = functools.cache(truncated_poisson_inverse_moments)


def forbidden_pairs(m):
    part = partition_outputs(2, m)
    return sorted(tuple(occupied_modes(s)) for s in part.forbidden)


_CSV_DELAYS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308, 1e300, -1e300]),
)


@st.composite
def coincidence_tables(draw):
    """A table on 1-16 modes with any finite delays, including signed zeros,
    denormals and +-1e300, counts in [0, 10^18], and possibly no delays or no pairs."""
    m = draw(st.integers(1, 16))
    cells = [(i, j) for i in range(m) for j in range(i, m)]
    pairs = sorted(draw(st.lists(st.sampled_from(cells), unique=True)))
    delays = draw(st.lists(_CSV_DELAYS, max_size=5))
    size = len(delays) * len(pairs)
    counts = draw(st.lists(st.integers(0, 10**18), min_size=size, max_size=size))
    return CoincidenceTable(
        draw(st.sampled_from(cells)),
        np.array(delays, dtype=float),
        tuple(pairs),
        np.array(counts, dtype=np.int64).reshape(len(delays), len(pairs)),
    )


def make_cells(pair_counts_by_delay):
    """Delay, output pair and counts columns, one row per cell."""
    rows = [(dx, pair, n) for dx, row in pair_counts_by_delay.items() for pair, n in row.items()]
    return [list(column) for column in zip(*rows)]


def make_table(pair_counts_by_delay, input_pair=(0, 2)):
    delays, outputs, counts = make_cells(pair_counts_by_delay)
    return CoincidenceTable.from_cells(input_pair, delays, outputs, counts, sorted(set(outputs)))


class TestVisibility:
    def test_full_suppression(self):
        assert visibility(100, 0) == pytest.approx(1.0)

    def test_full_bunching_peak(self):
        assert visibility(100, 200) == pytest.approx(-1.0)

    def test_no_interference(self):
        assert visibility(100, 100) == pytest.approx(0.0)

    def test_zero_reference_undefined(self):
        with pytest.raises(UndefinedVisibilityError):
            visibility(0, 10)


class TestViolationCurve:
    def setup_method(self):
        self.pairs = forbidden_pairs(4)
        self.pc = {pair: 0.125 for pair in self.pairs}

    def test_flat_counts_give_distinguishable_plateau(self):
        table = make_table(
            {dx: {pair: 5000 for pair in self.pairs} for dx in (-200.0, 0.0, 200.0)}
        )
        curve = violation_curve(table, self.pc)
        for _, d_obs, _ in curve:
            assert d_obs == pytest.approx(0.5, abs=1e-12)

    def test_zero_counts_give_zero(self):
        table = make_table(
            {
                -200.0: {pair: 4000 for pair in self.pairs},
                0.0: {pair: 0 for pair in self.pairs},
                200.0: {pair: 4000 for pair in self.pairs},
            }
        )
        curve = violation_curve(table, self.pc)
        by_dx = {dx: d for dx, d, _ in curve}
        assert by_dx[0.0] == pytest.approx(0.0)

    def test_scaling_invariance(self):
        base = {
            -200.0: {pair: 4000 for pair in self.pairs},
            0.0: {pair: 180 for pair in self.pairs},
            200.0: {pair: 4000 for pair in self.pairs},
        }
        scaled = {dx: {p: 10 * c for p, c in row.items()} for dx, row in base.items()}
        curve_a = violation_curve(make_table(base), self.pc)
        curve_b = violation_curve(make_table(scaled), self.pc)
        for (_, da, _), (_, db, _) in zip(curve_a, curve_b):
            assert da == pytest.approx(db, abs=1e-12)

    def plateau_table(self, ref, dtype=np.int64):
        """100 counts at zero delay, between two plateau rows of ``ref`` counts in every pair but the first."""
        counts = np.array([[200] + [ref] * 3, [100] * 4, [200] + [ref] * 3], dtype=dtype)
        return CoincidenceTable((0, 2), np.array([-200.0, 0.0, 200.0]), tuple(self.pairs), counts)

    def test_zero_reference_rejected(self):
        with pytest.raises(DomainError, match=re.escape(f"must be positive, not for pairs {self.pairs[1:]}")):
            violation_curve(self.plateau_table(0), self.pc)

    def test_missing_pairs_named_delay_by_delay(self):
        # the table holds the first forbidden pair only: the first five of 3 delays x 3 holes are named
        table = CoincidenceTable((0, 2), np.array([-200.0, 0.0, 200.0]), tuple(self.pairs[:1]),
                                 np.full((3, 1), 4000, dtype=np.int64))
        holes = [(dx, pair) for dx in (-200.0, 0.0) for pair in self.pairs[1:]][:5]
        with pytest.raises(DomainError, match=f"^{re.escape(f'missing counts for (delay, pair) combinations {holes}')}$"):
            violation_curve(table, self.pc)

    def test_missing_grid_point_rejected(self):
        delays, outputs, counts = make_cells(
            {
                -200.0: {pair: 4000 for pair in self.pairs},
                200.0: {pair: 4000 for pair in self.pairs},
            }
        )
        with pytest.raises(DomainError):  # one (delay, pair) cell dropped
            CoincidenceTable.from_cells((0, 2), delays[:-1], outputs[:-1], counts[:-1], self.pairs)

    def test_duplicate_cell_rejected(self):
        delays, outputs, counts = make_cells({0.0: {pair: 100 for pair in self.pairs}})
        with pytest.raises(DomainError, match=re.escape(f"delay 0.0 and output pair {self.pairs[1]}")):
            CoincidenceTable.from_cells(
                (0, 2), delays + [0.0], outputs + [self.pairs[1]], counts + [900000], self.pairs
            )

    @pytest.mark.parametrize("duplicate_first", [True, False], ids=["duplicate-first", "count-first"])
    def test_earlier_of_two_faulty_rows_is_named(self, duplicate_first):
        delays, outputs, counts = make_cells({0.0: {pair: 100 for pair in self.pairs}})
        first, second = self.pairs[:2]
        if duplicate_first:  # row 1 repeats row 0's cell, row 2 holds a count out of range
            rows = [(first, 100), (first, 100), (second, 10**19)]
            message = f"duplicate counts for delay 0.0 and output pair {first}"
        else:  # row 0 holds a count out of range, row 2 repeats row 1's cell
            rows = [(first, 10**19), (second, 100), (second, 100)]
            message = f"counts {10**19} at delay 0.0 and output pair {first} exceed the Poisson sampler's limit"
        outputs = [pair for pair, _ in rows] + outputs[2:]
        counts = [n for _, n in rows] + counts[2:]
        with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
            CoincidenceTable.from_cells((0, 2), [0.0] * len(outputs), outputs, counts, self.pairs)

    def test_repeated_simulated_delay_rejected(self):
        u = qft_matrix(4)
        table = simulate_experiment(u, (0, 2), DelayModel(), [0.0, 0.0, 300.0], 1e4, np.random.default_rng(1))
        pc = classical_pair_probabilities(u, (0, 2))
        with pytest.raises(DomainError, match=re.escape("duplicate counts for delay 0.0 and output pair (0, 1)")):
            violation_curve(table, pc)

    def test_zero_and_negative_zero_delays_share_a_row(self):
        # the first row's delay is kept; a repeated cell is named by its own delay
        table = CoincidenceTable.from_cells((0, 2), [-0.0, 0.0], [(0, 1), (2, 3)], [3, 4], [(0, 1), (2, 3)])
        assert table.delays.tolist() == [0.0] and np.signbit(table.delays[0])
        assert table.counts.tolist() == [[3, 4]]
        with pytest.raises(DomainError, match=re.escape("duplicate counts for delay 0.0 and output pair (0, 1)")):
            CoincidenceTable.from_cells((0, 2), [-0.0, 0.0], [(0, 1), (0, 1)], [3, 4], [(0, 1)])

    @pytest.mark.parametrize("counts", [10**19, 10**23, 10**400], ids=["1e19", "1e23", "1e400"])
    def test_counts_above_the_sampler_limit_rejected(self, counts):
        grid = {dx: {pair: 100 for pair in self.pairs} for dx in (-200.0, 0.0, 200.0)}
        delays, outputs, cells = make_cells(grid)
        cells[3] = counts
        with pytest.raises(DomainError, match="Poisson sampler"):
            CoincidenceTable.from_cells((0, 2), delays, outputs, cells, self.pairs)

    @pytest.mark.parametrize("ref", [1e19, float("inf"), float("nan")])
    def test_reference_counts_outside_the_sampler_range_rejected(self, ref):
        # from_cells refuses such counts, so the table is built directly
        with pytest.raises(DomainError, match="must be positive|Poisson sampler"):
            violation_curve(self.plateau_table(ref, dtype=float), self.pc)

    @pytest.mark.parametrize(
        "counts, ref",
        [
            (1e5, None),  # a simulated run; its references take the asymptotic series
            (3.0, 2.5),  # ~3/10 of the oracle's trials draw a zero reference and drop out
            (50.0, 4.0),
        ],
    )
    def test_matches_conditional_variance_loop_oracle(self, counts, ref):
        # the oracle estimates the same spread from 20000 reference redraws.
        # Over 20 seeds its relative deviation from the exact sigma had an rms
        # of at most 0.6 % per row (at most 1.3 % in 180 rows) and a mean
        # within 0.1 %: the 3 % bound is over five of its rms
        u = qft_matrix(4)
        pc = classical_pair_probabilities(u, (0, 2))
        rng = np.random.default_rng(17)
        table = simulate_experiment(u, (0, 2), DelayModel(alpha=0.9), [-300.0, 0.0, 300.0], counts, rng)
        if ref is not None:  # plateau rows of floor(ref) and ceil(ref) counts, whose mean is ref
            plateau = table.counts.copy()
            plateau[[0, -1]] = [[math.floor(ref)], [math.ceil(ref)]]
            table = CoincidenceTable(table.input, table.delays, table.pairs, plateau)
        n_d = plateau_reference(table, sorted(pc))
        assert ref is None or set(n_d.values()) == {ref}
        expected = violation_curve_conditional_loop(table, pc, n_d, 20000, seed=23)
        curve = violation_curve(table, pc)
        assert [(dx, d) for dx, d, _ in curve] == [(dx, d) for dx, d, _ in expected]
        assert [s for _, _, s in curve] == pytest.approx([s for _, _, s in expected], rel=0.03)

    def test_sigma_agrees_with_full_resampling(self):
        # Over 20 seeds, against the exact sigma of zero-truncated Poisson
        # references, the full-resampling oracle's relative spread was at most
        # 0.4 % per row: the 3 % bound is over seven of those.
        pc = {pair: 0.125 * (1 + k) for k, pair in enumerate(self.pairs)}
        table = make_table(
            {
                -300.0: {pair: 30 + 10 * k for k, pair in enumerate(self.pairs)},
                0.0: {pair: 3 * k for k, pair in enumerate(self.pairs)},
                300.0: {pair: 50 - 5 * k for k, pair in enumerate(self.pairs)},
            }
        )
        n_d = plateau_reference(table, self.pairs)
        trials = 20000
        brute = violation_curve_loop(table, pc, n_d, trials, seed=41)
        curve = violation_curve(table, pc)
        assert [(dx, d) for dx, d, _ in curve] == [(dx, d) for dx, d, _ in brute]
        assert [s for _, _, s in curve] == pytest.approx([s for _, _, s in brute], rel=0.03)

    def test_a_reference_of_one_count_per_pair_gives_a_finite_sigma(self):
        # all 16 reference draws of a trial are non-zero with probability
        # (1 - 1/e)^16 ~ 7e-4, which a Monte Carlo error bar could not use
        table = make_table({0.0: {pair: 1 for pair in forbidden_pairs(8)}})
        pc = {pair: 1 / 16 for pair in forbidden_pairs(8)}
        [(dx, d_obs, sigma)] = violation_curve(table, pc)
        expected = violation_curve_exact_loop(table, pc, plateau_reference(table, sorted(pc)), cached_oracle)
        assert (dx, d_obs) == (0.0, 1.0)
        assert 0 < sigma < math.inf
        assert sigma == pytest.approx(expected[0][2], rel=1e-13)

    @pytest.mark.parametrize("trials", [1, 3000, 10**12])
    def test_trials_is_ignored(self, trials):
        table = make_table({dx: {pair: 100 for pair in self.pairs} for dx in (-100.0, 0.0, 100.0)})
        assert violation_curve(table, self.pc, trials=trials) == violation_curve(table, self.pc)

    def test_sigma_scale_matches_poisson(self):
        n0, nref = 625, 12500
        table = make_table(
            {
                -300.0: {pair: nref for pair in self.pairs},
                0.0: {pair: n0 for pair in self.pairs},
                300.0: {pair: nref for pair in self.pairs},
            }
        )
        curve = violation_curve(table, self.pc)
        sigma0 = dict((dx, s) for dx, _, s in curve)[0.0]
        expected = np.sqrt(4 * (0.125 / nref) ** 2 * n0)  # leading Poisson term
        assert sigma0 == pytest.approx(expected, rel=0.2)


@st.composite
def small_tables(draw):
    """A table of up to 4 delays by 4 pairs and its pc.

    Cells are often zero, so the plateau rule's reference counts run from
    zero up to 2000, both sides of ``SERIES_FROM``. Half of the tables add
    two outermost rows of 0-40 counts, whose means, in steps of 0.5, reach
    down to those at which a zero count is the likeliest.
    """
    pairs = [(0, j) for j in range(1, draw(st.integers(1, 4)) + 1)]
    pc = {pair: draw(st.floats(0.01, 1.0)) for pair in pairs}
    delays = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4, unique=True))
    cell = st.one_of(st.integers(0, 3), st.integers(0, 2000))
    rows = {50.0 * dx: {pair: draw(cell) for pair in pairs} for dx in delays}
    if draw(st.booleans()):
        rows.update({dx: {pair: draw(st.integers(0, 40)) for pair in pairs} for dx in (-350.0, 350.0)})
    return make_table(rows), pc


class TestExactSigma:
    """The error bar assembled from the inverse moments of the reference counts."""

    @settings(max_examples=150, deadline=None, derandomize=True, phases=(Phase.explicit, Phase.generate))
    @given(table=small_tables())
    def test_matches_the_term_by_term_oracle(self, table):
        table, pc = table
        reference = plateau_reference(table, sorted(pc))
        if min(reference.values()) <= 0:
            with pytest.raises(DomainError, match="must be positive"):
                violation_curve(table, pc)
            return
        expected = violation_curve_exact_loop(table, pc, reference, library_moments)
        curve = violation_curve(table, pc)
        assert [(dx, d) for dx, d, _ in curve] == [(dx, d) for dx, d, _ in expected]
        assert [s for _, _, s in curve] == pytest.approx([s for _, _, s in expected], rel=1e-12, abs=0)


# the two means on either side of the crossover, in every call below
CROSSOVER = (float(np.nextafter(SERIES_FROM, 0)), SERIES_FROM)


class TestInverseMoments:
    @settings(max_examples=20, deadline=None, derandomize=True, phases=(Phase.explicit, Phase.generate))
    @given(lam=st.floats(-3, 18).map(lambda exponent: 10.0**exponent))
    @example(lam=1e-3)
    @example(lam=1e18)
    @example(lam=1.0)
    def test_match_the_50_digit_oracle(self, lam):
        means, variances = inverse_moments([lam, *CROSSOVER])
        for mu, a, v in zip([lam, *CROSSOVER], means, variances):
            expected_a, expected_v = cached_oracle(mu)
            assert a == pytest.approx(expected_a, rel=1e-13, abs=0), mu
            assert v == pytest.approx(expected_v, rel=1e-13, abs=0), mu

    @pytest.mark.filterwarnings("error")  # no overflow in the unused low tail of the grid
    @pytest.mark.parametrize("lam", [1e-300, 1e-100, 1e-30])
    def test_tiny_means(self, lam):
        # R is 1 or, with probability ~lam/2, 2: E[1/R] = 1 - lam/4 and
        # Var(1/R) = lam/8, up to terms lam times smaller; the 50-digit oracle
        # cannot resolve a variance this far below 1
        [a], [v] = inverse_moments([lam])
        assert a == 1.0
        assert v == pytest.approx(lam / 8, rel=1e-13, abs=0)


class TestCertify:
    def test_at_distinguishable_value(self):
        report = certify(0.5, sigma=0.01)
        assert report.verdict == RULES_OUT_NEITHER
        assert report.d_distinguishable == D_DISTINGUISHABLE
        assert report.d_mean_field == D_MEAN_FIELD

    def test_between_references(self):
        report = certify(0.30, sigma=0.02)
        assert report.sigmas_vs_distinguishable == pytest.approx(10.0)
        assert report.sigmas_vs_mean_field == pytest.approx(-2.5)
        assert report.verdict == RULES_OUT_DISTINGUISHABLE

    def test_deep_violation(self):
        report = certify(0.05, sigma=0.01)
        assert report.sigmas_vs_distinguishable == pytest.approx(45.0)
        assert report.sigmas_vs_mean_field == pytest.approx(20.0)
        assert report.verdict == RULES_OUT_BOTH

    def test_monotone_in_d_obs(self):
        ranks = {RULES_OUT_NEITHER: 0, RULES_OUT_DISTINGUISHABLE: 1, RULES_OUT_BOTH: 2}
        previous = 2
        for d in np.linspace(0.0, 0.6, 61):
            rank = ranks[certify(float(d), sigma=0.02).verdict]
            assert rank <= previous
            previous = rank

    def test_threshold_is_configurable(self):
        assert certify(0.44, sigma=0.02, threshold_sigmas=3).verdict == RULES_OUT_DISTINGUISHABLE
        assert certify(0.44, sigma=0.02, threshold_sigmas=5).verdict == RULES_OUT_NEITHER

    def test_rejects_bad_sigma(self):
        with pytest.raises(DomainError):
            certify(0.1, sigma=0.0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_rejects_a_sigma_outside_zero_to_infinity(self, sigma):
        with pytest.raises(DomainError, match="sigma"):
            certify(0.1, sigma=sigma)

    @pytest.mark.parametrize("d_obs", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_a_d_obs_that_is_not_finite(self, d_obs):
        with pytest.raises(DomainError, match="d_obs"):
            certify(d_obs, sigma=0.01)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), 0.0, -5.0])
    def test_rejects_a_threshold_that_is_not_positive_and_finite(self, threshold):
        with pytest.raises(DomainError, match="threshold"):
            certify(0.4, sigma=0.01, threshold_sigmas=threshold)


class TestReferenceCounts:
    """The plateau rule that gives ``violation_curve`` its reference counts."""

    def test_plateau_rule_uses_two_extremes(self):
        pairs = forbidden_pairs(4)
        pc = {pair: 0.125 for pair in pairs}
        table = make_table(
            {
                -300.0: {pair: 100 for pair in pairs},
                0.0: {pair: 5 for pair in pairs},
                300.0: {pair: 110 for pair in pairs},
            }
        )
        by_dx = {dx: d for dx, d, _ in violation_curve(table, pc)}
        assert by_dx[0.0] == pytest.approx(0.5 * 5 / 105.0)
        assert by_dx[-300.0] == pytest.approx(0.5 * 100 / 105.0)

    def test_single_delay_falls_back(self):
        table = make_table({0.0: {(0, 1): 42}})
        assert violation_curve(table, {(0, 1): 0.125})[0][1] == 0.125

    def test_a_tie_in_magnitude_goes_to_the_negative_delay(self):
        pairs = forbidden_pairs(4)
        pc = {pair: 0.125 for pair in pairs}
        table = make_table(
            {
                -300.0: {pair: 100 for pair in pairs},
                -250.0: {pair: 120 for pair in pairs},
                250.0: {pair: 80 for pair in pairs},
            }
        )
        by_dx = {dx: d for dx, d, _ in violation_curve(table, pc)}
        assert by_dx[250.0] == pytest.approx(0.5 * 80 / 110.0)
        expected = violation_curve_exact_loop(table, pc, plateau_reference(table, pairs), library_moments)
        assert [(dx, d) for dx, d, _ in violation_curve(table, pc)] == [(dx, d) for dx, d, _ in expected]


class TestClassicalPairProbabilities:
    def test_exact_qft_model_values(self):
        for m in (4, 8):
            pairs = forbidden_pairs(m)
            pc = classical_pair_probabilities(qft_matrix(m), (0, m // 2))
            for pair in pairs:
                assert pc[pair] == pytest.approx(2 / m**2, abs=1e-12)

    def test_entry_cap_refuses_before_the_probabilities(self, monkeypatch):
        # 6 collision-free pairs on 4 modes: 12 row entries
        monkeypatch.setattr(fourier, "MAX_OUTCOME_ENTRIES", 11)
        with monkeypatch.context() as patch:
            patch.setattr(certify_module, "two_photon_probabilities", None)
            with pytest.raises(CapacityError, match="^6 outputs of 2 photons on 4 modes make 12 row entries"):
                classical_pair_probabilities(qft_matrix(4), (0, 2))
        monkeypatch.setattr(fourier, "MAX_OUTCOME_ENTRIES", 12)
        assert list(classical_pair_probabilities(qft_matrix(4), (0, 2))) == [(0, 1), (0, 3), (1, 2), (2, 3)]


class TestButterflyReferenceMasses:
    """Two photons m/2 apart meet at one first-layer coupler, and no later
    coupler joins the two halves of the modes, so the reference masses hold
    on every butterfly chip whatever its phases."""

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(p=st.sampled_from([3, 4]), seed=st.integers(0, 2**32 - 1))
    def test_hold_for_random_values_of_every_butterfly_phase(self, p, seed):
        template = synthesize_qfft(p)
        positions = [(layer.step, t) for layer in template.layers for t in range(template.m)]
        values = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, len(positions))
        u = circuit_to_unitary(set_phases(template, dict(zip(positions, values))))
        forbidden = partition_outputs(2, template.m).forbidden
        for state in cyclic_inputs(2, p):
            fock, dist, mf = (
                math.fsum(map(model(u, state).probabilities.__getitem__, forbidden))
                for model in (fock_distribution, distinguishable_distribution, mean_field_distribution)
            )
            assert fock == pytest.approx(0.0, abs=1e-14)
            assert dist == pytest.approx(D_DISTINGUISHABLE, abs=1e-14)
            assert mf == pytest.approx(D_MEAN_FIELD, abs=1e-14)


_INT = st.one_of(st.integers(1, 9), st.integers(10, 10**6), st.integers(2**63, 10**25))
_FLOAT = st.floats(-1e3, 1e3, allow_subnormal=False)
_PADS = st.sampled_from(["{}", " {} ", "{:_}", "+{}"])
# integer and delay cells that int() or float() refuse, or that parse to a refused value
_BAD_CELLS = (["x", "", "1.5", "0", "-1", "-0", "9" * 5000], ["x", "", "inf", "-inf", "nan", "1e400"])


@st.composite
def coincidence_csvs(draw):
    """A coincidence CSV of up to 12 records: unordered pairs, ``" 5 "``, ``"1_000"``
    and ``"+5"`` integer cells, blank lines, LF or CRLF line ends, and up to three
    faults, a refused cell or a record with a field too few or too many."""
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        cells = [draw(_INT) for _ in range(4)] + [draw(_FLOAT), draw(_INT)]
        rows.append([repr(v) if isinstance(v, float) else draw(_PADS).format(v) for v in cells])
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = draw(st.sampled_from(rows))
        fault = draw(st.sampled_from(["cell"] * 8 + ["short", "long"]))
        if fault == "cell":
            k = draw(st.integers(0, len(row) - 1))
            row[k] = draw(st.sampled_from(_BAD_CELLS[k == 4]))
        elif fault == "short":
            row.pop(draw(st.integers(0, len(row) - 1)))
        else:
            row.append("1")
    lines = ["input_i,input_j,output_i,output_j,delta_x_um,counts"] + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


class TestCsv:
    @settings(max_examples=200, deadline=None, derandomize=True, phases=(Phase.explicit, Phase.generate))
    @given(text=coincidence_csvs())
    @example(text="input_i,input_j,output_i,output_j,delta_x_um,counts\n1,3,2,4,0.0,-1\n")
    @example(text="input_i,input_j,output_i,output_j,delta_x_um,counts\n1,3,0,4,nan,-1\n1,x,2,4,0.0,5\n")
    # files the np.loadtxt pass must leave to the row-by-row reader, and plain cells it reads
    @example(text="input_i,input_j,output_i,output_j,delta_x_um,counts\n")
    @example(text="input_i,input_j,output_i,output_j,delta_x_um,counts\n\n\n")
    @example(text="input_i,input_j,output_i,output_j,delta_x_um,counts\n1,3,2,4,0.0,5\n   \n")
    @example(text="input_i,input_j,output_i,output_j,delta_x_um,counts\n1,3,2,4,0.0,5\n#,3,2,4,0.0,5\n")
    @example(text="input_i,input_j,output_i,output_j,delta_x_um,counts\n# comment\n1,3,2,4,0.0,5\n")
    @example(text="input_i,input_j,output_i,output_j,delta_x_um,counts\n1,3,2,4,0.0,1_000\n")
    @example(text="input_i,input_j,output_i,output_j,delta_x_um,counts\n+1,3,2,4,+0.5,+5\n")
    @example(text="input_i,input_j,output_i,output_j,delta_x_um,counts\n 1 ,3,2,4, 0.5 , 5 \n")
    @example(text="input_i,input_j,output_i,output_j,delta_x_um,counts\n1,3,2,4,0.0,\u0665\n")
    @example(text="input_i,input_j,output_i,output_j,delta_x_um,counts\n1,3,2,4,0.0,\x1c5\n")
    @example(text="input_i,input_j,output_i,output_j,delta_x_um,counts\n1,3,2,4,0.0,5\x00\n")
    @example(text="input_i,input_j,output_i,output_j,delta_x_um,counts\n1,3,2,4,0.0,\U0010ffff\n")
    @example(text="input_i,input_j,output_i,output_j,delta_x_um,counts\n1,3,2,4,0.0,5\n1,99999999999999999999,2,4,0.0,5\n")
    @example(text="input_i,input_j,output_i,output_j,delta_x_um,counts\n1,3,2,4,-0.0,5\n1,3,2,4,-0e3,5\n")
    @example(text='"input_i",input_j,output_i,output_j,delta_x_um,counts\n1,3,2,4,0.0,"5"\n')
    def test_matches_the_row_by_row_oracle(self, text):
        def parse(reader):
            return reader(io.StringIO(text, newline=None), source="f.csv")

        try:
            expected = parse(read_coincidence_csv_rows)
        except ValueError as exc:
            with pytest.raises(ParseError) as refused:
                parse(read_coincidence_csv)
            assert str(refused.value) == str(exc)
            return
        inputs, outputs, delta_x, counts = parse(read_coincidence_csv)
        pairs = zip(map(tuple, inputs.tolist()), map(tuple, outputs.tolist()))
        assert [(*pair, dx, n) for pair, dx, n in zip(pairs, delta_x.tolist(), counts.tolist())] == expected
        assert np.signbit(delta_x).tolist() == [math.copysign(1.0, record[2]) < 0 for record in expected]

    def test_first_fault_before_a_blank_line_matches_the_oracle(self):
        text = "input_i,input_j,output_i,output_j,delta_x_um,counts\n1,3,0,4,nan,-1\n\n1,x,2,4,0.0,5\n"
        TestCsv.test_matches_the_row_by_row_oracle.hypothesis.inner_test(self, text)

    def test_line_numbers_across_a_quoted_newline(self):
        # field faults count records from the header; a csv.Error names the reader's line
        header = "input_i,input_j,output_i,output_j,delta_x_um,counts\n"
        quoted = '1,3,2,4,0.0,"5\n"\n'
        with pytest.raises(ParseError, match=r"^f\.csv:3: field 'counts' has invalid value 'x'$"):
            read_coincidence_csv(io.StringIO(header + quoted + "1,3,2,4,0.0,x\n"), source="f.csv")
        big = "1,3,2,4,1.0,5\n1,3,2,4,2.0," + "1" * 140_000 + "\n"
        with pytest.raises(ParseError, match=r"^f\.csv:5: field larger than field limit \(131072\)$"):
            read_coincidence_csv(io.StringIO(header + quoted + big), source="f.csv")

    def test_round_trip(self):
        table = make_table(
            {0.0: {(0, 1): 3, (2, 3): 7}, 120.5: {(0, 1): 11, (2, 3): 0}}
        )
        buffer = io.StringIO()
        write_coincidence_csv(table, buffer)
        buffer.seek(0)
        inputs, outputs, delta_x, counts = read_coincidence_csv(buffer)
        assert inputs.tolist() == [[0, 2]] * 4
        again = CoincidenceTable.from_cells((0, 2), delta_x, outputs, counts, table.pairs)
        assert again.input == table.input and again.pairs == table.pairs
        assert again.delays.tolist() == table.delays.tolist()
        assert again.counts.tolist() == table.counts.tolist()

    @settings(max_examples=200, deadline=None, derandomize=True, phases=(Phase.explicit, Phase.generate))
    @given(table=coincidence_tables())
    def test_writer_matches_the_one_string_oracle(self, table):
        buffer = io.StringIO()
        write_coincidence_csv(table, buffer)
        assert buffer.getvalue() == coincidence_csv_text(table)

    def test_writer_holds_one_delay_at_a_time(self):
        # 10^4 delays x 36 pairs, the most records simulate writes on 8 modes; a
        # writer that builds all 360,000 record strings first needs tens of MB
        pairs = tuple((i, j) for i in range(8) for j in range(i, 8))
        counts = np.random.default_rng(0).integers(0, 10**6, (10**4, len(pairs)))
        table = CoincidenceTable((0, 4), np.linspace(-300.0, 300.0, 10**4), pairs, counts)
        sink = types.SimpleNamespace(write=lambda text: None)
        tracemalloc.start()
        try:
            write_coincidence_csv(table, sink)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_header_is_one_based(self):
        buffer = io.StringIO()
        write_coincidence_csv(make_table({0.0: {(1, 3): 5}}), buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "input_i,input_j,output_i,output_j,delta_x_um,counts"
        assert lines[1] == "1,3,2,4,0.0,5"

    def test_bad_header_diagnosed(self):
        with pytest.raises(ParseError, match="expected header"):
            read_coincidence_csv(io.StringIO("a,b,c\n1,2,3\n"), source="counts.csv")

    def test_bad_field_diagnosed_with_line(self):
        text = "input_i,input_j,output_i,output_j,delta_x_um,counts\n1,3,2,4,0.0,x\n"
        with pytest.raises(ParseError, match=r"counts\.csv:2.*'counts'"):
            read_coincidence_csv(io.StringIO(text), source="counts.csv")

    @pytest.mark.parametrize("delay", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_delay_diagnosed_with_line(self, delay):
        text = (
            "input_i,input_j,output_i,output_j,delta_x_um,counts\n"
            "1,3,1,2,0.0,5\n"
            f"1,3,1,2,{delay},5\n"
        )
        with pytest.raises(ParseError, match=r"f\.csv:3: field 'delta_x_um' must be finite"):
            read_coincidence_csv(io.StringIO(text), source="f.csv")

    def test_field_above_the_csv_size_limit_named_after_earlier_faults(self):
        header = "input_i,input_j,output_i,output_j,delta_x_um,counts\n"
        big = "1,3,2,4,1.0," + "1" * 140_000 + "\n"
        with pytest.raises(ParseError, match=r"^f\.csv:3: field larger than field limit"):
            read_coincidence_csv(io.StringIO(header + "1,3,2,4,0.0,5\n" + big), source="f.csv")
        with pytest.raises(ParseError, match=r"^f\.csv:2: field 'counts' has invalid value 'x'"):
            read_coincidence_csv(io.StringIO(header + "1,3,2,4,0.0,x\n" + big), source="f.csv")

    @pytest.mark.parametrize(
        "record", ["1,3,2,4,0.0," + "0" * 140_000 + "5", "1,3,2,4," + "0" * 140_000 + "1.5,5"], ids=["counts", "delay"]
    )
    def test_field_above_the_csv_size_limit_refused(self, record):
        # np.loadtxt reads either record; the csv module refuses the long field
        text = "input_i,input_j,output_i,output_j,delta_x_um,counts\n1,3,2,4,0.0,5\n" + record + "\n"
        with pytest.raises(ParseError, match=r"^f\.csv:3: field larger than field limit"):
            read_coincidence_csv(io.StringIO(text), source="f.csv")

    def test_simulated_file_is_read_in_one_pass(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a simulated file reached the row-by-row reader")

        monkeypatch.setattr(certify_module, "_read_rows", refuse)
        delays = np.linspace(-300.0, 300.0, 41)
        table = simulate_experiment(qft_matrix(8), (0, 4), DelayModel(), delays, 1e5, np.random.default_rng(3))
        buffer = io.StringIO()
        write_coincidence_csv(table, buffer)
        text = buffer.getvalue()
        inputs, outputs, delta_x, counts = read_coincidence_csv(io.StringIO(text, newline=None))
        pairs = zip(map(tuple, inputs.tolist()), map(tuple, outputs.tolist()))
        records = [(*pair, dx, n) for pair, dx, n in zip(pairs, delta_x.tolist(), counts.tolist())]
        assert records == read_coincidence_csv_rows(io.StringIO(text))
        assert len(records) == 41 * 36

    def test_zero_based_label_rejected(self):
        text = "input_i,input_j,output_i,output_j,delta_x_um,counts\n0,3,2,4,0.0,5\n"
        with pytest.raises(ParseError, match="1-based"):
            read_coincidence_csv(io.StringIO(text))

    def test_unordered_pairs_normalised(self):
        text = "input_i,input_j,output_i,output_j,delta_x_um,counts\n3,1,4,2,0.0,5\n"
        inputs, outputs, _, _ = read_coincidence_csv(io.StringIO(text))
        assert inputs.tolist() == [[0, 2]]
        assert outputs.tolist() == [[1, 3]]


def test_negative_counts_rejected():
    with pytest.raises(DomainError):
        CoincidenceTable.from_cells((0, 1), [0.0], [(2, 3)], [-1], [(2, 3)])
