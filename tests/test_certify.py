import importlib
import io
import re

import numpy as np
import pytest

from qfftsim.certify import (
    CoincidenceRecord,
    D_DISTINGUISHABLE,
    D_MEAN_FIELD,
    MAX_TRIALS,
    RULES_OUT_BOTH,
    RULES_OUT_DISTINGUISHABLE,
    RULES_OUT_NEITHER,
    certify,
    classical_pair_probabilities,
    monte_carlo_errors,
    read_coincidence_csv,
    reference_counts,
    violation_curve,
    violation_degree,
    visibility,
    write_coincidence_csv,
)
from qfftsim.cli import simulate_experiment
from qfftsim.errors import DomainError, ParseError, UndefinedVisibilityError
from qfftsim.fourier import occupied_modes, partition_outputs, qft_matrix
from qfftsim.models import DelayModel

from oracles import violation_curve_loop, visibility_sigma_delta

# the package exports the function ``certify``, which shadows the module's name
certify_module = importlib.import_module("qfftsim.certify")


def forbidden_pairs(m):
    part = partition_outputs(2, m, collision_free_only=True)
    return sorted(tuple(occupied_modes(s)) for s in part.forbidden)


def make_records(pair_counts_by_delay, input_pair=(0, 2)):
    records = []
    for dx, pair_counts in pair_counts_by_delay.items():
        for pair, counts in pair_counts.items():
            records.append(
                CoincidenceRecord(input=input_pair, output=pair, delta_x=dx, counts=counts)
            )
    return records


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


class TestViolationDegree:
    def setup_method(self):
        self.pc = {pair: 0.125 for pair in forbidden_pairs(4)}

    def test_ideal_fock_gives_zero(self):
        v = {pair: 1.0 for pair in self.pc}
        assert violation_degree(self.pc, v) == pytest.approx(0.0)

    def test_no_interference_gives_half(self):
        v = {pair: 0.0 for pair in self.pc}
        assert violation_degree(self.pc, v) == pytest.approx(0.5)

    def test_partial_visibility(self):
        v = {pair: 0.95 for pair in self.pc}
        assert violation_degree(self.pc, v) == pytest.approx(0.025)

    def test_key_mismatch(self):
        v = {pair: 1.0 for pair in list(self.pc)[:-1]}
        with pytest.raises(DomainError):
            violation_degree(self.pc, v)


class TestMonteCarloErrors:
    def test_all_zero_counts(self):
        assert monte_carlo_errors([0, 0, 0], statistic=np.sum, trials=100, seed=0) == 0.0

    def test_poisson_width_of_identity(self):
        sigma = monte_carlo_errors([10000], statistic=lambda c: float(c[0]), seed=1)
        assert sigma == pytest.approx(100.0, rel=0.05)

    def test_visibility_statistic_matches_delta_method(self):
        def stat(counts):
            return visibility(counts[0], counts[1])

        sigma = monte_carlo_errors([1000, 100], statistic=stat, seed=2)
        assert sigma == pytest.approx(visibility_sigma_delta(1000, 100), rel=0.15)

    def test_requires_two_trials(self):
        with pytest.raises(DomainError):
            monte_carlo_errors([10], statistic=np.sum, trials=1)

    def test_deterministic_for_fixed_seed(self):
        a = monte_carlo_errors([50, 70], statistic=np.sum, trials=200, seed=3)
        b = monte_carlo_errors([50, 70], statistic=np.sum, trials=200, seed=3)
        assert a == b

    def test_trials_above_the_cap_rejected(self):
        with pytest.raises(DomainError, match="trials"):
            monte_carlo_errors(np.array([5.0]), lambda x: x[0], trials=MAX_TRIALS + 1)

    def test_independent_of_block_size(self, monkeypatch):
        a = monte_carlo_errors([50, 70], statistic=np.sum, trials=64, seed=4)
        monkeypatch.setattr(certify_module, "MC_BLOCK_ENTRIES", 1)
        assert monte_carlo_errors([50, 70], statistic=np.sum, trials=64, seed=4) == a

    @pytest.mark.parametrize("counts", [[1e19], [10**23], [float("nan")], [float("inf")], [-1]])
    def test_counts_outside_the_sampler_range_rejected(self, counts):
        with pytest.raises(DomainError, match="Poisson sampler"):
            monte_carlo_errors(counts, statistic=np.sum, trials=10, seed=0)


class TestViolationCurve:
    def setup_method(self):
        self.pairs = forbidden_pairs(4)
        self.pc = {pair: 0.125 for pair in self.pairs}

    def test_flat_counts_give_distinguishable_plateau(self):
        records = make_records(
            {dx: {pair: 5000 for pair in self.pairs} for dx in (-200.0, 0.0, 200.0)}
        )
        curve = violation_curve(records, self.pc, trials=50, seed=0)
        for _, d_obs, _ in curve:
            assert d_obs == pytest.approx(0.5, abs=1e-12)

    def test_zero_counts_give_zero(self):
        records = make_records(
            {
                -200.0: {pair: 4000 for pair in self.pairs},
                0.0: {pair: 0 for pair in self.pairs},
                200.0: {pair: 4000 for pair in self.pairs},
            }
        )
        curve = violation_curve(records, self.pc, trials=50, seed=0)
        by_dx = {dx: d for dx, d, _ in curve}
        assert by_dx[0.0] == pytest.approx(0.0)

    def test_scaling_invariance(self):
        base = {
            -200.0: {pair: 4000 for pair in self.pairs},
            0.0: {pair: 180 for pair in self.pairs},
            200.0: {pair: 4000 for pair in self.pairs},
        }
        scaled = {dx: {p: 10 * c for p, c in row.items()} for dx, row in base.items()}
        curve_a = violation_curve(make_records(base), self.pc, trials=10, seed=0)
        curve_b = violation_curve(make_records(scaled), self.pc, trials=10, seed=0)
        for (_, da, _), (_, db, _) in zip(curve_a, curve_b):
            assert da == pytest.approx(db, abs=1e-12)

    def test_explicit_reference_counts(self):
        records = make_records({0.0: {pair: 100 for pair in self.pairs}})
        n_d = {pair: 200.0 for pair in self.pairs}
        curve = violation_curve(records, self.pc, n_d, trials=10, seed=0)
        assert curve[0][1] == pytest.approx(0.25)

    def test_missing_reference_rejected(self):
        records = make_records({0.0: {pair: 100 for pair in self.pairs}})
        n_d = {self.pairs[0]: 100.0}
        with pytest.raises(DomainError):
            violation_curve(records, self.pc, n_d, trials=10)

    def test_zero_reference_rejected(self):
        records = make_records({0.0: {pair: 100 for pair in self.pairs}})
        n_d = {pair: 0.0 for pair in self.pairs}
        with pytest.raises(DomainError):
            violation_curve(records, self.pc, n_d, trials=10)

    def test_missing_grid_point_rejected(self):
        records = make_records(
            {
                -200.0: {pair: 4000 for pair in self.pairs},
                200.0: {pair: 4000 for pair in self.pairs},
            }
        )
        records = records[:-1]  # drop one (delay, pair) cell
        with pytest.raises(DomainError):
            violation_curve(records, self.pc, trials=10)

    def test_duplicate_cell_rejected(self):
        records = make_records({0.0: {pair: 100 for pair in self.pairs}})
        records.append(CoincidenceRecord((0, 2), self.pairs[1], 0.0, 900000))
        with pytest.raises(DomainError, match=re.escape(f"delay 0.0 and output pair {self.pairs[1]}")):
            violation_curve(records, self.pc, {pair: 200.0 for pair in self.pairs}, trials=10)

    @pytest.mark.parametrize("counts", [10**19, 10**23, 10**400], ids=["1e19", "1e23", "1e400"])
    def test_counts_above_the_sampler_limit_rejected(self, counts):
        records = make_records({dx: {pair: 100 for pair in self.pairs} for dx in (-200.0, 0.0, 200.0)})
        records[3] = CoincidenceRecord((0, 2), records[3].output, records[3].delta_x, counts)
        with pytest.raises(DomainError, match="Poisson sampler"):
            violation_curve(records, self.pc, trials=10)

    @pytest.mark.parametrize("ref", [1e19, float("inf"), float("nan")])
    def test_reference_counts_outside_the_sampler_range_rejected(self, ref):
        records = make_records({0.0: {pair: 100 for pair in self.pairs}})
        n_d = {pair: 200.0 for pair in self.pairs}
        n_d[self.pairs[2]] = ref
        with pytest.raises(DomainError):
            violation_curve(records, self.pc, n_d, trials=10)

    @pytest.mark.parametrize(
        "counts, ref, trials, block",
        [
            (1e5, None, 300, None),  # a simulated 8-mode run, several blocks
            (3.0, 2.5, 400, 200),  # ~3/4 of the trials draw a zero reference and drop out
            (50.0, 4.0, 40, 1),  # one trial per block, ~1/4 of them dropped
        ],
    )
    def test_matches_trial_loop_oracle_bit_for_bit(self, monkeypatch, counts, ref, trials, block):
        u = qft_matrix(8)
        pc = classical_pair_probabilities(u, (0, 4), forbidden_pairs(8))
        rng = np.random.default_rng(17)
        delays = np.linspace(-300, 300, 41)
        records = simulate_experiment(u, (0, 4), DelayModel(alpha=0.9), delays, counts, rng)
        n_d = reference_counts([r for r in records if r.output in pc], sorted(pc))
        if ref is not None:
            n_d = {pair: ref for pair in pc}
        if block is not None:
            monkeypatch.setattr(certify_module, "MC_BLOCK_ENTRIES", block)
        expected = violation_curve_loop(records, pc, n_d, trials, seed=23)
        assert violation_curve(records, pc, n_d, trials=trials, seed=23) == expected
        if ref is None:
            assert violation_curve(records, pc, trials=trials, seed=23) == expected

    def test_each_row_alone_matches_the_full_curve_bit_for_bit(self):
        u = qft_matrix(8)
        pc = classical_pair_probabilities(u, (0, 4), forbidden_pairs(8))
        rng = np.random.default_rng(29)
        delays = np.linspace(-300, 300, 41)
        records = simulate_experiment(u, (0, 4), DelayModel(alpha=0.9), delays, 1e5, rng)
        full = violation_curve(records, pc, trials=200, seed=31)
        assert [dx for dx, _, _ in full] == sorted(delays)
        for row in full:
            assert violation_curve(records, pc, trials=200, seed=31, at=row[0]) == [row]

    @pytest.mark.parametrize("at", [50.0, float("nan")])
    def test_unmeasured_delay_rejected(self, at):
        records = make_records({dx: {pair: 100 for pair in self.pairs} for dx in (-100.0, 0.0, 100.0)})
        with pytest.raises(DomainError, match="no records at delay"):
            violation_curve(records, self.pc, trials=10, seed=0, at=at)

    def test_trials_above_the_cap_rejected(self):
        records = make_records({0.0: {pair: 100 for pair in self.pairs}})
        with pytest.raises(DomainError, match="trials"):
            violation_curve(records, self.pc, trials=MAX_TRIALS + 1)

    def test_sigma_independent_of_block_size(self, monkeypatch):
        records = make_records(
            {dx: {pair: 40 * (1 + k) for k, pair in enumerate(self.pairs)} for dx in (-100.0, 0.0, 100.0)}
        )
        curve = violation_curve(records, self.pc, trials=500, seed=9)
        monkeypatch.setattr(certify_module, "MC_BLOCK_ENTRIES", 1)
        assert violation_curve(records, self.pc, trials=500, seed=9) == curve

    def test_sigma_scale_matches_poisson(self):
        n0, nref = 625, 12500
        records = make_records(
            {
                -300.0: {pair: nref for pair in self.pairs},
                0.0: {pair: n0 for pair in self.pairs},
                300.0: {pair: nref for pair in self.pairs},
            }
        )
        curve = violation_curve(records, self.pc, trials=3000, seed=5)
        sigma0 = dict((dx, s) for dx, _, s in curve)[0.0]
        expected = np.sqrt(4 * (0.125 / nref) ** 2 * n0)  # leading Poisson term
        assert sigma0 == pytest.approx(expected, rel=0.2)


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

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), 0.0, -5.0])
    def test_rejects_a_threshold_that_is_not_positive_and_finite(self, threshold):
        with pytest.raises(DomainError, match="threshold"):
            certify(0.4, sigma=0.01, threshold_sigmas=threshold)


class TestReferenceCounts:
    def test_plateau_rule_uses_two_extremes(self):
        pairs = forbidden_pairs(4)
        records = make_records(
            {
                -300.0: {pair: 100 for pair in pairs},
                0.0: {pair: 5 for pair in pairs},
                300.0: {pair: 110 for pair in pairs},
            }
        )
        ref = reference_counts(records)
        assert all(ref[pair] == pytest.approx(105.0) for pair in pairs)

    def test_single_delay_falls_back(self):
        records = make_records({0.0: {(0, 1): 42}})
        assert reference_counts(records)[(0, 1)] == pytest.approx(42.0)


class TestClassicalPairProbabilities:
    def test_exact_qft_model_values(self):
        for m in (4, 8):
            pairs = forbidden_pairs(m)
            pc = classical_pair_probabilities(qft_matrix(m), (0, m // 2), pairs)
            for pair in pairs:
                assert pc[pair] == pytest.approx(2 / m**2, abs=1e-12)


class TestCsv:
    def test_round_trip(self):
        records = make_records(
            {0.0: {(0, 1): 3, (2, 3): 7}, 120.5: {(0, 1): 11, (2, 3): 0}}
        )
        buffer = io.StringIO()
        write_coincidence_csv(records, buffer)
        buffer.seek(0)
        again = read_coincidence_csv(buffer)
        assert sorted(again, key=str) == sorted(records, key=str)

    def test_header_is_one_based(self):
        buffer = io.StringIO()
        write_coincidence_csv([CoincidenceRecord((0, 2), (1, 3), 0.0, 5)], buffer)
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

    def test_zero_based_label_rejected(self):
        text = "input_i,input_j,output_i,output_j,delta_x_um,counts\n0,3,2,4,0.0,5\n"
        with pytest.raises(ParseError, match="1-based"):
            read_coincidence_csv(io.StringIO(text))

    def test_unordered_pairs_normalised(self):
        text = "input_i,input_j,output_i,output_j,delta_x_um,counts\n3,1,4,2,0.0,5\n"
        (record,) = read_coincidence_csv(io.StringIO(text))
        assert record.input == (0, 2)
        assert record.output == (1, 3)


def test_negative_counts_rejected():
    with pytest.raises(DomainError):
        CoincidenceRecord((0, 1), (2, 3), 0.0, -1)
