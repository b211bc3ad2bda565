import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import layer_product_unitary
from qfftsim.circuit import (
    Layer,
    QfftCircuit,
    bit_reversal,
    circuit_from_json,
    circuit_to_json,
    circuit_to_unitary,
    compile_circuit,
    nontrivial_phase_positions,
    perturb_circuit,
    relabeling_swaps,
    set_phases,
    synthesize_qfft,
    validate_circuit,
)
from qfftsim.errors import DomainError, ValidationError
from qfftsim.fourier import qft_matrix
from qfftsim.linalg import fidelity


class TestSynthesis:
    def test_p1_structure(self):
        c = synthesize_qfft(1)
        assert c.m == 2
        assert len(c.layers) == 1
        assert c.layers[0].couplers == ((0, 1),)
        assert c.layers[0].phases == {}
        assert c.output_relabeling == (0, 1)
        assert np.allclose(circuit_to_unitary(c), qft_matrix(2))

    def test_p2_coupler_count(self):
        assert synthesize_qfft(2).coupler_count == 4

    def test_p3_structure(self):
        c = synthesize_qfft(3)
        assert c.coupler_count == 12
        assert relabeling_swaps(c) == [(2, 5), (4, 7)]
        assert nontrivial_phase_positions(c) == [(2, 5), (2, 6), (2, 7), (3, 3), (3, 7)]

    def test_p3_nominal_phase_values(self):
        # regression freeze of the five nominal shifter values
        c = synthesize_qfft(3)
        assert c.layers[0].phases == {}
        assert c.layers[1].phases == pytest.approx(
            {5: np.pi / 4, 6: np.pi / 2, 7: 3 * np.pi / 4}
        )
        assert c.layers[2].phases == pytest.approx({3: np.pi / 2, 7: np.pi / 2})

    @pytest.mark.parametrize("p", range(1, 7))
    def test_composes_to_fourier_matrix(self, p):
        c = synthesize_qfft(p)
        assert fidelity(circuit_to_unitary(c), qft_matrix(2**p)) >= 1 - 1e-10

    @pytest.mark.parametrize("p", range(1, 7))
    def test_coupler_count_formula(self, p):
        assert synthesize_qfft(p).coupler_count == (2**p // 2) * p

    @pytest.mark.parametrize("p", range(1, 7))
    def test_each_layer_pairs_one_bit(self, p):
        c = synthesize_qfft(p)
        for layer in c.layers:
            diffs = {a ^ b for a, b in layer.couplers}
            assert len(diffs) == 1
            bit = diffs.pop()
            assert bit & (bit - 1) == 0  # exactly one bit position
            assert bit == 1 << (p - layer.step)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            synthesize_qfft(0)
        with pytest.raises(DomainError):
            synthesize_qfft(11)

    @pytest.mark.parametrize("p", [2.5, float("nan"), -1, "a"])
    def test_non_integral_layer_count_refused(self, p):
        with pytest.raises(DomainError, match="^layer count p .* is not a non-negative integer$"):
            synthesize_qfft(p)
        assert synthesize_qfft(3.0) == synthesize_qfft(np.int64(3)) == synthesize_qfft(3)


class TestComposition:
    def test_mode_reuse_rejected(self):
        bad = QfftCircuit(
            p=1,
            m=2,
            layers=(Layer(step=1, couplers=((0, 1), (0, 1))),),
            output_relabeling=(0, 1),
        )
        with pytest.raises(ValidationError):
            circuit_to_unitary(bad)

    def test_uncoupled_mode_rejected(self):
        bad = QfftCircuit(
            p=2,
            m=4,
            layers=(
                Layer(step=1, couplers=((0, 2),)),
                Layer(step=2, couplers=((0, 1), (2, 3))),
            ),
            output_relabeling=(0, 1, 2, 3),
        )
        with pytest.raises(ValidationError):
            circuit_to_unitary(bad)

    def test_result_is_unitary(self):
        from qfftsim.linalg import DEFAULT_TOL, unitarity_defect

        rng = np.random.default_rng(5)
        c = synthesize_qfft(3)
        positions = nontrivial_phase_positions(c)
        c = perturb_circuit(c, {pos: rng.uniform(0, 2 * np.pi) for pos in positions})
        assert unitarity_defect(circuit_to_unitary(c)) <= DEFAULT_TOL


    def test_layer_steps_must_run_in_order(self):
        c = synthesize_qfft(2)
        swapped = QfftCircuit(p=2, m=4, layers=c.layers[::-1], output_relabeling=c.output_relabeling)
        with pytest.raises(ValidationError):
            circuit_to_unitary(swapped)

    def test_relabeling_must_be_an_involution(self):
        # a 3-cycle is a permutation, but the JSON format cannot store it as swaps
        c = synthesize_qfft(2)
        cycled = QfftCircuit(p=2, m=4, layers=c.layers, output_relabeling=(1, 2, 0, 3))
        for refuse in (validate_circuit, compile_circuit, circuit_to_json):
            with pytest.raises(ValidationError, match="output relabeling is not an involution"):
                refuse(cycled)


def random_positions(circuit, rng):
    """A random nonempty subset of all (step, mode) phase positions."""
    positions = [(layer.step, t) for layer in circuit.layers for t in range(circuit.m)]
    keep = [pos for pos in positions if rng.random() < 0.4]
    return keep or positions[:1]


class TestCompiledCircuit:
    @pytest.mark.parametrize("p", range(1, 7))
    def test_nominal_matches_dense_oracle(self, p):
        c = synthesize_qfft(p)
        assert np.max(np.abs(circuit_to_unitary(c) - layer_product_unitary(c))) < 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(p=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_free_phases_match_dense_oracle(self, p, seed):
        rng = np.random.default_rng(seed)
        c = synthesize_qfft(p)
        free = random_positions(c, rng)
        values = rng.uniform(-10.0, 10.0, len(free))
        expected = layer_product_unitary(set_phases(c, dict(zip(free, values))))
        assert np.max(np.abs(compile_circuit(c, free).unitary(values) - expected)) < 1e-12

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(p=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_derivatives_match_central_differences_of_oracle(self, p, seed):
        rng = np.random.default_rng(seed)
        c = synthesize_qfft(p)
        free = random_positions(c, rng)
        values = rng.uniform(0.0, 2 * np.pi, len(free))
        u, left, right = compile_circuit(c, free).unitary(values, derivatives=True)
        assert left.shape == right.shape == (len(free), c.m)
        du = 1j * left[:, :, None] * right[:, None, :]
        h = 1e-6
        for k in range(len(free)):
            step = h * np.eye(len(free))[k]
            plus = layer_product_unitary(set_phases(c, dict(zip(free, values + step))))
            minus = layer_product_unitary(set_phases(c, dict(zip(free, values - step))))
            assert np.max(np.abs(du[k] - (plus - minus) / (2 * h))) < 1e-8

    def test_nominal_values_are_the_default(self):
        c = synthesize_qfft(3)
        free = nontrivial_phase_positions(c)
        compiled = compile_circuit(c, free)
        assert compiled.nominal == pytest.approx([c.layers[s - 1].phases[t] for s, t in free])
        assert np.array_equal(compiled.unitary(), circuit_to_unitary(c))

    def test_duplicate_positions_rejected(self):
        with pytest.raises(DomainError):
            compile_circuit(synthesize_qfft(3), [(2, 5), (2, 5)])


class TestPerturbation:
    def test_empty_perturbation_is_identity(self):
        c = synthesize_qfft(3)
        assert np.allclose(circuit_to_unitary(perturb_circuit(c, {})), circuit_to_unitary(c))

    def test_first_layer_phase_acts_on_one_column(self):
        # a phase before any coupler multiplies exactly one column of the matrix
        c = synthesize_qfft(3)
        eps = 0.321
        u0 = circuit_to_unitary(c)
        u1 = circuit_to_unitary(perturb_circuit(c, {(1, 6): eps}))
        expected = u0.copy()
        expected[:, 6] *= np.exp(1j * eps)
        assert np.allclose(u1, expected)

    def test_five_random_phases_break_fidelity(self):
        rng = np.random.default_rng(17)
        c = synthesize_qfft(3)
        errors = {pos: rng.uniform(0.3, 2.0) for pos in nontrivial_phase_positions(c)}
        u = circuit_to_unitary(perturb_circuit(c, errors))
        assert fidelity(u, qft_matrix(8)) < 1 - 1e-6

    def test_perturb_adds_to_nominal(self):
        c = synthesize_qfft(3)
        nominal = c.layers[1].phases[5]
        shifted = perturb_circuit(c, {(2, 5): 0.25})
        assert shifted.layers[1].phases[5] == pytest.approx((nominal + 0.25) % (2 * np.pi))

    def test_set_phases_is_absolute(self):
        c = synthesize_qfft(3)
        fixed = set_phases(c, {(2, 5): 0.25})
        assert fixed.layers[1].phases[5] == pytest.approx(0.25)

    def test_unknown_positions_rejected(self):
        c = synthesize_qfft(2)
        with pytest.raises(DomainError):
            perturb_circuit(c, {(3, 0): 0.1})
        with pytest.raises(DomainError):
            perturb_circuit(c, {(1, 4): 0.1})


class TestBitReversal:
    def test_p3(self):
        assert bit_reversal(3) == (0, 4, 2, 6, 1, 5, 3, 7)

    @pytest.mark.parametrize("p", range(1, 7))
    def test_involution(self, p):
        perm = bit_reversal(p)
        assert all(perm[perm[k]] == k for k in range(len(perm)))


class TestCircuitJson:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_round_trip(self, p):
        c = synthesize_qfft(p)
        again = circuit_from_json(circuit_to_json(c))
        assert again == c

    def test_relabeling_serialised_as_swaps(self):
        obj = circuit_to_json(synthesize_qfft(3))
        assert obj["relabeling"] == [[2, 5], [4, 7]]

    def test_modes_are_one_based(self):
        obj = circuit_to_json(synthesize_qfft(2))
        assert obj["layers"][0]["couplers"] == [[1, 3], [2, 4]]
        assert obj["layers"][1]["phases"] == {"4": pytest.approx(np.pi / 2)}

    def test_malformed_rejected(self):
        with pytest.raises(ValidationError):
            circuit_from_json({"p": 1, "m": 2})

    @pytest.mark.parametrize(
        "change",
        [
            {"p": -1},
            {"p": 10**6, "m": 2},
            {"p": float("inf")},
            {"layers": [[1]]},
            {"layers": [{"step": 1, "couplers": [[1]]}]},
            {"layers": [{"step": 1, "couplers": [[1, 2]], "phases": [1.0]}]},
            {"relabeling": [[1, 99]]},
            {"relabeling": [["a", 2]]},
        ],
    )
    def test_malformed_values_rejected(self, change):
        with pytest.raises(ValidationError):
            circuit_from_json({**circuit_to_json(synthesize_qfft(1)), **change})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_phase_rejected(self, bad):
        obj = circuit_to_json(synthesize_qfft(2))
        obj["layers"][1]["phases"]["4"] = bad
        with pytest.raises(ValidationError, match="not finite"):
            circuit_from_json(obj)
        circuit = perturb_circuit(synthesize_qfft(2), {(2, 3): bad})
        with pytest.raises(ValidationError, match="not finite"):
            validate_circuit(circuit)
        with pytest.raises(ValidationError, match="not finite"):
            compile_circuit(circuit)
