import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import layer_product_unitary
from qfftsim import circuit as circuit_module
from qfftsim.circuit import (
    Layer,
    QfftCircuit,
    bit_reversal,
    check_positions,
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


def with_layer(circuit, position, **changes):
    """``circuit`` with the fields of its layer at 1-based ``position`` replaced, unchecked."""
    layers = list(circuit.layers)
    layers[position - 1] = dataclasses.replace(layers[position - 1], **changes)
    return dataclasses.replace(circuit, layers=tuple(layers))


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

    @pytest.mark.parametrize(
        "change, error, message",
        [
            (lambda c: QfftCircuit(p=2, m=5, layers=c.layers, output_relabeling=c.output_relabeling),
             ValidationError, "mode count 5 is not 2^p for p=2"),
            (lambda c: QfftCircuit(p=2, m=4, layers=c.layers, output_relabeling=(0, 0, 1, 2)),
             ValidationError, "output relabeling is not a permutation of the modes"),
            (lambda c: with_layer(c, 1, couplers=((0, 4), (1, 3))),
             ValidationError, "layer 1: coupler (0,4) out of range"),
            (lambda c: with_layer(c, 2, phases={4: 0.5}), ValidationError, "layer 2: phase on unknown mode 4"),
            # these three used to raise a bare ValueError, IndexError and TypeError
            (lambda c: with_layer(c, 1, couplers=((0, 2, 1), (1, 3))),
             DomainError, "layer 1: coupler (0, 2, 1) must name two modes"),
            (lambda c: with_layer(c, 2, phases={2.5: 0.5}),
             DomainError, "layer 2: phase mode 2.5 is not a non-negative integer"),
            (lambda c: with_layer(c, 2, phases={1: "x"}),
             ValidationError, "layer 2: phase on mode 1 is not a real number: 'x'"),
            # p and a relabeling entry used to raise a bare TypeError; m and the step a
            # ValidationError that did not say which rule the value broke
            (lambda c: dataclasses.replace(c, p=2.5), DomainError, "layer count p 2.5 is not a non-negative integer"),
            (lambda c: dataclasses.replace(c, p="x"), DomainError, "layer count p 'x' is not a non-negative integer"),
            (lambda c: dataclasses.replace(c, m=4.5), DomainError, "mode count 4.5 is not a non-negative integer"),
            (lambda c: with_layer(c, 2, step=1.5), DomainError, "step index 1.5 is not a non-negative integer"),
            (lambda c: dataclasses.replace(c, output_relabeling=("x", 2, 1, 3)),
             DomainError, "output relabeling entry 'x' is not a non-negative integer"),
            (lambda c: dataclasses.replace(c, output_relabeling=(0, 2.5, 1, 3)),
             DomainError, "output relabeling entry 2.5 is not a non-negative integer"),
        ],
        ids=["m-not-2^p", "not-a-permutation", "coupler-out-of-range", "unknown-phase-mode",
             "coupler-of-three", "phase-mode-2.5", "angle-str", "p-2.5", "p-str", "m-4.5", "step-1.5",
             "relabeling-str", "relabeling-2.5"],
    )
    def test_structural_refusals_named(self, change, error, message):
        circuit = change(synthesize_qfft(2))
        for refuse in (validate_circuit, compile_circuit, circuit_to_unitary, circuit_to_json):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                refuse(circuit)

    def test_integral_float_phase_mode_is_read_as_its_mode(self):
        # the label rule admits 3.0, which used to index the phase array and raise a bare IndexError
        c = synthesize_qfft(2)
        floating, integral = with_layer(c, 2, phases={3.0: 0.5}), with_layer(c, 2, phases={3: 0.5})
        assert np.array_equal(circuit_to_unitary(floating), circuit_to_unitary(integral))
        assert circuit_to_json(floating) == circuit_to_json(integral)

    def test_integral_float_counts_and_labels_give_what_ints_give(self):
        # p = 2.0 used to raise a bare TypeError from 1 << p, m = 4.0 from the phase array's
        # shape and a relabeling of floats from indexing the relabeling with its own entries
        c = synthesize_qfft(2)
        floating = dataclasses.replace(
            with_layer(c, 2, step=2.0, couplers=((0.0, 1.0), (2.0, 3.0)), phases={3.0: 0.5}),
            p=2.0, m=4.0, output_relabeling=(0.0, 2.0, 1.0, 3.0),
        )
        integral = with_layer(c, 2, phases={3: 0.5})
        free = [(1, 2), (2, 3)]
        assert np.array_equal(circuit_to_unitary(floating), circuit_to_unitary(integral))
        assert np.array_equal(compile_circuit(floating, free).unitary([0.1, 0.2]),
                              compile_circuit(integral, free).unitary([0.1, 0.2]))
        # the JSON holds the ints: "p": 2, not "p": 2.0
        assert json.dumps(circuit_to_json(floating)) == json.dumps(circuit_to_json(integral))
        assert relabeling_swaps(floating) == relabeling_swaps(integral) == [(2, 3)]
        assert validate_circuit(floating) == validate_circuit(integral) == integral


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
        assert np.array_equal(compiled.unitary(), compiled.unitary([c.layers[s - 1].phases[t] for s, t in free]))
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
        with pytest.raises(DomainError, match="^no layer with step index 3$"):
            perturb_circuit(c, {(3, 0): 0.1})
        with pytest.raises(DomainError, match="^mode 4 out of range for m=4$"):
            perturb_circuit(c, {(1, 4): 0.1})


class TestPositions:
    @pytest.mark.parametrize("pos", [(2, 5.5), (2.5, 3), (2, -1), (2, float("nan")), ("a", 3)])
    def test_non_integral_labels_refused(self, pos):
        # set_phases used to store a phase on mode 5.5, and compile_circuit to fit mode 5
        template = synthesize_qfft(3)
        for call in (
            lambda: check_positions(template, [pos]),
            lambda: set_phases(template, {pos: 0.3}),
            lambda: compile_circuit(template, [pos]),
        ):
            with pytest.raises(DomainError, match="is not a non-negative integer$"):
                call()

    @pytest.mark.parametrize("pos", [(2, 5, 1), (2,), 5], ids=["three-labels", "one-label", "scalar"])
    def test_positions_of_other_than_two_labels_named(self, pos):
        # (2, 5, 1) and (2,) used to raise a bare ValueError, 5 a bare TypeError
        template = synthesize_qfft(3)
        message = f"^phase position {re.escape(repr(pos))} must name a step index and a mode$"
        for call in (
            lambda: check_positions(template, [pos]),
            lambda: set_phases(template, {pos: 0.3}),
            lambda: perturb_circuit(template, {pos: 0.3}),
            lambda: compile_circuit(template, [pos]),
        ):
            with pytest.raises(DomainError, match=message):
                call()

    def test_integral_floats_and_numpy_ints_read_as_ints(self):
        template = synthesize_qfft(3)
        assert check_positions(template, [(2.0, np.int64(5))]) == [(2, 5)]
        same = set_phases(template, {(2.0, 5.0): 0.3})
        assert same == set_phases(template, {(2, 5): 0.3})
        assert circuit_to_json(same) == circuit_to_json(set_phases(template, {(2, 5): 0.3}))
        assert np.array_equal(compile_circuit(template, [(2.0, 5.0)]).slots, compile_circuit(template, [(2, 5)]).slots)


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
        # integral floats read as the same ints
        again = circuit_from_json(json.loads(json.dumps(circuit_to_json(c)), parse_int=float))
        assert circuit_to_json(again) == circuit_to_json(c)
        assert json.dumps(circuit_to_json(again)) == json.dumps(circuit_to_json(c))

    def test_relabeling_serialised_as_swaps(self):
        obj = circuit_to_json(synthesize_qfft(3))
        assert obj["relabeling"] == [[2, 5], [4, 7]]

    def test_validated_once(self, monkeypatch):
        # relabeling_swaps, called by circuit_to_json, used to validate a second time
        calls = []

        def counting(circuit):
            calls.append(circuit)
            return validate_circuit(circuit)

        monkeypatch.setattr(circuit_module, "validate_circuit", counting)
        assert circuit_to_json(synthesize_qfft(3))["relabeling"] == [[2, 5], [4, 7]]
        assert len(calls) == 1
        assert relabeling_swaps(synthesize_qfft(3)) == [(2, 5), (4, 7)]
        assert len(calls) == 2

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
            # each used to be truncated: p 1.7 read as 1, the coupler [1.9, 2] as modes (0, 1)
            {"p": 1.7},
            {"m": 2.5},
            {"layers": [{"step": 1.5, "couplers": [[1, 2]]}]},
            {"layers": [{"step": 1, "couplers": [[1.9, 2]]}]},
            {"relabeling": [[1.5, 1]]},
        ],
    )
    def test_malformed_values_rejected(self, change):
        with pytest.raises(ValidationError):
            circuit_from_json({**circuit_to_json(synthesize_qfft(1)), **change})

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("layers", 0, "couplers", 0), [0, 5], "coupler mode 0 is below 1: labels in files are 1-based"),
            (("layers", 0, "couplers", 0), [1, 5, 6], "coupler [1, 5, 6] must name two modes"),
            (("layers", 0, "couplers", 0), 1, "coupler 1 must name two modes"),
            (("layers", 1, "phases", "0"), 1.0, "phase mode 0 is below 1: labels in files are 1-based"),
            (("relabeling", 0), [0, 5], "relabeling mode 0 is below 1: labels in files are 1-based"),
            (("relabeling", 0), [2], "relabeling swap [2] must name two modes"),
        ],
        ids=["coupler-label-0", "coupler-of-three", "coupler-scalar", "phase-label-0", "swap-label-0", "swap-of-one"],
    )
    def test_malformed_labels_named_in_file_words(self, path, value, message):
        # label 0 used to become mode -1, refused later as "coupler (-1,4) out of range", and the
        # swap [0, 5] indexed position -1 before the permutation check caught it
        obj = circuit_to_json(synthesize_qfft(3))
        node = obj
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ValidationError, match=f"{re.escape(message)}$"):
            circuit_from_json(obj)

    @pytest.mark.parametrize("value", ["0.7", True, None, [0.7]])
    def test_non_number_phase_named_in_file_words(self, value):
        # the string "0.7" used to be read by float() and composed
        obj = circuit_to_json(synthesize_qfft(2))
        obj["layers"][1]["phases"]["4"] = value
        with pytest.raises(ValidationError, match=f"phase on mode 4 is not a number: {re.escape(repr(value))}$"):
            circuit_from_json(obj)

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
