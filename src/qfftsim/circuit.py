"""Butterfly synthesis of the Fourier transform on m = 2^p optical modes.

The circuit uses the radix-2 decimation-in-frequency factorisation. Step j
(j = 1..p) couples every pair of modes whose binary labels differ only in
bit j, counting from the most significant bit, through a balanced
Hadamard-type coupler ``[[1, 1], [1, -1]]/sqrt(2)``. The twiddle phases
produced after step j are folded into the phase map of step j+1 (phases are
applied *before* the couplers of their layer), so the first layer carries no
phases. After the last layer the outputs appear in bit-reversed order; a
final mode relabeling brings the composed matrix to the Fourier matrix
exactly. For m = 8 that relabeling is the pair of swaps 2<->5 and 4<->7 in
1-based labels, and the nominal circuit carries exactly five nontrivial
phase shifters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, ValidationError
from .fourier import check_nonnegative_int

#: Largest supported layer count for synthesis (m = 2^cap modes).
SYNTH_CAP = 10

TWO_PI = 2.0 * math.pi

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class Layer:
    """One butterfly step: phase shifts applied first, then the couplers.

    ``step`` is the 1-based step index j; every coupler pair differs in bit j
    of the mode label (most significant bit = bit 1). ``phases`` maps mode
    index to a phase in [0, 2*pi) applied before the couplers of this layer.
    """

    step: int
    couplers: tuple[tuple[int, int], ...]
    phases: dict[int, float] = field(default_factory=dict)


@dataclass(frozen=True)
class QfftCircuit:
    """Layered coupler/phase description plus the final output relabeling.

    ``output_relabeling[k]`` is the logical output index assigned to physical
    port k after the last layer: an involution, as the JSON format stores it
    as swaps. For the nominal circuit it is the bit-reversal permutation.
    """

    p: int
    m: int
    layers: tuple[Layer, ...]
    output_relabeling: tuple[int, ...]

    @property
    def coupler_count(self) -> int:
        return sum(len(layer.couplers) for layer in self.layers)


def bit_reversal(p: int) -> tuple[int, ...]:
    """Bit-reversal permutation of 0..2^p-1."""
    m = 1 << p
    out = []
    for k in range(m):
        r = 0
        x = k
        for _ in range(p):
            r = (r << 1) | (x & 1)
            x >>= 1
        out.append(r)
    return tuple(out)


def synthesize_qfft(p: int) -> QfftCircuit:
    """Nominal p-layer butterfly circuit composing to ``qft_matrix(2^p)``.

    Layer j pairs the modes differing in bit j (MSB first) and carries the
    twiddle phases 2*pi*q/2^(p-j+2) left over from step j-1 on the modes
    whose bit j-1 is set, q being the mode's offset within the lower half of
    its step-(j-1) block. Layer 1 carries no phases.
    """
    p = check_nonnegative_int(p, "layer count p")
    if not 1 <= p <= SYNTH_CAP:
        raise DomainError(f"layer count p must be in 1..{SYNTH_CAP}, got {p}")
    m = 1 << p
    layers = []
    for j in range(1, p + 1):
        half = 1 << (p - j)  # value of bit j in the mode label
        couplers = tuple((t, t + half) for t in range(m) if not t & half)
        phases: dict[int, float] = {}
        if j >= 2:
            prev_half = 1 << (p - j + 1)  # value of bit j-1
            block = 2 * prev_half  # DFT block size of the previous step
            for t in range(m):
                if t & prev_half:
                    angle = TWO_PI * (t % prev_half) / block
                    if angle != 0.0:
                        phases[t] = angle
        layers.append(Layer(step=j, couplers=couplers, phases=phases))
    return QfftCircuit(p=p, m=m, layers=tuple(layers), output_relabeling=bit_reversal(p))


def validate_circuit(circuit: QfftCircuit) -> None:
    """Check structural invariants; raise ValidationError on the first failure."""
    m = circuit.m
    if m != 1 << circuit.p:
        raise ValidationError(f"mode count {m} is not 2^p for p={circuit.p}")
    if [layer.step for layer in circuit.layers] != list(range(1, circuit.p + 1)):
        raise ValidationError(f"expected layers with steps 1..{circuit.p} in order")
    if sorted(circuit.output_relabeling) != list(range(m)):
        raise ValidationError("output relabeling is not a permutation of the modes")
    if any(circuit.output_relabeling[v] != k for k, v in enumerate(circuit.output_relabeling)):
        raise ValidationError("output relabeling is not an involution")
    for layer in circuit.layers:
        seen: set[int] = set()
        for a, b in layer.couplers:
            if not (0 <= a < m and 0 <= b < m):
                raise ValidationError(f"layer {layer.step}: coupler ({a},{b}) out of range")
            if a in seen or b in seen or a == b:
                raise ValidationError(f"layer {layer.step}: mode reused in coupler ({a},{b})")
            seen.update((a, b))
        if len(seen) != m:
            raise ValidationError(f"layer {layer.step}: {m - len(seen)} modes left uncoupled")
        for t, angle in layer.phases.items():
            if not 0 <= t < m:
                raise ValidationError(f"layer {layer.step}: phase on unknown mode {t}")
            if not math.isfinite(angle):
                raise ValidationError(f"layer {layer.step}: phase on mode {t} is not finite: {angle}")


@dataclass(frozen=True)
class CompiledCircuit:
    """A validated circuit folded into fixed segments, for repeated evaluation.

    Each run of layers that holds no free phase, and the output relabeling
    after the last layer, is folded once into a fixed complex m x m segment.
    With r layers holding a free phase, U = S_r D_r ... S_1 D_1 S_0, where
    ``segments`` holds S_0..S_r and D_i is the diagonal exp(i phi) of the
    i-th free layer; a circuit with no free phase is one segment.
    ``diagonals[i]`` is D_i at the circuit's own values, ``slots[k]`` the
    position of free phase k in ``diagonals`` flattened (free layer times m
    plus mode), and ``nominal[k]`` its value in the circuit. Build it with
    :func:`compile_circuit`.
    """

    segments: tuple[np.ndarray, ...]
    diagonals: np.ndarray
    slots: np.ndarray
    nominal: np.ndarray

    def unitary(self, values=None, derivatives: bool = False):
        """U with the free phases set to ``values`` (default: the nominal ones).

        With ``derivatives`` also returns the (k, m) arrays ``left`` and
        ``right`` of the rank-one derivatives dU/d(phi_k) = i * outer(left[k],
        right[k]). For the free phase at mode t of free layer i, right[k] is
        row t of D_i S_(i-1) ... D_1 S_0, the product up to and including
        that phase, and left[k] is column t of the product after it, which is
        U conj(right[k]) because that prefix is unitary.
        """
        diagonals = self.diagonals.copy()
        if values is not None:
            diagonals.reshape(-1)[self.slots] = np.exp(1j * np.asarray(values, dtype=float))
        m = len(self.segments[0])
        prefixes = np.empty((len(diagonals), m, m), dtype=complex)
        u = self.segments[0]
        for diagonal, segment, prefix in zip(diagonals[:, :, None], self.segments[1:], prefixes):
            u = segment.dot(np.multiply(diagonal, u, out=prefix))
        if not len(prefixes):
            u = u.copy()
        if not derivatives:
            return u
        right = prefixes.reshape(-1, m)[self.slots]
        return u, right.conj().dot(u.T), right


def _couple_rows(u: np.ndarray, couplers) -> np.ndarray:
    """Balanced couplers [[1, 1], [1, -1]]/sqrt(2) on the (upper, lower) row pairs."""
    upper, lower = np.array(couplers, dtype=int).T
    ra = u[upper]
    rb = u[lower]
    restore = np.argsort(np.concatenate((upper, lower)))
    return np.concatenate((ra + rb, ra - rb))[restore] * _INV_SQRT2


def _fold(circuit: QfftCircuit, phases: np.ndarray, cuts) -> list[np.ndarray]:
    """The fixed segments between the layers in ``cuts``, whose phases are left out.

    Each segment applies its layers' phases and couplers to the identity row
    by row, in circuit order; the last one ends with the output relabeling.
    """
    m = circuit.m
    segments = []
    u = np.eye(m, dtype=complex)
    for j, layer in enumerate(circuit.layers):
        if j in cuts:
            segments.append(u)
            u = np.eye(m, dtype=complex)
        else:
            u = np.exp(1j * phases[j])[:, None] * u
        u = _couple_rows(u, layer.couplers)
    inverse = np.empty(m, dtype=int)
    inverse[list(circuit.output_relabeling)] = np.arange(m)
    segments.append(u[inverse])
    return segments


def compile_circuit(circuit: QfftCircuit, free_phases=()) -> CompiledCircuit:
    """Validate ``circuit`` once and fold it into segments; see :class:`CompiledCircuit`.

    ``free_phases`` lists the (step, mode) positions whose values are passed
    to :meth:`CompiledCircuit.unitary`, in that order. The segments cost
    O(p m^2) once; an evaluation then costs one diagonal scale and one m x m
    product per layer holding a free phase.
    """
    validate_circuit(circuit)
    free_phases = tuple(free_phases)
    _check_positions(circuit, free_phases)
    phases = np.zeros((circuit.p, circuit.m))
    for j, layer in enumerate(circuit.layers):
        for t, angle in layer.phases.items():
            phases[j, t] = angle
    free_layers = sorted({step - 1 for step, _ in free_phases})
    slots = np.array(
        [free_layers.index(step - 1) * circuit.m + mode for step, mode in free_phases], dtype=int
    )
    nominal = phases[free_layers].ravel()[slots]
    segments = _fold(circuit, phases, free_layers)
    diagonals = np.exp(1j * phases[free_layers])
    return CompiledCircuit(tuple(segments), diagonals, slots, nominal)


def circuit_to_unitary(circuit: QfftCircuit) -> np.ndarray:
    """Compose phase layers, coupler layers and the output relabeling."""
    return compile_circuit(circuit).unitary()


def _check_positions(circuit: QfftCircuit, positions) -> None:
    positions = [tuple(pos) for pos in positions]
    if len(set(positions)) != len(positions):
        raise DomainError(f"duplicate phase positions in {positions}")
    steps = {layer.step for layer in circuit.layers}
    for step, mode in positions:
        if step not in steps:
            raise DomainError(f"no layer with step index {step}")
        if not 0 <= mode < circuit.m:
            raise DomainError(f"mode {mode} out of range for m={circuit.m}")


def perturb_circuit(circuit: QfftCircuit, phase_errors: dict[tuple[int, int], float]) -> QfftCircuit:
    """Add ``phase_errors[(step, mode)]`` radians to the nominal phases: :func:`set_phases`
    at nominal plus error, a position without a phase counting as 0."""
    nominal = {(layer.step, t): angle for layer in circuit.layers for t, angle in layer.phases.items()}
    return set_phases(circuit, {pos: nominal.get(pos, 0.0) + delta for pos, delta in phase_errors.items()})


def set_phases(circuit: QfftCircuit, assignments: dict[tuple[int, int], float]) -> QfftCircuit:
    """Replace the phases at ``(step, mode)`` positions with absolute values, taken mod 2*pi."""
    _check_positions(circuit, assignments)
    layers = []
    for layer in circuit.layers:
        phases = dict(layer.phases)
        for (step, mode), value in assignments.items():
            if step == layer.step:
                phases[mode] = value % TWO_PI
        layers.append(replace(layer, phases=phases))
    return replace(circuit, layers=tuple(layers))


def nontrivial_phase_positions(circuit: QfftCircuit) -> list[tuple[int, int]]:
    """(step, mode) positions carrying a nonzero phase, in layer-then-mode order.

    On the nominal 8-mode circuit these are the five fabrication-phase
    degrees of freedom used by the reconstruction fit.
    """
    positions = []
    for layer in circuit.layers:
        for mode in sorted(layer.phases):
            if layer.phases[mode] % TWO_PI != 0.0:
                positions.append((layer.step, mode))
    return positions


def relabeling_swaps(circuit: QfftCircuit) -> list[tuple[int, int]]:
    """The relabeling as disjoint swaps in 1-based labels; the circuit is validated first."""
    validate_circuit(circuit)
    return [(k + 1, v + 1) for k, v in enumerate(circuit.output_relabeling) if v > k]


def circuit_to_json(circuit: QfftCircuit) -> dict:
    """Serialise with 1-based mode labels and the relabeling as swap pairs."""
    return {
        "p": circuit.p,
        "m": circuit.m,
        "layers": [
            {
                "step": layer.step,
                "couplers": [[a + 1, b + 1] for a, b in layer.couplers],
                "phases": {str(t + 1): angle for t, angle in sorted(layer.phases.items())},
            }
            for layer in circuit.layers
        ],
        "relabeling": [list(pair) for pair in relabeling_swaps(circuit)],
    }


def circuit_from_json(obj) -> QfftCircuit:
    try:
        p = int(obj["p"])
        m = int(obj["m"])
        raw_layers = obj["layers"]
        raw_swaps = obj["relabeling"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"circuit object needs 'p', 'm', 'layers', 'relabeling': {exc}") from exc
    if not 0 <= p <= SYNTH_CAP:
        raise ValidationError(f"layer count p must be in 0..{SYNTH_CAP}, got {p}")
    try:
        layers = [
            Layer(
                step=int(raw["step"]),
                couplers=tuple((int(a) - 1, int(b) - 1) for a, b in raw["couplers"]),
                phases={int(t) - 1: float(v) for t, v in raw.get("phases", {}).items()},
            )
            for raw in raw_layers
        ]
        # sized by p, not by the unchecked m, which validate_circuit compares with 2^p
        relabeling = list(range(1 << p))
        for a, b in raw_swaps:
            relabeling[int(a) - 1], relabeling[int(b) - 1] = int(b) - 1, int(a) - 1
    except (KeyError, TypeError, ValueError, IndexError, AttributeError, OverflowError) as exc:
        raise ValidationError(f"malformed circuit layers or relabeling: {exc}") from exc
    circuit = QfftCircuit(p=p, m=m, layers=tuple(layers), output_relabeling=tuple(relabeling))
    validate_circuit(circuit)
    return circuit
