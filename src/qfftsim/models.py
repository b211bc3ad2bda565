"""Output statistics of an interferometer under three particle models.

* ``fock``: indistinguishable photons; outcome probabilities come from
  permanents of unitary submatrices.
* ``distinguishable``: classical mixing of single-particle probabilities;
  permanents of the elementwise ``|U|^2`` matrix.
* ``mean_field``: each particle occupies the same single-particle
  superposition of the occupied input modes with shot-to-shot random phases;
  outcome probabilities are phase-averaged multinomials.

A two-photon partial-distinguishability model interpolates between the
distinguishable and Fock limits as a function of the relative path delay.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DomainError, NumericalError, ShapeError
from .fourier import (
    ENUMERATION_CAP,
    FockState,
    enumerate_outputs,
    occupied_modes,
    output_count,
    photon_number,
)
from .linalg import DEFAULT_TOL, PERMANENT_CAP, assert_unitary, permanent

FOCK = "fock"
DISTINGUISHABLE = "distinguishable"
MEAN_FIELD = "mean_field"

#: Monte Carlo phase draws of a mean-field average by default.
DEFAULT_SAMPLES = 64

#: Probabilities more negative than this raise instead of being clamped.
CLAMP_FLOOR = -1e-12

#: Most array entries an outcome kernel holds at once: outcomes x n x n
#: submatrix entries for the permanents, draws x outcomes x n for the
#: mean-field average. Keeps memory flat up to the enumeration cap.
BLOCK_ENTRIES = 1 << 20


def _clamp(p: np.ndarray) -> np.ndarray:
    low = float(p.min())
    if low < CLAMP_FLOOR:
        raise NumericalError(f"probability {low} below clamping floor {CLAMP_FLOOR}")
    return np.maximum(p, 0.0)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities over output occupation states for one model and input."""

    model: str
    input: FockState
    probabilities: dict[FockState, float]
    unitary_id: str | None = None
    stderr: dict[FockState, float] | None = None

    def total(self) -> float:
        return float(sum(self.probabilities.values()))

    def to_json(self) -> dict:
        obj = {
            "model": self.model,
            "input": list(self.input),
            "probabilities": [
                {"output": list(state), "p": prob}
                for state, prob in sorted(self.probabilities.items())
            ],
        }
        if self.unitary_id is not None:
            obj["unitary_id"] = self.unitary_id
        return obj


def distribution_from_json(obj) -> OutcomeDistribution:
    return OutcomeDistribution(
        model=str(obj["model"]),
        input=tuple(int(x) for x in obj["input"]),
        probabilities={
            tuple(int(x) for x in entry["output"]): float(entry["p"])
            for entry in obj["probabilities"]
        },
        unitary_id=obj.get("unitary_id"),
    )


@dataclass(frozen=True)
class DelayModel:
    """Two-photon indistinguishability as a function of relative path delay.

    ``overlap(dx) = alpha * exp(-(dx / coherence_length)^2)``: equal to
    ``alpha`` at zero delay and vanishing for delays far beyond the
    coherence length. ``alpha`` is the residual indistinguishability of the
    source at zero delay.
    """

    alpha: float = 1.0
    coherence_length: float = 100.0
    shape: str = "gaussian"

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise DomainError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not 0.0 < self.coherence_length < math.inf:
            raise DomainError(
                f"coherence length must be positive and finite, got {self.coherence_length}"
            )
        if self.shape != "gaussian":
            raise DomainError(f"unsupported overlap shape {self.shape!r}")

    def overlap(self, delta_x):
        dx = np.asarray(delta_x, dtype=float)
        return self.alpha * np.exp(-((dx / self.coherence_length) ** 2))


def _check_input(u: np.ndarray, input_state) -> tuple[FockState, int]:
    state = tuple(int(x) for x in input_state)
    if len(state) != u.shape[0]:
        raise ShapeError(f"input has {len(state)} modes but the unitary is {u.shape[0]}x{u.shape[0]}")
    n = photon_number(state)
    if n < 1:
        raise DomainError("input must carry at least one photon")
    return state, n


def _outcomes(n: int, m: int) -> tuple[list[FockState], np.ndarray, np.ndarray]:
    """The n-photon outputs on m modes (after checking the enumeration cap), each
    output's occupied modes with multiplicity as an (N, n) array, and its prod_k t_k!."""
    count = output_count(n, m)
    if count > ENUMERATION_CAP:
        raise CapacityError(
            f"{count} outputs of {n} photons on {m} modes exceed enumeration cap {ENUMERATION_CAP}"
        )
    outs = list(enumerate_outputs(n, m))
    occ = np.array(outs, dtype=np.intp).reshape(len(outs), m)
    rows = np.repeat(np.tile(np.arange(m), len(outs)), occ.ravel()).reshape(len(outs), n)
    factorials = np.array([math.factorial(k) for k in range(n + 1)], dtype=float)
    return outs, rows, factorials[occ].prod(axis=1)


def _permanent_table(mat: np.ndarray, state: FockState, n: int, cap: int):
    """Outputs, prod_k t_k! and perm(mat[T, S]), one :func:`permanent` call per output T."""
    if n > cap:
        raise DomainError(f"{n} photons exceed the permanent cap {cap}")
    outs, rows, t_fact = _outcomes(n, mat.shape[0])
    cols = np.array(occupied_modes(state))
    perms = np.empty(len(outs), dtype=complex)
    step = max(1, BLOCK_ENTRIES // (n * n))
    for start in range(0, len(outs), step):
        stack = mat[rows[start : start + step, :, None], cols]
        perms[start : start + step] = [permanent(block, cap=cap) for block in stack]
    return outs, t_fact, perms


def fock_distribution(u, input_state, *, unitary_id=None, tol=DEFAULT_TOL, cap=PERMANENT_CAP) -> OutcomeDistribution:
    """Outcome distribution for indistinguishable photons.

    P(T | S) = |perm(U[T, S])|^2 / (prod_k s_k! * prod_k t_k!) where the
    submatrix repeats rows (columns) according to the output (input)
    occupations.
    """
    u = assert_unitary(u, tol=tol, what="evolution matrix")
    state, n = _check_input(u, input_state)
    outs, t_fact, perms = _permanent_table(u, state, n, cap)
    s_fact = math.prod(math.factorial(k) for k in state)
    probs = _clamp(np.abs(perms) ** 2 / (s_fact * t_fact))
    return OutcomeDistribution(FOCK, state, dict(zip(outs, probs.tolist())), unitary_id=unitary_id)


def distinguishable_distribution(u, input_state, *, unitary_id=None, tol=DEFAULT_TOL, cap=PERMANENT_CAP) -> OutcomeDistribution:
    """Outcome distribution for fully distinguishable particles.

    Classical mixing: P(T | S) = perm(W[T, S]) / prod_k t_k! with
    W = |U|^2 elementwise. No interference between particle paths.
    """
    u = assert_unitary(u, tol=tol, what="evolution matrix")
    state, n = _check_input(u, input_state)
    outs, t_fact, perms = _permanent_table(np.abs(u) ** 2, state, n, cap)
    probs = _clamp(perms.real / t_fact)
    return OutcomeDistribution(DISTINGUISHABLE, state, dict(zip(outs, probs.tolist())), unitary_id=unitary_id)


def is_cyclic_state(state) -> bool:
    """True for collision-free states whose occupied modes are equally spaced
    with period m/n (the cyclic inputs of an n-photon, m-mode Fourier test)."""
    state = tuple(int(x) for x in state)
    if any(occ not in (0, 1) for occ in state):
        return False
    modes = occupied_modes(state)
    n = len(modes)
    m = len(state)
    if n < 2 or m % n != 0:
        return False
    period = m // n
    return all(modes[r] == modes[0] + r * period for r in range(n))


def _require_cyclic(state) -> list[int]:
    if not is_cyclic_state(state):
        raise DomainError(f"input {tuple(state)} is not a collision-free cyclic state")
    return occupied_modes(state)


def _mean_field_shots(u, modes, thetas, rows, coeff) -> np.ndarray:
    """(draws, N) multinomial probabilities, coeff * prod_k pi_k^t_k, for (draws, n) phases."""
    amp = np.exp(1j * thetas) @ (u[:, modes].T / math.sqrt(len(modes)))
    pi = np.abs(amp) ** 2
    return pi[:, rows].prod(axis=2) * coeff


def mean_field_distribution(
    u,
    input_state,
    method: str = "quadrature",
    samples: int = DEFAULT_SAMPLES,
    seed=None,
    *,
    unitary_id=None,
    tol=DEFAULT_TOL,
) -> OutcomeDistribution:
    """Phase-averaged mean-field outcome distribution for a cyclic input.

    Parameters
    ----------
    method:
        ``"quadrature"`` averages exactly over a uniform tensor grid of n + 1
        nodes per relative phase (the first phase is fixed to zero; only
        relative phases matter), (n + 1)^(n - 1) draws in all. Each outcome's
        probability is a trigonometric polynomial of degree <= n in each
        phase, which that grid integrates without error. ``"monte_carlo"``
        draws ``samples`` uniform phase vectors with the given ``seed`` and
        also fills ``stderr`` with per-outcome standard errors.
    samples:
        Monte Carlo draws; the quadrature ignores it.
    """
    u = assert_unitary(u, tol=tol, what="evolution matrix")
    state, n = _check_input(u, input_state)
    modes = _require_cyclic(state)
    if method not in ("quadrature", "monte_carlo"):
        raise DomainError(f"unknown averaging method {method!r}")
    if method == "monte_carlo" and samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    outs, rows, t_fact = _outcomes(n, u.shape[0])
    coeff = math.factorial(n) / t_fact

    if method == "quadrature":
        nodes = np.arange(n + 1) * (2.0 * np.pi / (n + 1))
        draws = np.array([(0.0, *phases) for phases in itertools.product(nodes, repeat=n - 1)])
    else:
        draws = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=(samples, n))
    acc = np.zeros(len(outs))
    acc_sq = np.zeros(len(outs))
    step = max(1, BLOCK_ENTRIES // (len(outs) * n))
    for start in range(0, len(draws), step):
        shots = _mean_field_shots(u, modes, draws[start : start + step], rows, coeff)
        acc += shots.sum(axis=0)
        acc_sq += (shots**2).sum(axis=0)
    count = len(draws)
    probs = _clamp(acc / count)
    stderr = None
    if method == "monte_carlo" and count > 1:
        var = np.maximum(acc_sq / count - (acc / count) ** 2, 0.0)
        stderr = dict(zip(outs, np.sqrt(var / (count - 1)).tolist()))
    return OutcomeDistribution(
        MEAN_FIELD, state, dict(zip(outs, probs.tolist())), unitary_id=unitary_id, stderr=stderr
    )


def _check_pair(u: np.ndarray, input_pair) -> tuple[int, int]:
    a, b = (int(x) for x in input_pair)
    m = u.shape[0]
    if not (0 <= a < m and 0 <= b < m):
        raise DomainError(f"input pair {(a, b)} out of range for m={m}")
    if a == b:
        raise DomainError("input pair must be collision-free (two distinct modes)")
    return a, b


def two_photon_probabilities(u, input_pair) -> tuple[np.ndarray, np.ndarray]:
    """Fock and distinguishable two-photon probabilities for every output pair.

    Returns symmetric matrices ``(pq, pc)``; entry [i, j] with i != j is the
    probability of one photon in each of modes i and j, the diagonal holds
    the bunched (both photons in the same mode) probabilities. Each matrix's
    upper triangle including the diagonal sums to 1.
    """
    u = np.asarray(u, dtype=complex)
    a, b = _check_pair(u, input_pair)
    amp = np.outer(u[:, a], u[:, b])
    sym = amp + amp.T
    pq = np.abs(sym) ** 2
    np.fill_diagonal(pq, np.abs(np.diag(sym)) ** 2 / 2.0)
    mag = np.outer(np.abs(u[:, a]) ** 2, np.abs(u[:, b]) ** 2)
    pc = mag + mag.T
    np.fill_diagonal(pc, np.diag(mag))
    return pq, pc


@dataclass(frozen=True)
class CoincidenceCurves:
    """Coincidence probability versus delay for every output pair of one input."""

    input: tuple[int, int]
    delta_x: np.ndarray
    quantum: dict[tuple[int, int], np.ndarray] = field(repr=False)
    classical: dict[tuple[int, int], float] = field(repr=False)

    def pairs(self) -> list[tuple[int, int]]:
        return sorted(self.quantum)


def two_photon_coincidences(
    u, input_pair, delay_model: DelayModel, delta_x, *, tol=DEFAULT_TOL
) -> CoincidenceCurves:
    """Coincidence curves Q_ij(dx) for a collision-free two-photon input.

    The curve interpolates linearly in the overlap between the
    distinguishable limit P^C (large delay) and the Fock limit P^Q (zero
    delay, perfect sources): ``Q = (1 - overlap) * P^C + overlap * P^Q``.
    """
    u = assert_unitary(u, tol=tol, what="evolution matrix")
    a, b = _check_pair(u, input_pair)
    dx = np.atleast_1d(np.asarray(delta_x, dtype=float))
    pq, pc = two_photon_probabilities(u, (a, b))
    ov = delay_model.overlap(dx)
    m = u.shape[0]
    quantum = {}
    classical = {}
    for i in range(m):
        for j in range(i, m):
            quantum[(i, j)] = (1.0 - ov) * pc[i, j] + ov * pq[i, j]
            classical[(i, j)] = float(pc[i, j])
    return CoincidenceCurves(input=(a, b), delta_x=dx, quantum=quantum, classical=classical)


def full_bunching_visibilities(u, input_pair, *, tol=DEFAULT_TOL) -> dict[int, float]:
    """Visibility (C_kk - Q_kk)/C_kk of the both-photons-in-mode-k outcome.

    Modes with zero classical bunching probability are omitted. For any
    unitary and any collision-free two-photon input the defined values are
    exactly -1: the Fock bunching probability is always twice the classical
    one.
    """
    u = assert_unitary(u, tol=tol, what="evolution matrix")
    pq, pc = two_photon_probabilities(u, input_pair)
    out = {}
    for k in range(u.shape[0]):
        c = pc[k, k]
        if c > 0.0:
            out[k] = float((c - pq[k, k]) / c)
    return out


def write_coincidence_curves_csv(curves: CoincidenceCurves, stream) -> None:
    """CSV with columns delta_x, output_i, output_j, Q, C (1-based modes)."""
    stream.write("delta_x,output_i,output_j,Q,C\n")
    for idx, dx in enumerate(curves.delta_x):
        for (i, j) in curves.pairs():
            q = curves.quantum[(i, j)][idx]
            c = curves.classical[(i, j)]
            stream.write(f"{float(dx)!r},{i + 1},{j + 1},{float(q)!r},{float(c)!r}\n")
