"""Output statistics of an interferometer under three particle models.

* ``fock``: indistinguishable photons; outcome probabilities come from
  permanents of unitary submatrices.
* ``distinguishable``: classical mixing of single-particle probabilities;
  permanents of the elementwise ``|U|^2`` matrix, all outcomes at once as
  the coefficients of one polynomial product.
* ``mean_field``: each particle occupies the same single-particle
  superposition of the occupied input modes with shot-to-shot random phases;
  the exact phase average of each outcome is the sum of the squared
  coefficients of one such product per output, taken over the input phases.

Each table is a sum of squared moduli or of products of ``|U|^2`` entries,
so it is never negative and is returned as computed, without clamping.

A two-photon partial-distinguishability model interpolates between the
distinguishable and Fock limits as a function of the relative path delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DomainError, ShapeError
from .fourier import (
    FockState,
    _expansion_plan,
    _output_states,
    check_nonnegative_int,
    check_state,
    enumerate_outputs,
    occupied_modes,
    output_count,
    photon_number,
)
from .linalg import DEFAULT_TOL, as_complex_matrix, assert_unitary, check_permanent_cap, permanent

FOCK = "fock"
DISTINGUISHABLE = "distinguishable"
MEAN_FIELD = "mean_field"

#: Most steps of an expansion table, refused before any output is built: n
#: C(m' + n - 1, n) terms, at most, for each expansion of n factors over m'
#: variables, its plan counting as one more, plus :data:`LEVEL_STEPS` for each
#: of the n levels. At ~20 ns a term on a 2-core x86 host, the slowest tables
#: admitted took 2.8-5.9 s at 35 MB peak RSS (131,000 distinguishable photons
#: on 1 mode, where the levels are all the work) and 4.7-8.2 s at 62 MB (8
#: mean-field photons on 8 modes). On 2 or more modes the entry cap of
#: :mod:`qfftsim.fourier` refuses a distinguishable table first: 2047 photons
#: on 2 modes took 0.27-0.31 s at 95 MB.
MAX_EXPANSION_WORK = 1 << 29

#: Steps charged for each level of an expansion, the fixed cost of its numpy
#: calls: a level of the 1-mode table above, one term, took 25-45 us.
LEVEL_STEPS = 1 << 12

#: Most array entries the Fock stack or the mean-field expansion holds at
#: once: outcomes x n x n submatrix entries for the Fock permanents, outcomes
#: x C(2n - 1, n) phase monomials x n for the mean-field expansion. Keeps
#: memory flat up to the entry cap of :mod:`qfftsim.fourier`.
BLOCK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities over output occupation states for one model and input."""

    model: str
    input: FockState
    probabilities: dict[FockState, float]

    def total(self) -> float:
        return float(sum(self.probabilities.values()))

    def to_json(self) -> dict:
        """The model, the input and each output's ``p``, outputs ascending; no provenance."""
        return {
            "model": self.model,
            "input": list(self.input),
            "probabilities": [
                {"output": state, "p": prob}
                for state, prob in sorted(self.probabilities.items())
            ],
        }


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

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise DomainError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not 0.0 < self.coherence_length < math.inf:
            raise DomainError(
                f"coherence length must be positive and finite, got {self.coherence_length}"
            )

    def overlap(self, delta_x):
        dx = np.asarray(delta_x, dtype=float)
        with np.errstate(over="ignore"):  # a delay past ~1e154 lengths has overlap 0
            return self.alpha * np.exp(-((dx / self.coherence_length) ** 2))


def _check_input(u, input_state, tol: float) -> tuple[np.ndarray, FockState, int]:
    """The checked unitary, input occupation tuple and photon number."""
    u = assert_unitary(u, tol=tol, what="evolution matrix")
    state = check_state(input_state)
    if len(state) != u.shape[0]:
        raise ShapeError(f"input has {len(state)} modes but the unitary is {u.shape[0]}x{u.shape[0]}")
    n = photon_number(state)
    if n < 1:
        raise DomainError("input must carry at least one photon")
    return u, state, n


def _check_work(model: str, n: int, m: int, variables: int, batch: int) -> None:
    """Refuse ``batch`` expansions over ``variables`` and their plan above :data:`MAX_EXPANSION_WORK`."""
    work = (batch + 1) * n * output_count(n, variables) + n * LEVEL_STEPS
    if work > MAX_EXPANSION_WORK:
        raise CapacityError(
            f"the {model} table of {n} photons on {m} modes needs {work} expansion steps, "
            f"above the budget {MAX_EXPANSION_WORK}"
        )


def _outcomes(n: int, m: int) -> tuple[tuple[FockState, ...], np.ndarray]:
    """The n-photon outputs on m modes as the shared occupation tuples of
    :mod:`qfftsim.fourier`, which also key :func:`partition_outputs`'s sets,
    and as the (N, n) occupied-mode rows of :func:`enumerate_outputs`. The
    tuples come first, so that their entry cap refuses before any row is built."""
    outs, _ = _output_states(n, m)
    return outs, enumerate_outputs(n, m)


def _t_factorials(rows: np.ndarray) -> np.ndarray:
    """prod_k t_k! of each (N, n) occupied-mode row, exact: the integer
    product of each entry's running multiplicity within its ascending row, in
    int64 up to n = 20: the permanent cap and the work budget refuse more."""
    run = np.ones(rows.shape, dtype=np.int64)
    for j in range(1, rows.shape[1]):
        run[:, j] += (rows[:, j] == rows[:, j - 1]) * run[:, j - 1]
    return run.prod(axis=1).astype(float)


def product_expansion(cols: np.ndarray, plan) -> np.ndarray:
    """Coefficient of x^T in prod_j (sum_k cols[..., k, j] x_k) for each output
    T of ``enumerate_outputs(n, m)``, for (..., m, n) ``cols`` with any leading
    batch axes: perm(A[T, S]) / prod_k t_k! for the matrix A whose input
    columns S are ``cols``. Level r holds the coefficients of the first r
    factors over the r-photon outputs, c_r(T) = sum over distinct k in T of
    cols[..., k, r - 1] * c_(r-1)(T - e_k): one gather, one multiply and one
    ``np.add.reduceat`` over the terms of each level of ``plan``, the levels
    2..n of ``fourier._expansion_plan(n, m)`` taken in order, so a plan
    streamed from the generator is never held whole.
    """
    coeff = cols[..., :, 0]
    for r, (modes, parents, starts) in enumerate(plan, start=2):
        coeff = np.add.reduceat(cols[..., modes, r - 1] * coeff[..., parents], starts, axis=-1)
    return coeff


def fock_distribution(u, input_state, *, tol=DEFAULT_TOL) -> OutcomeDistribution:
    """Outcome distribution for indistinguishable photons.

    P(T | S) = |perm(U[T, S])|^2 / (prod_k s_k! * prod_k t_k!) where the
    submatrix repeats rows (columns) according to the output (input)
    occupations; one :func:`permanent` call per output T.
    """
    u, state, n = _check_input(u, input_state, tol)
    check_permanent_cap(n)
    outs, rows = _outcomes(n, u.shape[0])
    cols = np.array(occupied_modes(state))
    perms = np.empty(len(outs), dtype=complex)
    step = max(1, BLOCK_ENTRIES // (n * n))
    for start in range(0, len(outs), step):
        stack = u[rows[start : start + step, :, None], cols]
        perms[start : start + step] = [permanent(block) for block in stack]
    s_fact = math.prod(math.factorial(k) for k in state)
    probs = np.abs(perms) ** 2 / (s_fact * _t_factorials(rows))
    return OutcomeDistribution(FOCK, state, dict(zip(outs, probs.tolist())))


def distinguishable_distribution(u, input_state, *, tol=DEFAULT_TOL) -> OutcomeDistribution:
    """Outcome distribution for fully distinguishable particles.

    Classical mixing: P(T | S) = perm(W[T, S]) / prod_k t_k! with W = |U|^2
    elementwise, the coefficient of x^T in prod_j (sum_k W[k, s_j] x_k), all
    taken at once by :func:`product_expansion`, whose work is checked against
    :data:`MAX_EXPANSION_WORK` before any output is built. No interference.
    """
    u, state, n = _check_input(u, input_state, tol)
    _check_work(DISTINGUISHABLE, n, u.shape[0], u.shape[0], 1)
    outs, _ = _outcomes(n, u.shape[0])
    probs = product_expansion(np.abs(u[:, occupied_modes(state)]) ** 2, _expansion_plan(n, u.shape[0]))
    return OutcomeDistribution(DISTINGUISHABLE, state, dict(zip(outs, probs.tolist())))


def is_cyclic_state(state) -> bool:
    """True for collision-free states whose occupied modes are equally spaced
    with period m/n (the cyclic inputs of an n-photon, m-mode Fourier test)."""
    state = check_state(state)
    if any(occ > 1 for occ in state):
        return False
    modes = occupied_modes(state)
    n = len(modes)
    m = len(state)
    if n < 2 or m % n != 0:
        return False
    period = m // n
    return all(modes[r] == modes[0] + r * period for r in range(n))


def mean_field_distribution(u, input_state, *, tol=DEFAULT_TOL) -> OutcomeDistribution:
    """Phase-averaged mean-field outcome distribution for a cyclic input.

    Every photon occupies n^(-1/2) sum_j y_j a_(s_j)^dagger with independent
    uniform phases y_j = e^(i theta_j), so for one draw the outputs are
    multinomial: P(T | y) = n! / (prod_k t_k! * n^n) * |prod_r sum_j U[T_r, s_j] y_j|^2.
    With c_alpha(T) the coefficient of y^alpha in that product, the phase
    average keeps only the diagonal terms:

        P(T) = n! / (prod_k t_k! * n^n) * sum_alpha |c_alpha(T)|^2,

    exact for any n (Tichy, Mayer, Buchleitner & Molmer, PRL 113, 020502
    (2014)). :func:`product_expansion` gives the C(2n - 1, n) coefficients of
    every output, a block of outputs at a time, over one (n, n) plan built
    per call; the expansion's work is checked against
    :data:`MAX_EXPANSION_WORK` before any output is built.
    """
    u, state, n = _check_input(u, input_state, tol)
    if not is_cyclic_state(state):
        raise DomainError(f"input {state} is not a collision-free cyclic state")
    _check_work(MEAN_FIELD, n, u.shape[0], n, output_count(n, u.shape[0]))
    outs, rows = _outcomes(n, u.shape[0])
    modes = occupied_modes(state)
    plan = tuple(_expansion_plan(n, n))
    weight = np.empty(len(rows))
    step = max(1, BLOCK_ENTRIES // (output_count(n, n) * n))
    for start in range(0, len(rows), step):
        cols = u[rows[start : start + step, :, None], modes].transpose(0, 2, 1)
        weight[start : start + step] = (np.abs(product_expansion(cols, plan)) ** 2).sum(axis=1)
    probs = math.factorial(n) / n**n * weight / _t_factorials(rows)
    return OutcomeDistribution(MEAN_FIELD, state, dict(zip(outs, probs.tolist())))


def _check_pair(u: np.ndarray, input_pair) -> tuple[int, int]:
    a, b = (check_nonnegative_int(x, "input mode") for x in input_pair)
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
    upper triangle including the diagonal sums to 1. A non-square ``u``
    raises :class:`ShapeError`; its unitarity is the callers' check.
    """
    u = as_complex_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise ShapeError(f"two-photon probabilities need a square matrix, got {u.shape}")
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
    """Coincidence probability versus delay for every output pair of one input.

    ``pairs`` lists the i <= j output pairs in ascending order;
    ``quantum[k, p]`` is the probability of pair ``pairs[p]`` at delay
    ``delta_x[k]`` and ``classical[p]`` its distinguishable-particle limit.
    """

    input: tuple[int, int]
    delta_x: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    quantum: np.ndarray = field(repr=False)
    classical: np.ndarray = field(repr=False)


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
    ov = delay_model.overlap(dx)[:, None]
    rows, cols = np.triu_indices(u.shape[0])
    classical = pc[rows, cols]
    return CoincidenceCurves(
        input=(a, b),
        delta_x=dx,
        pairs=tuple(zip(rows.tolist(), cols.tolist())),
        quantum=(1.0 - ov) * classical + ov * pq[rows, cols],
        classical=classical,
    )


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
