"""Discrete Fourier unitaries and the rules about modes.

Fock states are occupation tuples: ``state[k]`` photons in mode ``k``
(0-based internally). :func:`enumerate_outputs` lists all outputs at once,
as an array of occupied modes, and :func:`partition_outputs` as the tuples
that key every outcome table. Each rule about modes and photons is stated
here once: the label rule (:func:`check_nonnegative_int`, :func:`check_state`),
the key rule that reads every pair of labels (:func:`check_key`;
:func:`check_pair` for a two-photon input), the rules of 1-based labels and
of number values read from files (:func:`file_label`, :func:`file_pair`,
:func:`file_number`), the suppression law
(:func:`suppressed`, :func:`is_suppressed`, :func:`partition_outputs`) and the
cyclic-input rule (:func:`cyclic_inputs`, :func:`is_cyclic_state`). The last
two are stated with 1-based mode labels in user-facing material; conversion
happens at the function boundary.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from itertools import chain, combinations_with_replacement, compress

import numpy as np

from .errors import CapacityError, DomainError, ValidationError

#: Most entries one enumeration builds, refused before any is built: outputs
#: x photons for the rows of :func:`enumerate_outputs`, outputs x max(photons,
#: modes) for an output partition or outcome table, which hold both the rows
#: and the occupations, and inputs x modes for :func:`cyclic_inputs`. Just
#: below the cap, ``qfft evolve --modes 202 --input 1,102`` (20,503 outputs,
#: 4,141,606 occupation entries) peaked at 105-106 MB RSS and took 2.9-4.3 s
#: under each of the three models on a 2-core x86 host.
MAX_OUTCOME_ENTRIES = 1 << 22

FockState = tuple[int, ...]


def qft_matrix(m: int) -> np.ndarray:
    """m x m Fourier matrix, entry (l, q) = exp(2i*pi*l*q/m)/sqrt(m), l,q = 0..m-1."""
    m = check_nonnegative_int(m, "mode count")
    if m < 1:
        raise DomainError(f"mode count must be >= 1, got {m}")
    idx = np.arange(m)
    return np.exp(2j * np.pi * np.outer(idx, idx) / m) / np.sqrt(m)


def check_nonnegative_int(value, what: str) -> int:
    """``value`` as an int if it is a non-negative integer: 2.0 and numpy
    integers pass; 2.5, -1, NaN, booleans and non-numbers raise
    :class:`DomainError` rather than being truncated or read as 0 and 1. The
    rule of every count, size, occupation and mode label that comes from a caller."""
    if type(value) is int and value >= 0:  # most labels, without the slower general test
        return value
    try:
        integral = not isinstance(value, (bool, np.bool_)) and value >= 0 and (
            isinstance(value, numbers.Integral) or float(value).is_integer()
        )
    except (TypeError, ValueError):  # not a number, or not one number
        integral = False
    if not integral:
        raise DomainError(f"{what} {value!r} is not a non-negative integer")
    return int(value)


def check_key(key, what: str, first: str, second: str | None = None) -> tuple[int, int]:
    """``key``, named ``what``, as its two labels, each by :func:`check_nonnegative_int`
    and named ``first`` and ``second`` (default ``first``): an input or output pair, a
    singles key or a (step, mode) phase position. Any other key raises
    :class:`DomainError` naming it as given."""
    try:
        a, b = key
    except (TypeError, ValueError):
        labels = f"a {first} and a {second}" if second else "two modes"
        raise DomainError(f"{what} {key!r} must name {labels}") from None
    if type(a) is int and type(b) is int and a >= 0 and b >= 0:  # most keys, without two calls
        return a, b
    return check_nonnegative_int(a, first), check_nonnegative_int(b, second or first)


def check_pair(pair, m: int) -> tuple[int, int]:
    """``pair`` as two distinct modes below ``m``, read by :func:`check_key`."""
    a, b = check_key(pair, "input pair", "input mode")
    if not (a < m and b < m):
        raise DomainError(f"input pair {(a, b)} out of range for m={m}")
    if a == b:
        raise DomainError("input pair must be collision-free (two distinct modes)")
    return a, b


def file_label(label, what: str) -> int:
    """The 0-based index that ``label``, a 1-based label read from a file, names:
    checked by :func:`check_nonnegative_int` and refused below 1 in the file's words."""
    if type(label) is int and label >= 1:  # most labels, without the call
        return label - 1
    if check_nonnegative_int(label, what) < 1:
        raise DomainError(f"{what} {label!r} is below 1: labels in files are 1-based")
    return int(label) - 1


def file_pair(pair, what: str, label: str) -> tuple[int, int]:
    """The 0-based modes that ``pair``, a pair of 1-based labels read from a file, names:
    read by :func:`check_key`, then each label by :func:`file_label`."""
    a, b = check_key(pair, what, label)
    return file_label(a, label), file_label(b, label)


def file_number(value, what: str) -> float:
    """``value``, a number read from a file and named ``what`` in the file's words, as a
    float: a string, a boolean or any other non-number is refused, not converted."""
    if type(value) is float:  # most values, without the general test
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{what} is not a number: {value!r}")
    return float(value)


def check_state(state) -> FockState:
    """``state`` as an occupation tuple of ints, each checked by :func:`check_nonnegative_int`."""
    return tuple(check_nonnegative_int(occ, "occupation") for occ in state)


def occupied_modes(state) -> list[int]:
    """Occupied mode indices with multiplicity, ascending. (2,0,1) -> [0, 0, 2]."""
    return [k for k, occ in enumerate(check_state(state)) for _ in range(occ)]


def occupation_from_modes(modes, m: int) -> FockState:
    """Occupation tuple over ``m`` modes from a (multiset) list of mode indices."""
    occ = [0] * m
    for k in modes:
        k = check_nonnegative_int(k, "mode index")
        if k >= m:
            raise DomainError(f"mode index {k} out of range for m={m}")
        occ[k] += 1
    return tuple(occ)


def photon_number(state) -> int:
    return sum(check_state(state))


def cyclic_inputs(n: int, p: int) -> list[FockState]:
    """The n^(p-1) collision-free cyclic n-photon inputs on m = n^p modes.

    State s (s = 1..n^(p-1)) occupies the 1-based modes
    ``s + (r-1) * n^(p-1)`` for r = 1..n; the states are mode-index
    translations of one another.
    """
    n, p = check_nonnegative_int(n, "photon number"), check_nonnegative_int(p, "exponent p")
    if n < 2:
        raise DomainError(f"cyclic inputs need n >= 2 photons, got {n}")
    if p < 1:
        raise DomainError(f"exponent p must be >= 1, got {p}")
    # n^(2p - 1) >= 2^(2p - 1): a large p is refused before any power of it is taken
    if 2 * p - 1 > MAX_OUTCOME_ENTRIES.bit_length() or n ** (2 * p - 1) > MAX_OUTCOME_ENTRIES:
        raise CapacityError(
            f"{n}^{p - 1} cyclic inputs of {n} photons on {n}^{p} modes make {n}^{2 * p - 1} "
            f"occupation entries, above the cap {MAX_OUTCOME_ENTRIES}"
        )
    m = n**p
    period = m // n
    states = []
    for s in range(period):
        modes = [s + r * period for r in range(n)]
        states.append(occupation_from_modes(modes, m))
    return states


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


def is_suppressed(output) -> bool:
    """Whether :func:`suppressed` forbids the occupation tuple ``output``, of at least one photon."""
    modes = occupied_modes(output)
    if not modes:
        raise DomainError("photon number must be >= 1, got 0")
    return bool(suppressed(np.array([modes]))[0])


def suppressed(rows: np.ndarray) -> np.ndarray:
    """Which (N, n) occupied-mode rows of n-photon outputs the suppression law
    forbids: those whose multiplicity-weighted sum of 1-based mode labels is
    not divisible by n. That sum is the 0-based sum of a row plus n."""
    return rows.sum(axis=1) % rows.shape[1] != 0


def enumerate_outputs(n: int, m: int) -> np.ndarray:
    """All n-photon outputs on m modes, as an (N, n) array of occupied modes.

    Each row lists one output's occupied modes with multiplicity, ascending;
    the rows are in lexicographic order. More than :data:`MAX_OUTCOME_ENTRIES`
    row entries, N x n, are refused on every call, before any is built. The
    array is shared between calls with the same arguments and is read-only.
    """
    _check_entries(n, m, n, "row")
    return _outputs(n, m)


def _check_entries(n: int, m: int, width: int, what: str) -> None:
    """Refuse n < 1, m < 1 and more than :data:`MAX_OUTCOME_ENTRIES` entries,
    ``width`` per n-photon output on m modes."""
    if n < 1:
        raise DomainError(f"photon number must be >= 1, got {n}")
    if m < 1:
        raise DomainError(f"mode count must be >= 1, got {m}")
    count = output_count(n, m)
    if count * width > MAX_OUTCOME_ENTRIES:
        raise CapacityError(
            f"{count} outputs of {n} photons on {m} modes make {count * width} {what} "
            f"entries, above the cap {MAX_OUTCOME_ENTRIES}"
        )


@functools.lru_cache(maxsize=4)
def _outputs(n: int, m: int) -> np.ndarray:
    count = output_count(n, m)
    combos = combinations_with_replacement(range(m), n)
    modes = np.fromiter(chain.from_iterable(combos), dtype=np.intp, count=count * n)
    modes.flags.writeable = False
    return modes.reshape(count, n)


@functools.lru_cache(maxsize=4)
def _output_set(n: int, m: int) -> OutputPartition:
    rows = _outputs(n, m)
    states = tuple(map(tuple, occupations(rows, m).tolist()))
    mask = suppressed(rows)
    allowed, forbidden = (frozenset(compress(states, keep.tolist())) for keep in (~mask, mask))
    return OutputPartition(states, allowed, forbidden)


def occupations(rows: np.ndarray, m: int) -> np.ndarray:
    """(N, m) occupation counts of the (N, n) occupied-mode rows of :func:`enumerate_outputs`."""
    flat = rows + m * np.arange(len(rows))[:, None]
    return np.bincount(flat.ravel(), minlength=len(rows) * m).reshape(len(rows), m)


def output_count(n: int, m: int) -> int:
    return math.comb(m + n - 1, n)


@dataclass(frozen=True)
class OutputPartition:
    """The n-photon outputs as occupation tuples in :func:`enumerate_outputs`
    order, and the same tuples split into suppressed (forbidden) and allowed sets."""

    outputs: tuple[FockState, ...]
    allowed: frozenset[FockState]
    forbidden: frozenset[FockState]


def partition_outputs(n: int, m: int) -> OutputPartition:
    """All n-photon outputs on m modes, split by :func:`suppressed` at once; the
    tuples that key the tables of :mod:`qfftsim.models`, built once per (n, m) and
    shared. More than :data:`MAX_OUTCOME_ENTRIES` entries, outputs x max(n, m) for
    the rows and the occupations, are refused on every call, before any is built."""
    _check_entries(n, m, max(n, m), "occupation" if m >= n else "row")
    return _output_set(n, m)
