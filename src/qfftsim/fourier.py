"""Discrete Fourier unitaries and the two-photon suppression combinatorics.

Fock states are occupation tuples: ``state[k]`` photons in mode ``k``
(0-based internally). :func:`enumerate_outputs` lists all outputs at once,
as an array of occupied modes. The suppression predicate and the
cyclic-input rule are stated with 1-based mode labels in user-facing
material; conversion happens at the function boundary.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from itertools import chain, combinations_with_replacement, compress

import numpy as np

from .errors import CapacityError, DomainError

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
    integers pass; 2.5, -1, NaN and non-numbers raise :class:`DomainError`
    rather than being truncated. The rule of every count, size, occupation
    and mode label that comes from a caller."""
    try:
        integral = value >= 0 and (isinstance(value, numbers.Integral) or float(value).is_integer())
    except (TypeError, ValueError):  # not a number, or not one number
        integral = False
    if not integral:
        raise DomainError(f"{what} {value!r} is not a non-negative integer")
    return int(value)


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
        if not 0 <= k < m:
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


def is_suppressed(output, n: int) -> bool:
    """Whether :func:`suppressed` forbids the n-photon occupation tuple ``output``."""
    if n < 1:
        raise DomainError(f"photon number must be >= 1, got {n}")
    output = check_state(output)
    total = photon_number(output)
    if total != n:
        raise DomainError(f"output has {total} photons, expected n={n}")
    return bool(suppressed(np.array([occupied_modes(output)]))[0])


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


def _output_states(n: int, m: int) -> tuple[tuple[FockState, ...], OutputPartition]:
    """All n-photon outputs on m modes as occupation tuples, in the order of
    :func:`enumerate_outputs`, and their partition, whose sets hold the same
    tuple objects; both built once per (n, m) and shared.

    More than :data:`MAX_OUTCOME_ENTRIES` entries, outputs x max(n, m) for
    the rows and the occupations, are refused on every call, before either is
    built."""
    _check_entries(n, m, max(n, m), "occupation" if m >= n else "row")
    return _output_set(n, m)


@functools.lru_cache(maxsize=4)
def _output_set(n: int, m: int) -> tuple[tuple[FockState, ...], OutputPartition]:
    rows = _outputs(n, m)
    states = tuple(map(tuple, occupations(rows, m).tolist()))
    mask = suppressed(rows)
    allowed, forbidden = (frozenset(compress(states, keep.tolist())) for keep in (~mask, mask))
    return states, OutputPartition(n, m, allowed, forbidden)


def occupations(rows: np.ndarray, m: int) -> np.ndarray:
    """(N, m) occupation counts of the (N, n) occupied-mode rows of :func:`enumerate_outputs`."""
    flat = rows + m * np.arange(len(rows))[:, None]
    return np.bincount(flat.ravel(), minlength=len(rows) * m).reshape(len(rows), m)


def output_count(n: int, m: int) -> int:
    return math.comb(m + n - 1, n)


def _expansion_plan(n: int, m: int):
    """Yield levels 2..n of an n-factor product expansion over m variables,
    each as it is built: for each distinct mode k of each output T of
    ``enumerate_outputs(r, m)``, k and the rank of T - e_k among the
    (r - 1)-photon outputs, T's last term first (``np.add.reduceat`` adds a
    run's first entry to the sum of the rest, so up to four terms add up in
    position order), and where each T's terms start. Nothing is kept: a
    caller that takes the levels in order holds two at a time.

    Each level follows from the one before, one step per term. Level r lists
    each (r - 1)-photon output P in order, then each c >= last(P), giving
    T = P + e_c: the order of :func:`enumerate_outputs`, in which P's child c
    ranks first_child(P) - last(P) + c. T's first term is (c, rank P). For
    each distinct mode k < c of P, T - e_k is the child c of Q = P - e_k,
    whose rank is the parent of P's term k. These terms are P's terms after
    its first, ascending, then P's first if c > last(P).
    """
    base = np.zeros(1, dtype=np.int64)  # first_child(Q) - last(Q) of the empty output Q
    last = np.arange(m)
    modes, parents, starts, count = last, np.zeros(m, dtype=np.int64), last, np.ones(m, dtype=np.int64)
    for _ in range(n - 1):
        children = m - last
        shift = base[parents]  # rank of T - e_k less c, for each term of P
        base = np.cumsum(children) - children - last
        up = np.repeat(np.arange(len(last)), children)
        c = np.arange(len(up)) - np.repeat(base, children)
        wrap = c > last[up]
        terms = count[up] + wrap
        begin = np.cumsum(terms) - terms
        take = np.arange(terms.sum()) + np.repeat(starts[up] - begin, terms)
        take[(begin + count[up])[wrap]] = starts[up[wrap]]
        modes, parents = modes[take], shift[take] + np.repeat(c, terms)
        modes[begin], parents[begin] = c, up
        last, starts, count = c, begin, terms
        yield modes, parents, starts


@dataclass(frozen=True)
class OutputPartition:
    """Split of the n-photon outputs into suppressed (forbidden) and allowed sets."""

    n: int
    m: int
    allowed: frozenset[FockState]
    forbidden: frozenset[FockState]


def partition_outputs(n: int, m: int) -> OutputPartition:
    """Enumerate all n-photon, m-mode outputs and split them by the rule of
    :func:`suppressed`, applied to all outputs at once.

    :data:`MAX_OUTCOME_ENTRIES` is checked on every call, before any output
    is built; the partition is shared between calls with the same arguments,
    and its sets are frozen and hold the occupation tuples that key the
    outcome tables of :mod:`qfftsim.models`."""
    return _output_states(n, m)[1]
