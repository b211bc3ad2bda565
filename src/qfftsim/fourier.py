"""Discrete Fourier unitaries and the two-photon suppression combinatorics.

Fock states are occupation tuples: ``state[k]`` photons in mode ``k``
(0-based internally). The suppression predicate and the cyclic-input rule are
stated with 1-based mode labels in user-facing material; conversion happens
at the function boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, compress
from typing import Iterator

import numpy as np

from .errors import CapacityError, DomainError

#: Refuse to enumerate more output states than this.
ENUMERATION_CAP = 10**7

FockState = tuple[int, ...]


def qft_matrix(m: int) -> np.ndarray:
    """m x m Fourier matrix, entry (l, q) = exp(2i*pi*l*q/m)/sqrt(m), l,q = 0..m-1."""
    if m < 1:
        raise DomainError(f"mode count must be >= 1, got {m}")
    idx = np.arange(m)
    return np.exp(2j * np.pi * np.outer(idx, idx) / m) / np.sqrt(m)


def occupied_modes(state) -> list[int]:
    """Occupied mode indices with multiplicity, ascending. (2,0,1) -> [0, 0, 2]."""
    modes: list[int] = []
    for k, occ in enumerate(state):
        if occ < 0:
            raise DomainError(f"negative occupation {occ} in mode {k}")
        modes.extend([k] * int(occ))
    return modes


def occupation_from_modes(modes, m: int) -> FockState:
    """Occupation tuple over ``m`` modes from a (multiset) list of mode indices."""
    occ = [0] * m
    for k in modes:
        if not 0 <= k < m:
            raise DomainError(f"mode index {k} out of range for m={m}")
        occ[k] += 1
    return tuple(occ)


def photon_number(state) -> int:
    return int(sum(state))


def cyclic_inputs(n: int, p: int) -> list[FockState]:
    """The n^(p-1) collision-free cyclic n-photon inputs on m = n^p modes.

    State s (s = 1..n^(p-1)) occupies the 1-based modes
    ``s + (r-1) * n^(p-1)`` for r = 1..n; the states are mode-index
    translations of one another.
    """
    if n < 2:
        raise DomainError(f"cyclic inputs need n >= 2 photons, got {n}")
    if p < 1:
        raise DomainError(f"exponent p must be >= 1, got {p}")
    m = n**p
    if m > ENUMERATION_CAP:
        raise CapacityError(f"m = {n}^{p} = {m} exceeds enumeration cap {ENUMERATION_CAP}")
    period = n ** (p - 1)
    states = []
    for s in range(period):
        modes = [s + r * period for r in range(n)]
        states.append(occupation_from_modes(modes, m))
    return states


def is_suppressed(output, n: int) -> bool:
    """True iff the multiplicity-weighted sum of 1-based occupied mode labels
    of ``output`` is not divisible by the photon number ``n``."""
    total = photon_number(output)
    if total != n:
        raise DomainError(f"output has {total} photons, expected n={n}")
    label_sum = sum((k + 1) * int(occ) for k, occ in enumerate(output))
    return label_sum % n != 0


def enumerate_outputs(n: int, m: int, collision_free_only: bool = False) -> Iterator[FockState]:
    """All n-photon outputs on m modes in lexicographic occupied-mode order."""
    if collision_free_only:
        combos = combinations(range(m), n)
    else:
        combos = combinations_with_replacement(range(m), n)
    for modes in combos:
        yield occupation_from_modes(modes, m)


def output_count(n: int, m: int, collision_free_only: bool = False) -> int:
    if collision_free_only:
        return math.comb(m, n)
    return math.comb(m + n - 1, n)


@dataclass(frozen=True)
class OutputPartition:
    """Split of the n-photon outputs into suppressed (forbidden) and allowed sets."""

    n: int
    m: int
    collision_free_only: bool
    allowed: frozenset[FockState]
    forbidden: frozenset[FockState]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "collision_free_only": self.collision_free_only,
            "allowed": [list(s) for s in sorted(self.allowed)],
            "forbidden": [list(s) for s in sorted(self.forbidden)],
        }


def partition_outputs(
    n: int,
    m: int,
    collision_free_only: bool = False,
) -> OutputPartition:
    """Enumerate the n-photon, m-mode outputs and split them by the rule of
    :func:`is_suppressed`, applied to all outputs at once."""
    if n < 1:
        raise DomainError(f"photon number must be >= 1, got {n}")
    if m < 1:
        raise DomainError(f"mode count must be >= 1, got {m}")
    count = output_count(n, m, collision_free_only)
    if count > ENUMERATION_CAP:
        raise CapacityError(f"{count} output states exceed enumeration cap {ENUMERATION_CAP}")
    states = list(enumerate_outputs(n, m, collision_free_only))
    occ = np.array(states, dtype=np.intp).reshape(len(states), m)
    forbidden = frozenset(compress(states, (occ @ np.arange(1, m + 1)) % n != 0))
    return OutputPartition(
        n=n,
        m=m,
        collision_free_only=collision_free_only,
        allowed=frozenset(states) - forbidden,
        forbidden=forbidden,
    )


def partition_from_json(obj) -> OutputPartition:
    return OutputPartition(
        n=int(obj["n"]),
        m=int(obj["m"]),
        collision_free_only=bool(obj.get("collision_free_only", False)),
        allowed=frozenset(tuple(int(x) for x in s) for s in obj["allowed"]),
        forbidden=frozenset(tuple(int(x) for x in s) for s in obj["forbidden"]),
    )
