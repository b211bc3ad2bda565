"""Suppression-law certification from coincidence-counting data.

Given coincidence counts versus relative delay, this module computes HOM
visibilities, the violation curve and the hypothesis test against the
distinguishable-particle and mean-field reference values D = 0.5 and
D = 0.25. :func:`violation_curve` is the one place counts become a violation
degree D (the classical-probability-weighted count ratio summed over the
forbidden output pairs) and its Poissonian Monte Carlo error bar. It holds
the counts as one table of delays by forbidden output pairs, plus a row of
reference counts. The Monte Carlo redraws only the reference row, from one
generator, in blocks of trials; the Poisson spread of the delay rows enters
through its exact conditional mean and variance (Rao-Blackwellisation). Every
row shares those trials, so one row (the zero-delay point of a certification)
can be evaluated alone and gives exactly its value in the full curve.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError, UndefinedVisibilityError
from .models import two_photon_probabilities

#: Reference violation degrees for two-photon inputs.
D_DISTINGUISHABLE = 0.5
D_MEAN_FIELD = 0.25

RULES_OUT_NEITHER = "rules_out_neither"
RULES_OUT_DISTINGUISHABLE = "rules_out_distinguishable"
RULES_OUT_BOTH = "rules_out_both"

DEFAULT_TRIALS = 3000

#: Standard deviations below a reference value that reject its hypothesis.
DEFAULT_THRESHOLD_SIGMAS = 3.0

#: Largest Poisson mean accepted anywhere; numpy's sampler refuses means near 2^63.
MAX_EXPECTED_COUNTS = 1e18

#: Most Monte Carlo trials accepted. A violation curve holds the weights of
#: every kept trial, 8 x trials x pairs bytes, plus a few trial-length
#: vectors per row: 128 MB for the 16 forbidden pairs of 8 modes at the cap.
MAX_TRIALS = 10**6

#: Poisson draws per Monte Carlo block of reference redraws. The generator
#: draws in C order, so results do not depend on it; it only bounds the
#: memory of the draws.
MC_BLOCK_ENTRIES = 2**16

#: Coincidence CSV records converted at a time. Only one block's text is held
#: at once, which bounds the reader's memory on a large file; results do not
#: depend on it.
CSV_BLOCK_RECORDS = 2**14


@dataclass(frozen=True, eq=False)
class CoincidenceTable:
    """Coincidence counts of one input pair, one per (delay, output pair) cell.

    ``delays`` ascend without repeats, ``pairs`` are ascending 0-based
    (i, j), i <= j, and ``counts[k, p]`` is the int64 count of ``pairs[p]``
    at ``delays[k]``.
    """

    input: tuple[int, int]
    delays: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    counts: np.ndarray

    @classmethod
    def from_cells(cls, input_pair, delta_x, output, counts, pairs) -> CoincidenceTable:
        """The table of the ascending output ``pairs`` from one count per row:
        ``counts[r]`` of pair ``output[r]`` at ``delta_x[r]``.

        Rows of other pairs are left out. Each cell needs exactly one row and
        a count in [0, ``MAX_EXPECTED_COUNTS``], checked before it becomes an
        int64; the first row at fault is named.
        """
        output = np.asarray(output, dtype=np.int64).reshape(-1, 2)
        pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        # (i, j) as i * width + j keeps the order of the pairs
        width = np.array([max(output.max(initial=0), pairs.max(initial=0)) + 1, 1])
        keep = np.isin(output @ width, pairs @ width)
        col = np.searchsorted(pairs @ width, output[keep] @ width)
        delta_x = np.asarray(delta_x, dtype=float)[keep]
        # return_index sorts stably: of equal delays (0.0 and -0.0) the first row's is kept
        delays, _, row = np.unique(delta_x, return_index=True, return_inverse=True)
        counts = np.asarray(counts, dtype=object)[keep]
        pairs = list(map(tuple, pairs.tolist()))
        cell = row * len(pairs) + col
        repeats = np.setdiff1d(np.arange(len(cell)), np.unique(cell, return_index=True)[1], assume_unique=True)
        outside = np.flatnonzero((counts < 0) | (counts > int(MAX_EXPECTED_COUNTS)))
        faulty = np.union1d(repeats[:1], outside[:1])
        if faulty.size:
            k = faulty[0]
            where = f"delay {delta_x[k]} and output pair {pairs[col[k]]}"
            if k in repeats:
                raise DomainError(f"duplicate counts for {where}")
            if counts[k] < 0:
                raise DomainError(f"counts must be non-negative, got {counts[k]}")
            raise DomainError(
                f"counts {counts[k]} at {where} exceed the Poisson sampler's limit {MAX_EXPECTED_COUNTS:g}"
            )
        table = np.full((len(delays), len(pairs)), -1, dtype=np.int64)
        table.flat[cell] = counts
        if np.any(table < 0):
            holes = [(float(delays[k]), pairs[p]) for k, p in np.argwhere(table < 0)[:5]]
            raise DomainError(f"missing counts for (delay, pair) combinations {holes}")
        return cls(tuple(input_pair), delays, tuple(pairs), table)


@dataclass(frozen=True)
class ViolationReport:
    """Violation degree with uncertainty and the two hypothesis rejections."""

    d_obs: float
    sigma: float
    sigmas_vs_distinguishable: float
    sigmas_vs_mean_field: float
    verdict: str
    d_distinguishable: float = D_DISTINGUISHABLE
    d_mean_field: float = D_MEAN_FIELD

    def to_json(self, pc_source: str | None = None, **extra) -> dict:
        obj = {
            "d_obs": self.d_obs,
            "sigma": self.sigma,
            "d_distinguishable": self.d_distinguishable,
            "d_mean_field": self.d_mean_field,
            "sigmas_vs_distinguishable": self.sigmas_vs_distinguishable,
            "sigmas_vs_mean_field": self.sigmas_vs_mean_field,
            "verdict": self.verdict,
        }
        if pc_source is not None:
            obj["pc_source"] = pc_source
        obj.update(extra)
        return obj


def visibility(c: float, q: float) -> float:
    """HOM visibility (c - q) / c from distinguishable and indistinguishable counts."""
    if c <= 0:
        raise UndefinedVisibilityError(f"visibility undefined for reference counts c={c}")
    return (c - q) / c


def classical_pair_probabilities(u, input_pair, pairs) -> dict[tuple[int, int], float]:
    """Distinguishable-particle probability of each requested output pair."""
    _, pc = two_photon_probabilities(u, input_pair)
    return {(i, j): float(pc[i, j]) for (i, j) in pairs}


def violation_curve(
    table: CoincidenceTable,
    pc,
    n_d=None,
    *,
    trials: int = DEFAULT_TRIALS,
    seed=None,
    at=None,
) -> list[tuple[float, float, float]]:
    """Observed violation degree versus delay, with Monte Carlo error bars.

    ``D(dx) = sum over forbidden pairs of pc * N(dx) / N_ref``, from the
    table's columns of the pairs in ``pc``, which it must all hold. The
    reference counts default to the plateau rule: the mean of the counts at
    the two delays of largest magnitude (the single delay, if only one was
    measured), a tie in magnitude going to the negative delay. Explicit
    ``n_d`` values are treated as measured counts like the rest. Returns
    ``(delta_x, d_obs, sigma)`` triples sorted by delay, or only the triple
    of delay ``at``, which must be one of the measured delays.

    ``sigma`` is the spread of D when every count is redrawn from a Poisson
    distribution about its measured value. Only the reference counts are
    redrawn: ``trials`` times, from one generator seeded by ``seed``. Given
    trial t's weights ``c_t = pc / R_t``, a row's numerator has the exact
    Poisson mean ``mu_t = sum c_t N`` and variance ``v_t = sum c_t**2 N``,
    so by the law of total variance ``sigma**2 = mean(v_t) + var(mu_t)``
    (``ddof=1``) over the trials. A trial that draws a zero reference count
    for any pair drops out; at least two must remain. Every row is computed
    from the same trials by the same arithmetic, so ``at`` gives exactly
    that row of the full curve.
    """
    if not 2 <= trials <= MAX_TRIALS:
        raise DomainError(f"trials must be in [2, {MAX_TRIALS}], got {trials}")
    pairs = sorted(pc)
    column = {pair: p for p, pair in enumerate(table.pairs)}
    if not len(table.delays) or not any(pair in column for pair in pairs):
        raise DomainError("no records for any forbidden output pair")
    delays = table.delays.tolist()
    if at is not None and at not in delays:
        raise DomainError(f"no records at delay {at}")
    holes = [(dx, pair) for dx in delays for pair in pairs if pair not in column]
    if holes:
        raise DomainError(f"missing counts for (delay, pair) combinations {holes[:5]}")
    repeats = np.flatnonzero(np.diff(table.delays) == 0)
    if repeats.size:
        raise DomainError(f"duplicate counts for delay {delays[repeats[0] + 1]} and output pair {pairs[0]}")
    # the last row holds the reference counts
    lam = np.empty((len(delays) + 1, len(pairs)))
    lam[:-1] = table.counts[:, [column[pair] for pair in pairs]]

    if n_d is None:
        extremes = sorted(range(len(delays)), key=lambda i: (-abs(delays[i]), delays[i]))[:2]
        lam[-1] = lam[extremes].mean(axis=0)
    else:
        missing = [pair for pair in pairs if pair not in n_d]
        if missing:
            raise DomainError(f"missing reference counts for pairs {missing}")
        lam[-1] = [float(n_d[pair]) for pair in pairs]
    bad = [pair for pair, ref in zip(pairs, lam[-1]) if not ref > 0]
    if bad:
        raise DomainError(f"reference counts must be positive, not for pairs {bad}")
    if not np.all(lam[-1] <= MAX_EXPECTED_COUNTS):
        raise DomainError(f"reference counts exceed the Poisson sampler's limit {MAX_EXPECTED_COUNTS:g}")

    weights = np.array([pc[pair] for pair in pairs])
    d_obs = lam[:-1] @ (weights / lam[-1])
    # pack the reference redraws of the trials whose draws are all non-zero, in
    # trial order, then turn them into the weights c_t = pc / R_t
    rng = np.random.default_rng(seed)
    block = max(1, MC_BLOCK_ENTRIES // len(pairs))
    c = np.empty((trials, len(pairs)))
    kept = 0
    for t in range(0, trials, block):
        draws = rng.poisson(lam[-1], size=(min(block, trials - t), len(pairs)))
        draws = draws[np.all(draws > 0, axis=1)]
        c[kept : kept + len(draws)] = draws
        kept += len(draws)
    if kept < 2:
        raise DomainError(
            f"only {kept} of {trials} Monte Carlo trials drew a non-zero reference count for "
            "every pair; the error bar needs two"
        )
    c = np.divide(weights, c[:kept], out=c[:kept])
    mean_c2 = np.einsum("tj,tj->j", c, c) / kept
    curve = []
    for k in range(len(delays)) if at is None else [delays.index(at)]:
        mu = c @ lam[k]
        sigma = math.sqrt(lam[k] @ mean_c2 + mu.var(ddof=1))
        curve.append((float(delays[k]), float(d_obs[k]), sigma))
    return curve


def certify(d_obs: float, sigma: float, threshold_sigmas: float = DEFAULT_THRESHOLD_SIGMAS) -> ViolationReport:
    """Hypothesis test of the observed violation degree against both references.

    The distinguishable (mean-field) hypothesis is rejected when the observed
    value lies more than ``threshold_sigmas`` standard deviations *below* the
    reference 0.5 (0.25).
    """
    if not math.isfinite(d_obs):
        raise DomainError(f"d_obs must be finite, got {d_obs}")
    if not 0 < sigma < math.inf:
        raise DomainError(f"sigma must be positive and finite, got {sigma}")
    if not 0 < threshold_sigmas < math.inf:
        raise DomainError(f"threshold must be positive and finite, got {threshold_sigmas}")
    s_dist = (D_DISTINGUISHABLE - d_obs) / sigma
    s_mf = (D_MEAN_FIELD - d_obs) / sigma
    if s_dist >= threshold_sigmas and s_mf >= threshold_sigmas:
        verdict = RULES_OUT_BOTH
    elif s_dist >= threshold_sigmas:
        verdict = RULES_OUT_DISTINGUISHABLE
    else:
        verdict = RULES_OUT_NEITHER
    return ViolationReport(
        d_obs=float(d_obs),
        sigma=float(sigma),
        sigmas_vs_distinguishable=float(s_dist),
        sigmas_vs_mean_field=float(s_mf),
        verdict=verdict,
    )


CSV_COLUMNS = ("input_i", "input_j", "output_i", "output_j", "delta_x_um", "counts")


def write_coincidence_csv(table: CoincidenceTable, stream) -> None:
    """Write a table with 1-based mode labels and a header row, one record per
    cell in (delay, pair) order."""
    a, b = (k + 1 for k in table.input)
    heads = [f"{a},{b},{i + 1},{j + 1}," for i, j in table.pairs]
    rows = [head + dx for dx in map("{!r},".format, table.delays.tolist()) for head in heads]
    counts = map(str, table.counts.ravel().tolist())
    stream.write("\n".join([",".join(CSV_COLUMNS), *map(str.__add__, rows, counts)]) + "\n")


def _int_array(values) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def read_coincidence_csv(stream, source: str = "<csv>"):
    """Parse a coincidence CSV (1-based mode labels), column by column.

    Returns the records in file order as four columns: (N, 2) 0-based input
    and output pairs, each ascending, delays and counts; an integer column
    with a value beyond int64 holds Python ints. Blank lines are skipped. The
    first malformed record raises :class:`ParseError` naming its line and
    first fault: field count, then each field's syntax, a finite delay,
    1-based labels and non-negative counts. Records are converted
    ``CSV_BLOCK_RECORDS`` at a time, so only one block's text is held.
    """
    reader = csv.reader(stream)
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise ParseError(f"{source}:{reader.line_num}: {exc}") from None
    if header is None:
        raise ParseError(f"{source}: empty file, expected header {','.join(CSV_COLUMNS)}")
    if [h.strip() for h in header] != list(CSV_COLUMNS):
        raise ParseError(f"{source}:1: expected header {','.join(CSV_COLUMNS)}, got {','.join(header)}")
    blocks = []
    for first in itertools.count(2, CSV_BLOCK_RECORDS):  # file line of the block's first record
        rows, broken = [], None
        try:
            # appends as it reads: the records before a csv.Error stay
            rows.extend(itertools.islice(reader, CSV_BLOCK_RECORDS))
        except csv.Error as exc:  # raised after the faults of the records before it
            broken = ParseError(f"{source}:{reader.line_num}: {exc}")
        blocks.append(_convert_block(rows, range(first, first + len(rows)), source))
        if broken:
            raise broken
        if len(rows) < CSV_BLOCK_RECORDS:
            break
    *labels, delta_x, counts = map(np.concatenate, zip(*blocks))
    # mode pairs are unordered; store them ascending
    inputs, outputs = (np.sort(np.stack(labels[k : k + 2], axis=1), axis=1) - 1 for k in (0, 2))
    return inputs, outputs, delta_x, counts


def _convert_block(rows, lines, source: str) -> list[np.ndarray]:
    """The six columns of one block of records; the block's first fault raises :class:`ParseError`."""
    if not all(rows):
        lines = [line for line, row in zip(lines, rows) if row]
        rows = list(filter(None, rows))
    faults = []  # (row, rank within the row, message); the first is raised
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    wrong = np.flatnonzero(lengths != len(CSV_COLUMNS))
    if wrong.size:
        faults.append((wrong[0], -1, f"expected {len(CSV_COLUMNS)} fields, got {lengths[wrong[0]]}"))
        rows = rows[: wrong[0]]
    columns = []
    # each column's text is dropped once converted, which bounds the peak memory
    texts, rows = list(zip(*rows)) or [()] * len(CSV_COLUMNS), None
    for rank, name in enumerate(CSV_COLUMNS):
        cells, texts[rank] = texts[rank], None
        kind = float if name == "delta_x_um" else int
        try:
            values = list(map(kind, cells))
        except ValueError:  # keep the values before the first refused cell
            values = []
            for cell in cells:
                try:
                    values.append(kind(cell))
                except ValueError:
                    faults.append((len(values), rank, f"field {name!r} has invalid value {cell!r}"))
                    break
        if kind is int:
            columns.append(_int_array(values))
            continue
        columns.append(np.array(values, dtype=float))
        bad = np.flatnonzero(~np.isfinite(columns[-1]))
        if bad.size:
            faults.append((bad[0], 6, f"field 'delta_x_um' must be finite, got {cells[bad[0]]!r}"))
    for rank, (name, column) in enumerate(zip(CSV_COLUMNS, columns[:4]), start=7):
        bad = np.flatnonzero(column < 1)
        if bad.size:
            faults.append((bad[0], rank, f"field {name!r} must be a 1-based mode label"))
    bad = np.flatnonzero(columns[5] < 0)
    if bad.size:
        faults.append((bad[0], 11, "field 'counts' must be non-negative"))
    if faults:
        k, _, message = min(faults)
        raise ParseError(f"{source}:{lines[k]}: {message}")
    return columns
