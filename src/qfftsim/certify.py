"""Suppression-law certification from coincidence-counting data.

Given coincidence counts versus relative delay, this module computes HOM
visibilities, the violation curve and the hypothesis test against the
distinguishable-particle and mean-field reference values D = 0.5 and
D = 0.25. :func:`violation_curve` is the one place counts become a violation
degree D (the classical-probability-weighted count ratio summed over the
forbidden output pairs) and its Poissonian error bar. It holds the counts as
one table of delays by forbidden output pairs, plus a row of reference
counts. The error bar is the exact spread of D when every count is redrawn
from a Poisson distribution about its measured value, the reference counts
conditioned on being non-zero: it needs only the first two moments of the
inverse of a zero-truncated Poisson count (:func:`inverse_moments`), so it
is deterministic and draws nothing.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError, UndefinedVisibilityError
from .fourier import check_key, enumerate_outputs, suppressed
from .models import two_photon_probabilities

#: Reference violation degrees for two-photon inputs.
D_DISTINGUISHABLE = 0.5
D_MEAN_FIELD = 0.25

RULES_OUT_NEITHER = "rules_out_neither"
RULES_OUT_DISTINGUISHABLE = "rules_out_distinguishable"
RULES_OUT_BOTH = "rules_out_both"

#: Standard deviations below a reference value that reject its hypothesis.
DEFAULT_THRESHOLD_SIGMAS = 3.0

#: Largest Poisson mean accepted anywhere; numpy's sampler refuses means near 2^63.
MAX_EXPECTED_COUNTS = 1e18

#: Poisson mean from which :func:`inverse_moments` uses its asymptotic series
#: instead of a sum over the pmf. There the series' first omitted terms are
#: ~1e-20 (mean) and ~1e-15 (variance) relative, and the pmf sum would need
#: ~800 terms per mean.
SERIES_FROM = 1e3

#: Coefficients of the asymptotic series in x = 1/lambda, highest power first:
#: E[1/R] = x (1 + x + 2 x^2 + ... + 7! x^7) and Var(1/R) = x^3 (1 + 6 x + ...
#: + 97296 x^6). The variance's coefficients are those of E[1/R^2] (the
#: unsigned Stirling numbers |s(k + 2, 2)|) minus those of E[1/R]^2, taken
#: exactly, so the series never subtracts two close floats.
_MEAN_SERIES = (5040.0, 720.0, 120.0, 24.0, 6.0, 2.0, 1.0, 1.0)
_VARIANCE_SERIES = (97296.0, 11256.0, 1452.0, 210.0, 34.0, 6.0, 1.0)


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

        Rows of other pairs are left out. Each output and pair is read by
        :func:`~qfftsim.fourier.check_key`, and ``pairs`` must ascend strictly.
        Each cell needs exactly one row and a count in [0, ``MAX_EXPECTED_COUNTS``],
        checked before it becomes an int64; the first row or pair at fault is named.
        """
        # a CSV reader's (N, 2) int64 array of non-negative labels is taken as it is
        if not (isinstance(output, np.ndarray) and output.dtype == np.int64 and output.shape[1:] == (2,)
                and output.min(initial=0) >= 0):
            output = np.fromiter((check_key(row, "output", "output mode") for row in output), dtype=(np.int64, 2))
        pairs = np.fromiter((check_key(pair, "output pair", "output mode") for pair in pairs), dtype=(np.int64, 2))
        delta_x = np.asarray(delta_x, dtype=float)
        # an int64 column is checked as it is; anything else, such as a
        # reader's column of Python ints beyond int64, as Python objects
        if not (isinstance(counts, np.ndarray) and counts.dtype == np.int64):
            counts = np.asarray(counts, dtype=object)
        if not len(delta_x) == len(output) == len(counts):
            raise DomainError(f"delta_x, output and counts have {len(delta_x)}, {len(output)} and {len(counts)} rows")
        # (i, j) as i * width + j keeps the order of the pairs
        width = np.array([max(output.max(initial=0), pairs.max(initial=0)) + 1, 1])
        faulty = np.flatnonzero((pairs[:, 0] > pairs[:, 1]) | np.append(False, np.diff(pairs @ width) <= 0))
        if faulty.size:
            (i, j), before = pairs[faulty[0]].tolist(), tuple(pairs[faulty[0] - 1].tolist())
            order = "must have i <= j" if i > j else f"must ascend strictly from {before}"
            raise DomainError(f"output pair {(i, j)} {order}")
        keep = np.isin(output @ width, pairs @ width)
        col = np.searchsorted(pairs @ width, output[keep] @ width)
        delta_x = delta_x[keep]
        # return_index sorts stably: of equal delays (0.0 and -0.0) the first row's is kept
        delays, _, row = np.unique(delta_x, return_index=True, return_inverse=True)
        counts = counts[keep]
        pairs = list(map(tuple, pairs.tolist()))
        cell = row * len(pairs) + col
        repeat = np.ones(len(cell), dtype=bool)
        repeat[np.unique(cell, return_index=True)[1]] = False
        faulty = np.flatnonzero(repeat | (counts < 0) | (counts > int(MAX_EXPECTED_COUNTS)))
        if faulty.size:
            k = faulty[0]
            where = f"delay {delta_x[k]} and output pair {pairs[col[k]]}"
            if repeat[k]:
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

    def to_json(self) -> dict:
        """The report's fields; no provenance."""
        return {
            "d_obs": self.d_obs,
            "sigma": self.sigma,
            "d_distinguishable": self.d_distinguishable,
            "d_mean_field": self.d_mean_field,
            "sigmas_vs_distinguishable": self.sigmas_vs_distinguishable,
            "sigmas_vs_mean_field": self.sigmas_vs_mean_field,
            "verdict": self.verdict,
        }


def visibility(c: float, q: float) -> float:
    """HOM visibility (c - q) / c from distinguishable and indistinguishable counts."""
    if c <= 0:
        raise UndefinedVisibilityError(f"visibility undefined for reference counts c={c}")
    return (c - q) / c


def classical_pair_probabilities(u, input_pair) -> dict[tuple[int, int], float]:
    """Distinguishable-particle probability of each forbidden output pair
    (i, j), ascending: the pairs :func:`suppressed` forbids, all collision-free,
    as no bunched pair (k, k) is forbidden (2k is even). The entry cap of
    :func:`enumerate_outputs` refuses before any probability is built."""
    rows = enumerate_outputs(2, len(u))
    _, pc = two_photon_probabilities(u, input_pair)
    return {(i, j): float(pc[i, j]) for i, j in rows[suppressed(rows)].tolist()}


def inverse_moments(lam) -> tuple[np.ndarray, np.ndarray]:
    """``(E[1/R], Var(1/R))`` of a zero-truncated Poisson count R of each mean in ``lam``.

    Means below ``SERIES_FROM`` sum the pmf over ``floor(lam)`` +- 12
    sqrt(lam) + 30 counts, which leaves out less than 1e-30 of the mass. The
    log-pmf is a cumulative sum of log(lam / r) outward from ``floor(lam)``,
    so no term loses digits to a large log-factorial, and the variance is
    the centred sum. From ``SERIES_FROM`` on, both come from their
    asymptotic series in 1/lam (see ``_VARIANCE_SERIES``), which leave out
    the zero truncation, a change below e^-1000. The variance is never
    E[1/R^2] - E[1/R]^2, which would lose ~log10(lam) digits.
    """
    lam = np.asarray(lam, dtype=float)
    mean, var = np.empty_like(lam), np.empty_like(lam)
    big = lam >= SERIES_FROM
    x = 1.0 / lam[big]
    mean[big] = x * np.polyval(_MEAN_SERIES, x)
    var[big] = x**3 * np.polyval(_VARIANCE_SERIES, x)
    small = lam[~big]
    if small.size:
        half = int(12 * math.sqrt(small.max())) + 30
        r = np.maximum(np.floor(small), 1.0)[:, None] + np.arange(-half, half + 1)
        step = np.log(small[:, None] / np.maximum(r, 1.0))  # log p(r) - log p(r - 1)
        log_p = np.zeros_like(r)
        log_p[:, half + 1 :] = np.cumsum(step[:, half + 1 :], axis=1)
        log_p[:, :half] = -np.cumsum(step[:, half:0:-1], axis=1)[:, ::-1]
        log_p[r < 1] = -np.inf
        p = np.exp(log_p)
        p /= p.sum(axis=1, keepdims=True)
        inverse = 1.0 / np.maximum(r, 1.0)
        mean[~big] = np.einsum("jr,jr->j", p, inverse)
        inverse -= mean[~big, None]
        var[~big] = np.einsum("jr,jr->j", p, inverse * inverse)
    return mean, var


def violation_curve(table: CoincidenceTable, pc, *, trials: int = 0) -> list[tuple[float, float, float]]:
    """Observed violation degree versus delay, with exact Poisson error bars.

    ``D(dx) = sum over forbidden pairs of pc * N(dx) / N_ref``, from the
    table's columns of the pairs in ``pc``, which it must all hold. The
    reference counts N_ref follow the plateau rule: the mean of the counts
    at the two delays of largest magnitude (the single delay, if only one
    was measured), a tie in magnitude going to the negative delay. Each
    must be positive and at most ``MAX_EXPECTED_COUNTS``. Returns
    ``(delta_x, d_obs, sigma)`` triples sorted by delay.

    ``sigma`` is the spread of D when every count is redrawn from a Poisson
    distribution about its measured value, each reference count R_j
    conditioned on R_j > 0. The draws are independent, so with
    ``a_j = E[1/R_j]`` and ``v_j = Var(1/R_j)`` (:func:`inverse_moments`)
    the law of total variance gives
    ``sigma**2 = sum_j pc_j**2 (N_j (a_j**2 + v_j) + N_j**2 v_j)`` for a row
    of counts N. ``trials`` is deprecated and ignored: nothing is drawn.
    """
    pairs = sorted(pc)
    columns = list(map({pair: p for p, pair in enumerate(table.pairs)}.get, pairs))
    if not len(table.delays) or all(col is None for col in columns):
        raise DomainError("no records for any forbidden output pair")
    delays = table.delays.tolist()
    if None in columns:
        holes = [(dx, pair) for dx in delays for pair, col in zip(pairs, columns) if col is None]
        raise DomainError(f"missing counts for (delay, pair) combinations {holes[:5]}")
    repeats = np.flatnonzero(np.diff(table.delays) == 0)
    if repeats.size:
        raise DomainError(f"duplicate counts for delay {delays[repeats[0] + 1]} and output pair {pairs[0]}")
    # the last row holds the reference counts
    lam = np.empty((len(delays) + 1, len(pairs)))
    lam[:-1] = table.counts[:, columns]
    extremes = sorted(range(len(delays)), key=lambda i: (-abs(delays[i]), delays[i]))[:2]
    lam[-1] = lam[extremes].mean(axis=0)
    bad = [pair for pair, ref in zip(pairs, lam[-1]) if not ref > 0]
    if bad:
        raise DomainError(f"reference counts must be positive, not for pairs {bad}")
    if not np.all(lam[-1] <= MAX_EXPECTED_COUNTS):
        raise DomainError(f"reference counts exceed the Poisson sampler's limit {MAX_EXPECTED_COUNTS:g}")

    weights = np.array([pc[pair] for pair in pairs])
    d_obs = lam[:-1] @ (weights / lam[-1])
    a, v = inverse_moments(lam[-1])
    w2 = weights * weights
    sigma = np.sqrt(lam[:-1] @ (w2 * (a * a + v)) + (lam[:-1] * lam[:-1]) @ (w2 * v))
    return list(zip(delays, d_obs.tolist(), sigma.tolist()))


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
    cell in (delay, pair) order: one ``write`` per delay."""
    a, b = (k + 1 for k in table.input)
    heads = [f"{a},{b},{i + 1},{j + 1}," for i, j in table.pairs]
    stream.write(",".join(CSV_COLUMNS) + "\n")
    for dx, counts in zip(map("{!r},".format, table.delays.tolist()), table.counts):
        stream.write("".join([f"{head}{dx}{n}\n" for head, n in zip(heads, counts.tolist())]))


def read_coincidence_csv(stream, source: str = "<csv>"):
    """Parse a coincidence CSV (1-based mode labels) from a seekable text stream.

    Returns the records in file order as four columns: (N, 2) 0-based input
    and output pairs, each ascending, delays and counts; an integer column
    with a value beyond int64 holds Python ints. Blank lines are skipped.

    A file of plain records, such as ``qfft simulate`` writes (see
    :func:`_read_plain`), is read in one ``np.loadtxt`` pass. Any other file
    is read again from the stream's starting position by :func:`_read_rows`,
    which alone names faults: the first malformed record raises
    :class:`ParseError` naming its line and first fault: field count, then
    each field's syntax, a finite delay, 1-based labels and non-negative
    counts.
    """
    start = stream.tell()
    columns = _read_plain(stream)
    if columns is None:
        stream.seek(start)
        columns = _read_rows(stream, source)
    *labels, delta_x, counts = columns
    # mode pairs are unordered; store them ascending
    inputs, outputs = (
        np.stack([np.minimum(i, j), np.maximum(i, j)], axis=1) - 1 for i, j in (labels[:2], labels[2:])
    )
    return inputs, outputs, delta_x, counts


#: Characters of the records that :func:`_read_plain` reads; on them
#: ``np.loadtxt`` and ``int()``/``float()`` agree on every cell. Outside them
#: they differ: numpy 2.4 strips \x1c-\x1f as whitespace, reads many
#: non-ASCII letters as digits and crashes on U+10FFFF.
_PLAIN = b"0123456789+-.eE ,\n"

_RECORD = np.dtype([(name, float if name == "delta_x_um" else np.int64) for name in CSV_COLUMNS])


def _read_plain(stream) -> list[np.ndarray] | None:
    """The six columns of a file of plain records, else ``None``.

    Plain records follow a header of the bare column names and have at least
    one record, only ``_PLAIN`` characters, no line longer than
    ``csv.field_size_limit()``, six fields that ``np.loadtxt`` converts, finite
    delays, 1-based labels and non-negative counts. :func:`_read_rows` reads
    such a file to the same values.
    """
    if [h.strip(" ") for h in stream.readline().removesuffix("\n").split(",")] != list(CSV_COLUMNS):
        return None
    body = stream.tell()
    if not _plain_lines(stream):
        return None
    stream.seek(body)
    try:
        records = np.loadtxt(stream, dtype=_RECORD, delimiter=",", comments=None, quotechar=None, ndmin=1)
    except ValueError:
        return None
    columns = [records[name] for name in CSV_COLUMNS]
    if not (
        np.isfinite(columns[4]).all()
        and min(column.min() for column in columns[:4]) >= 1
        and columns[5].min() >= 0
    ):
        return None
    # copies, so that the record array is freed once the pairs are built
    return columns[:4] + [column.copy() for column in columns[4:]]


def _plain_lines(stream) -> bool:
    """Whether the rest of ``stream`` holds a record, only ``_PLAIN``
    characters and no line longer than ``csv.field_size_limit()``."""
    limit = csv.field_size_limit()
    run, seen = 0, False  # length of the line open at a chunk's start; a non-blank line seen
    # a line within one chunk is shorter than the limit; only lines across chunks are counted
    while chunk := stream.read(limit):
        first = chunk.find("\n")
        run += len(chunk) if first < 0 else first
        if run > limit or not chunk.isascii() or chunk.encode().translate(None, _PLAIN):
            return False
        seen = seen or not chunk.isspace()
        if first >= 0:
            run = len(chunk) - chunk.rfind("\n") - 1
    return seen


def _read_rows(stream, source: str) -> list[np.ndarray]:
    """The six columns of any coincidence CSV, converted and checked one record
    at a time; the first fault raises :class:`ParseError`, naming the record's
    position counted from the header or, for a :class:`csv.Error`, the reader's
    line. Values go straight into typed arrays, no Python object per record; an
    integer column becomes a list of Python ints at its first value beyond int64.
    """
    from array import array  # here, not at the top: a process that loads it peaks ~0.3 MB higher

    reader = csv.reader(stream)
    columns = [array("q"), array("q"), array("q"), array("q"), array("d"), array("q")]
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{source}: empty file, expected header {','.join(CSV_COLUMNS)}")
        if [h.strip() for h in header] != list(CSV_COLUMNS):
            raise ParseError(f"{source}:1: expected header {','.join(CSV_COLUMNS)}, got {','.join(header)}")
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_COLUMNS):
                raise ParseError(f"{source}:{line}: expected {len(CSV_COLUMNS)} fields, got {len(row)}")
            try:
                values = (int(row[0]), int(row[1]), int(row[2]), int(row[3]), float(row[4]), int(row[5]))
            except ValueError:
                for name, cell in zip(CSV_COLUMNS, row):
                    try:
                        float(cell) if name == "delta_x_um" else int(cell)
                    except ValueError:
                        raise ParseError(f"{source}:{line}: field {name!r} has invalid value {cell!r}") from None
            if not math.isfinite(values[4]):
                raise ParseError(f"{source}:{line}: field 'delta_x_um' must be finite, got {row[4]!r}")
            if min(values[:4]) < 1:
                name = next(name for name, label in zip(CSV_COLUMNS, values) if label < 1)
                raise ParseError(f"{source}:{line}: field {name!r} must be a 1-based mode label")
            if values[5] < 0:
                raise ParseError(f"{source}:{line}: field 'counts' must be non-negative")
            for k, value in enumerate(values):
                try:
                    columns[k].append(value)
                except OverflowError:
                    columns[k] = [*columns[k], value]
    except csv.Error as exc:
        raise ParseError(f"{source}:{reader.line_num}: {exc}") from None
    return [np.array(column, dtype=object) if isinstance(column, list) else np.asarray(column) for column in columns]
