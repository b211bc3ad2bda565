"""Suppression-law certification from coincidence-counting data.

Given coincidence counts versus relative delay, this module computes HOM
visibilities, the violation degree D (the classical-probability-weighted
count ratio summed over the forbidden output pairs), Poissonian Monte Carlo
error bars, and the hypothesis test against the distinguishable-particle
and mean-field reference values D = 0.5 and D = 0.25. The Monte Carlo trials
are Poisson redraws of the counts, drawn in blocks of trials. In a violation
curve the reference counts and every delay row have their own generator,
spawned from the one seed, so one row (the zero-delay point of a
certification) can be resampled alone and gives exactly its value in the
full curve.
"""

from __future__ import annotations

import csv
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

#: Most Monte Carlo trials accepted. A violation curve holds the reference
#: weights of every trial plus the resampled values of one row, 8 x trials x
#: (pairs + 1) bytes: 136 MB for the 16 forbidden pairs of 8 modes at the cap.
MAX_TRIALS = 10**6

#: Poisson draws per Monte Carlo block of one row (or of the whole table in
#: ``monte_carlo_errors``). Each generator draws in C order, so results do not
#: depend on it; it only bounds the memory of the draws.
MC_BLOCK_ENTRIES = 2**16


@dataclass(frozen=True)
class CoincidenceRecord:
    """One coincidence measurement: counts for an input/output mode pair at a delay."""

    input: tuple[int, int]
    output: tuple[int, int]
    delta_x: float
    counts: int

    def __post_init__(self):
        if self.counts < 0:
            raise DomainError(f"counts must be non-negative, got {self.counts}")


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


def violation_degree(pc, v) -> float:
    """D = sum over forbidden pairs of pc * (1 - visibility)."""
    if set(pc) != set(v):
        missing = set(pc) ^ set(v)
        raise DomainError(f"probability and visibility maps disagree on pairs {sorted(missing)}")
    return float(sum(pc[key] * (1.0 - v[key]) for key in pc))


def classical_pair_probabilities(u, input_pair, pairs) -> dict[tuple[int, int], float]:
    """Distinguishable-particle probability of each requested output pair."""
    _, pc = two_photon_probabilities(u, input_pair)
    return {(i, j): float(pc[i, j]) for (i, j) in pairs}


def reference_counts(records, pairs=None) -> dict[tuple[int, int], float]:
    """Distinguishable-reference counts per output pair.

    Default plateau rule: the mean of the counts measured at the two delay
    values of largest magnitude (or the single extreme value if only one
    delay was measured).
    """
    records = list(records)
    if not records:
        raise DomainError("no records to take reference counts from")
    delays = sorted({r.delta_x for r in records}, key=abs, reverse=True)
    extremes = delays[:2] if len(delays) >= 2 else delays
    wanted = set(pairs) if pairs is not None else {r.output for r in records}
    ref: dict[tuple[int, int], float] = {}
    for pair in wanted:
        values = [r.counts for r in records if r.output == pair and r.delta_x in extremes]
        if not values:
            raise DomainError(f"no extreme-delay records for output pair {pair}")
        ref[pair] = float(np.mean(values))
    return ref


def _poisson_blocks(lam, trials, seed):
    """``trials`` Poisson redraws of ``lam`` from one generator, as (first trial, draws) blocks.

    Each block holds the draws of consecutive trials, shape ``(b, *lam.shape)``.
    """
    if not 2 <= trials <= MAX_TRIALS:
        raise DomainError(f"trials must be in [2, {MAX_TRIALS}], got {trials}")
    lam = np.asarray(lam, dtype=float)
    if not np.all((lam >= 0) & (lam <= MAX_EXPECTED_COUNTS)):
        raise DomainError(f"counts must be in [0, {MAX_EXPECTED_COUNTS:g}], the Poisson sampler's range")
    rng = np.random.default_rng(seed)
    block = max(1, MC_BLOCK_ENTRIES // max(lam.size, 1))
    return (
        (t, rng.poisson(lam, size=(min(block, trials - t), *lam.shape)))
        for t in range(0, trials, block)
    )


def monte_carlo_errors(counts, statistic, trials: int = DEFAULT_TRIALS, seed=None) -> float:
    """Poissonian Monte Carlo standard deviation of ``statistic(counts)``.

    Each trial redraws every count from a Poisson law whose mean is the
    observed count and re-evaluates the statistic; the sample standard
    deviation over trials is returned. All trials come from one generator
    seeded with ``seed``.
    """
    values = [statistic(draw) for _, draws in _poisson_blocks(counts, trials, seed) for draw in draws]
    return float(np.std(np.asarray(values, dtype=float), ddof=1))


def violation_curve(
    records,
    pc,
    n_d=None,
    *,
    trials: int = DEFAULT_TRIALS,
    seed=None,
    at=None,
) -> list[tuple[float, float, float]]:
    """Observed violation degree versus delay, with Monte Carlo error bars.

    ``D(dx) = sum over forbidden pairs of pc * N(dx) / N_ref``. The
    reference counts default to the plateau rule of :func:`reference_counts`
    computed from ``records``; explicit ``n_d`` values are treated as
    measured counts and enter the Monte Carlo resampling like the rest.
    Each (delay, pair) cell needs exactly one record. Returns
    ``(delta_x, d_obs, sigma)`` triples sorted by delay, or only the triple
    of delay ``at``, which must be one of the measured delays.

    ``seed`` spawns one generator for each delay row and one for the
    reference counts, so a row's triple does not depend on which other
    rows are evaluated.
    """
    records = [r for r in records if r.output in pc]
    if not records:
        raise DomainError("no records for any forbidden output pair")
    pairs = sorted(pc)
    delays = sorted({r.delta_x for r in records})
    row = {dx: i for i, dx in enumerate(delays)}
    col = {pair: j for j, pair in enumerate(pairs)}
    if at is not None and at not in row:
        raise DomainError(f"no records at delay {at}")
    # the last row holds the reference counts
    lam = np.full((len(delays) + 1, len(pairs)), np.nan)
    for r in records:
        cell = row[r.delta_x], col[r.output]
        if not np.isnan(lam[cell]):
            raise DomainError(f"duplicate counts for delay {r.delta_x} and output pair {r.output}")
        if r.counts > MAX_EXPECTED_COUNTS:
            raise DomainError(
                f"counts {r.counts} at delay {r.delta_x} and output pair {r.output} exceed "
                f"the Poisson sampler's limit {MAX_EXPECTED_COUNTS:g}"
            )
        lam[cell] = r.counts
    if np.any(np.isnan(lam[:-1])):
        holes = [(delays[i], pairs[j]) for i, j in zip(*np.nonzero(np.isnan(lam[:-1])))]
        raise DomainError(f"missing counts for (delay, pair) combinations {holes[:5]}")

    if n_d is None:
        n_d = reference_counts(records, pairs)
    missing = [pair for pair in pairs if pair not in n_d]
    if missing:
        raise DomainError(f"missing reference counts for pairs {missing}")
    bad = [pair for pair in pairs if not n_d[pair] > 0]
    if bad:
        raise DomainError(f"reference counts must be positive, not for pairs {bad}")
    lam[-1] = [float(n_d[pair]) for pair in pairs]

    weights = np.array([pc[pair] for pair in pairs])
    streams = np.random.SeedSequence(seed).spawn(len(delays) + 1)
    blocks = _poisson_blocks(lam[-1], trials, streams[-1])
    ref = np.empty((trials, len(pairs)))
    for t, draws in blocks:
        ref[t : t + len(draws)] = draws
    ref[ref == 0.0] = np.nan  # degenerate trials drop out of the spread
    np.divide(weights, ref, out=ref)
    d_obs = lam[:-1] @ (weights / lam[-1])
    curve = []
    for k in range(len(delays)) if at is None else [row[at]]:
        sims = np.empty(trials)
        for t, draws in _poisson_blocks(lam[k], trials, streams[k]):
            sims[t : t + len(draws)] = (draws * ref[t : t + len(draws)]).sum(axis=1)
        sigma = np.nan_to_num(np.nanstd(sims, ddof=1), nan=0.0)
        curve.append((float(delays[k]), float(d_obs[k]), float(sigma)))
    return curve


def certify(d_obs: float, sigma: float, threshold_sigmas: float = DEFAULT_THRESHOLD_SIGMAS) -> ViolationReport:
    """Hypothesis test of the observed violation degree against both references.

    The distinguishable (mean-field) hypothesis is rejected when the observed
    value lies more than ``threshold_sigmas`` standard deviations *below* the
    reference 0.5 (0.25).
    """
    if sigma <= 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
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


def write_coincidence_csv(records, stream) -> None:
    """Write records with 1-based mode labels and a header row."""
    stream.write(",".join(CSV_COLUMNS) + "\n")
    for r in records:
        stream.write(
            f"{r.input[0] + 1},{r.input[1] + 1},{r.output[0] + 1},{r.output[1] + 1},"
            f"{float(r.delta_x)!r},{r.counts}\n"
        )


def read_coincidence_csv(stream, source: str = "<csv>") -> list[CoincidenceRecord]:
    """Parse a coincidence CSV (1-based mode labels) into records.

    Malformed rows raise :class:`ParseError` naming the line and field.
    """
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{source}: empty file, expected header {','.join(CSV_COLUMNS)}") from None
    if [h.strip() for h in header] != list(CSV_COLUMNS):
        raise ParseError(f"{source}:1: expected header {','.join(CSV_COLUMNS)}, got {','.join(header)}")
    records = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(CSV_COLUMNS):
            raise ParseError(f"{source}:{lineno}: expected {len(CSV_COLUMNS)} fields, got {len(row)}")
        values = {}
        for name, cell in zip(CSV_COLUMNS, row):
            try:
                values[name] = float(cell) if name == "delta_x_um" else int(cell)
            except ValueError:
                raise ParseError(f"{source}:{lineno}: field {name!r} has invalid value {cell!r}") from None
        if not math.isfinite(values["delta_x_um"]):
            raise ParseError(f"{source}:{lineno}: field 'delta_x_um' must be finite, got {row[4]!r}")
        for name in ("input_i", "input_j", "output_i", "output_j"):
            if values[name] < 1:
                raise ParseError(f"{source}:{lineno}: field {name!r} must be a 1-based mode label")
        if values["counts"] < 0:
            raise ParseError(f"{source}:{lineno}: field 'counts' must be non-negative")
        # mode pairs are unordered; store them ascending
        records.append(
            CoincidenceRecord(
                input=tuple(sorted((values["input_i"] - 1, values["input_j"] - 1))),
                output=tuple(sorted((values["output_i"] - 1, values["output_j"] - 1))),
                delta_x=values["delta_x_um"],
                counts=values["counts"],
            )
        )
    return records
