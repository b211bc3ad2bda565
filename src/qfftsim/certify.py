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


def classical_pair_probabilities(u, input_pair, pairs) -> dict[tuple[int, int], float]:
    """Distinguishable-particle probability of each requested output pair."""
    _, pc = two_photon_probabilities(u, input_pair)
    return {(i, j): float(pc[i, j]) for (i, j) in pairs}


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
    reference counts default to the plateau rule: the mean of the counts at
    the two delays of largest magnitude (the single delay, if only one was
    measured), a tie in magnitude going to the negative delay. Explicit
    ``n_d`` values are treated as measured counts like the rest. Each
    (delay, pair) cell needs exactly one record. Returns
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
    for k in range(len(delays)) if at is None else [row[at]]:
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
