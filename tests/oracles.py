"""Independent reference implementations used only to cross-check the library.

These deliberately avoid the library's algorithms: the permanent is the
literal permutation sum, a circuit is a dense product of one full matrix per
phase layer, coupler layer and the output permutation, outcome probabilities
are evaluated one outcome at a time, the mean-field average is a dense phase
grid, or a sum of permanents over the ways to hand the photons to the input
modes, the first two moments of a table come from closed forms summed
over pairs of photons, Monte Carlo trials run one per loop iteration (redrawing every count,
or only the reference counts with each row's conditional mean and variance
summed term by term), the exact error bar is summed term by term, the
inverse moments of a zero-truncated Poisson count come from closed forms and
quadrature in 50-digit ``mpmath``, the reference counts of a violation curve
come from a scan over the table's cells for each pair, a visibility table
is filled one output pair at a time, a coincidence CSV is parsed one record
at a time and formatted as one string, and local fits are scipy's L-BFGS-B.
"""

import csv
import math
import statistics
from itertools import permutations, product

import mpmath
import numpy as np
from scipy.optimize import minimize


def permanent_definition(a) -> complex:
    """Permanent as the explicit sum over all permutations."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    total = 0.0 + 0.0j
    for perm in permutations(range(n)):
        prod = 1.0 + 0.0j
        for i in range(n):
            prod *= a[i, perm[i]]
        total += prod
    return total


def layer_product_unitary(circuit) -> np.ndarray:
    """Circuit unitary as the dense product P C_p D_p ... C_1 D_1 of full m x m matrices."""
    m = circuit.m
    u = np.eye(m, dtype=complex)
    for layer in circuit.layers:
        phase = np.eye(m, dtype=complex)
        for t, angle in layer.phases.items():
            phase[t, t] = np.exp(1j * angle)
        coupler = np.zeros((m, m), dtype=complex)
        for a, b in layer.couplers:
            coupler[a, a] = coupler[a, b] = coupler[b, a] = 1.0 / math.sqrt(2.0)
            coupler[b, b] = -1.0 / math.sqrt(2.0)
        u = coupler @ phase @ u
    permutation = np.zeros((m, m))
    for port, label in enumerate(circuit.output_relabeling):
        permutation[label, port] = 1.0
    return permutation @ u


def fock_pair_probability(u, input_pair, output_pair) -> float:
    """Two-photon Fock probability straight from the amplitude definition."""
    a, b = input_pair
    i, j = output_pair
    amp = u[i, a] * u[j, b] + u[i, b] * u[j, a]
    norm = 2.0 if i == j else 1.0
    return float(abs(amp) ** 2 / norm)


def distinguishable_pair_probability(u, input_pair, output_pair) -> float:
    a, b = input_pair
    i, j = output_pair
    w = np.abs(np.asarray(u)) ** 2
    val = w[i, a] * w[j, b] + w[i, b] * w[j, a]
    norm = 2.0 if i == j else 1.0
    return float(val / norm)


def mean_field_pair_grid(u, modes, output_pair, grid: int = 256) -> float:
    """Two-photon mean-field probability by brute-force 2-D phase averaging."""
    u = np.asarray(u, dtype=complex)
    i, j = output_pair
    total = 0.0
    thetas = 2.0 * np.pi * np.arange(grid) / grid
    for t1 in thetas:
        for t2 in thetas:
            amp = (u[:, modes[0]] * np.exp(1j * t1) + u[:, modes[1]] * np.exp(1j * t2)) / math.sqrt(2)
            pi_k = np.abs(amp) ** 2
            if i == j:
                total += pi_k[i] ** 2
            else:
                total += 2.0 * pi_k[i] * pi_k[j]
    return total / grid**2


def _modes(occupation) -> list[int]:
    return [k for k, t in enumerate(occupation) for _ in range(t)]


def visibility_table_loop(grids, sigma: float) -> dict:
    """Visibility table from each input pair's symmetric (pq, pc) grids, one output
    pair i < j at a time in row-major order, leaving out those with pc = 0."""
    table = {}
    for (a, b), (pq, pc) in grids.items():
        m = len(pc)
        for i in range(m):
            for j in range(i + 1, m):
                if pc[i, j] > 0:
                    table[((a, b), (i, j))] = (float(1.0 - pq[i, j] / pc[i, j]), sigma)
    return table


def fock_probability(u, input_state, output_state) -> float:
    """|perm(U[T, S])|^2 / (prod s! prod t!) with the permutation-sum permanent."""
    u = np.asarray(u, dtype=complex)
    block = u[np.ix_(_modes(output_state), _modes(input_state))]
    norm = math.prod(math.factorial(k) for k in (*input_state, *output_state))
    return abs(permanent_definition(block)) ** 2 / norm


def distinguishable_probability(u, input_state, output_state) -> float:
    """perm(|U|^2[T, S]) / prod t! with the permutation-sum permanent."""
    w = np.abs(np.asarray(u, dtype=complex)) ** 2
    block = w[np.ix_(_modes(output_state), _modes(input_state))]
    return permanent_definition(block).real / math.prod(math.factorial(t) for t in output_state)


def mean_field_probability(u, input_state, output_state) -> float:
    """Phase-averaged mean-field probability as a sum of permanents.

    Expanding prod_l |sum_r U[k_l, j_r] e^(i theta_r)|^2 and averaging over the
    phases keeps the terms whose two factors hand the n photons to the input
    modes with the same counts c. Summing the products of one such hand-out
    gives perm(U[T, S_c]) / prod c!, with input mode j_r repeated c_r times:

        P(T) = n! / (n^n prod t!) * sum_c |perm(U[T, S_c])|^2 / (prod c!)^2.
    """
    u = np.asarray(u, dtype=complex)
    inputs = _modes(input_state)
    n = len(inputs)
    rows = _modes(output_state)
    total = 0.0
    for counts in product(range(n + 1), repeat=n):
        if sum(counts) != n:
            continue
        cols = [j for j, c in zip(inputs, counts) for _ in range(c)]
        perm = permanent_definition(u[np.ix_(rows, cols)])
        total += abs(perm) ** 2 / math.prod(math.factorial(c) for c in counts) ** 2
    norm = n**n * math.prod(math.factorial(t) for t in output_state)
    return math.factorial(n) * total / norm


def mean_occupations(u, modes) -> np.ndarray:
    """<n_i> = sum_a |U[i, s_a]|^2 for single photons in the distinct input
    ``modes`` s_a: the same under every model."""
    return (np.abs(np.asarray(u, dtype=complex)[:, modes]) ** 2).sum(axis=1)


def pair_moments(u, modes, model: str) -> np.ndarray:
    """<n_i n_k> at i != k, and <n_i (n_i - 1)> at i = k, for single photons in
    the distinct input ``modes``, in closed form (Walschaers et al., NJP 18,
    032001 (2016)). With V = U[:, modes] and W = |V|^2, summed over ordered
    pairs a != b of photons:

    * ``distinguishable``: sum W[i, a] W[k, b];
    * ``fock``: that sum plus sum V[i, a] V*[k, a] V[k, b] V*[i, b];
    * ``mean_field``: (n - 1)/n (<n_i><n_k> + |(V V^dagger)[i, k]|^2 - (W W^T)[i, k]),
      the phase average of n(n - 1) pi_i pi_k for pi = |V y|^2 / n.
    """
    v = np.asarray(u, dtype=complex)[:, modes]
    w = np.abs(v) ** 2
    n = len(modes)
    if model == "mean_field":
        mean = w.sum(axis=1)
        return (n - 1) / n * (np.outer(mean, mean) + np.abs(v @ v.conj().T) ** 2 - w @ w.T)
    total = np.zeros((len(v), len(v)))
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            total += np.outer(w[:, a], w[:, b])
            if model == "fock":
                total += (np.outer(v[:, a], v[:, a].conj()) * np.outer(v[:, b], v[:, b].conj()).T).real
    return total


def mean_field_grid(u, modes, outputs, grid: int = 64) -> list[float]:
    """Mean-field probabilities of ``outputs`` by brute-force phase averaging.

    The first phase stays at zero, since a global phase changes nothing; each
    of the others runs over ``grid`` uniform nodes.
    """
    u = np.asarray(u, dtype=complex)
    n = len(modes)
    thetas = 2.0 * np.pi * np.arange(grid) / grid
    totals = [0.0] * len(outputs)
    for rest in product(thetas, repeat=n - 1):
        amp = sum(u[:, j] * np.exp(1j * t) for j, t in zip(modes, (0.0, *rest))) / math.sqrt(n)
        pi_k = np.abs(amp) ** 2
        for idx, out in enumerate(outputs):
            val = float(math.factorial(n))
            for k, t in enumerate(out):
                val *= pi_k[k] ** t / math.factorial(t)
            totals[idx] += val
    return [total / grid ** (n - 1) for total in totals]


def table_cells(table) -> dict[tuple[float, tuple[int, int]], int]:
    """The counts of a coincidence table keyed by (delay, output pair), one cell at a time."""
    cells = {}
    for k, dx in enumerate(table.delays):
        for p, pair in enumerate(table.pairs):
            cells[float(dx), pair] = int(table.counts[k, p])
    return cells


def plateau_reference(table, pairs) -> dict[tuple[int, int], float]:
    """Reference counts per output pair by the plateau rule, one cell scan per pair.

    The mean of the pair's counts at the two delays of largest magnitude (the
    single delay, if only one was measured); a tie in magnitude goes to the
    negative delay.
    """
    cells = table_cells(table)
    extremes = sorted({dx for dx, _ in cells}, key=lambda dx: (-abs(dx), dx))[:2]
    return {
        pair: float(np.mean([n for (dx, out), n in cells.items() if out == pair and dx in extremes]))
        for pair in pairs
    }


def violation_curve_loop(table, pc, n_d, trials: int, seed) -> list[tuple[float, float, float]]:
    """Violation curve with one Monte Carlo trial per loop iteration.

    ``seed`` spawns one generator per delay row and a last one for the
    reference counts. Each trial draws the reference row from its generator,
    then every delay row from its own, one ``rng.poisson`` call each; a zero
    reference draw makes the trial NaN in every row, and NaN trials drop out
    of the spread.
    """
    pairs = sorted(pc)
    counts = {(dx, pair): n for (dx, pair), n in table_cells(table).items() if pair in pc}
    delays = sorted({dx for dx, _ in counts})
    lam = np.array(
        [[counts[dx, pair] for pair in pairs] for dx in delays] + [[n_d[pair] for pair in pairs]],
        dtype=float,
    )
    weights = np.array([pc[pair] for pair in pairs])
    d_obs = lam[:-1] @ (weights / lam[-1])
    *rngs, ref_rng = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(len(lam))]
    sims = [[] for _ in delays]
    for _ in range(trials):
        ref = ref_rng.poisson(lam[-1]).astype(float)
        ref[ref == 0] = np.nan
        for k, rng in enumerate(rngs):
            sims[k].append((rng.poisson(lam[k]) * (weights / ref)).sum())
    sigma = [np.nan_to_num(np.nanstd(np.array(row), ddof=1), nan=0.0) for row in sims]
    return [(float(dx), float(d), float(s)) for dx, d, s in zip(delays, d_obs, sigma)]


def violation_curve_conditional_loop(table, pc, n_d, trials: int, seed) -> list[tuple[float, float, float]]:
    """Violation curve whose error bar redraws only the reference counts, one trial per iteration.

    Each trial draws the reference row with one ``rng.poisson`` call from
    ``default_rng(seed)`` and is skipped if any draw is zero. A kept trial's
    weights ``c = pc / R`` give each row's conditional mean ``sum c N`` and
    variance ``sum c**2 N``, each summed with ``math.fsum``; sigma is the root
    of the mean variance plus the ``statistics.variance`` of the means.
    ``statistics`` raises ``StatisticsError`` when fewer than two trials are kept.
    """
    pairs = sorted(pc)
    counts = {(dx, pair): n for (dx, pair), n in table_cells(table).items() if pair in pc}
    delays = sorted({dx for dx, _ in counts})
    lam = [[float(counts[dx, pair]) for pair in pairs] for dx in delays]
    ref_mean = [float(n_d[pair]) for pair in pairs]
    weights = [pc[pair] for pair in pairs]
    d_obs = np.array(lam) @ (np.array(weights) / np.array(ref_mean))
    rng = np.random.default_rng(seed)
    means = [[] for _ in delays]
    variances = [[] for _ in delays]
    for _ in range(trials):
        ref = rng.poisson(ref_mean)
        if np.any(ref == 0):
            continue
        c = [w / float(r) for w, r in zip(weights, ref)]
        for k, row in enumerate(lam):
            means[k].append(math.fsum(cj * n for cj, n in zip(c, row)))
            variances[k].append(math.fsum(cj * cj * n for cj, n in zip(c, row)))
    sigma = [
        math.sqrt(statistics.fmean(v) + statistics.variance(mu)) for mu, v in zip(means, variances)
    ]
    return [(float(dx), float(d), s) for dx, d, s in zip(delays, d_obs, sigma)]


def violation_curve_exact_loop(table, pc, n_d, moments) -> list[tuple[float, float, float]]:
    """Violation curve with the exact error bar, one row and one term at a time.

    ``moments(lam)`` gives E[1/R] and Var(1/R) of a zero-truncated Poisson
    count of mean ``lam``. Each row's variance is the ``math.fsum`` over the
    pairs of ``pc**2 * (N * (a**2 + v) + N**2 * v)``: the Poisson variance of
    N times the mean of (pc / R)**2, plus the variance of pc * N / R.
    """
    pairs = sorted(pc)
    counts = {(dx, pair): n for (dx, pair), n in table_cells(table).items() if pair in pc}
    delays = sorted({dx for dx, _ in counts})
    lam = [[float(counts[dx, pair]) for pair in pairs] for dx in delays]
    ref_mean = [float(n_d[pair]) for pair in pairs]
    weights = [pc[pair] for pair in pairs]
    d_obs = np.array(lam) @ (np.array(weights) / np.array(ref_mean))
    terms = [(w * w, *map(float, moments(ref))) for w, ref in zip(weights, ref_mean)]
    sigma = [
        math.sqrt(math.fsum(w2 * (n * (a * a + v) + n * n * v) for (w2, a, v), n in zip(terms, row)))
        for row in lam
    ]
    return [(float(dx), float(d), s) for dx, d, s in zip(delays, d_obs, sigma)]


def truncated_poisson_inverse_moments(lam: float) -> tuple[float, float]:
    """E[1/R] and Var(1/R) of a Poisson count R of mean ``lam`` conditioned on R > 0.

    Computed with 50-digit ``mpmath``, then rounded. With P = 1 - e^-lam,
    E[1/R] = e^-lam S / P, where S, the series of lam^r / (r r!), is
    Ei(lam) - gamma - ln lam in closed form, or lam 2F2(1, 1; 2, 2; lam)
    below lam = 1, where that difference would cancel. E[1/R^2] = int_0^inf t g(t) dt / P, where
    g(t) = E[e^(-tR); R > 0] = exp(lam (e^-t - 1)) - e^-lam, since 1/r^2 is
    int_0^inf t e^(-rt) dt; g is evaluated in whichever of two forms loses no
    digits, and t is scaled by lam so that g decays on a unit scale. The
    variance E[1/R^2] - E[1/R]^2 loses ~|log10 lam| of the 50 digits, so it
    keeps 20 or more for lam in [1e-30, 1e30].
    """
    with mpmath.workdps(50):
        lam = mpmath.mpf(float(lam))
        tail = mpmath.exp(-lam)
        norm = -mpmath.expm1(-lam)
        scale = max(lam, 1)
        cut = mpmath.log(lam) * scale if lam > 1 else 0  # where lam e^-t falls below 1

        def g(u):  # divided by P, so that quad's tolerance is relative for any lam
            t = u / scale
            if u < cut:
                return (mpmath.exp(lam * mpmath.expm1(-t)) - tail) / norm
            return tail * mpmath.expm1(lam * mpmath.exp(-t)) / norm

        if lam < 1:  # Ei - gamma - ln would cancel ~log10(1/lam) digits
            mean = tail * lam * mpmath.hyp2f2(1, 1, 2, 2, lam) / norm
        else:
            mean = tail * (mpmath.ei(lam) - mpmath.euler - mpmath.log(lam)) / norm
        second = mpmath.quad(lambda u: u * g(u), [0, mpmath.inf]) / scale**2
        return float(mean), float(second - mean * mean)


def simulated_counts_loop(curves, expected_counts, rng) -> list[tuple[float, tuple[int, int], int]]:
    """(delay, output pair, counts) of a simulated scan, one scalar Poisson draw per cell.

    Cells run in (delay, pair) order; each mean is ``expected_counts`` times
    the two-photon coincidence probability, negative rounding clamped to 0.
    """
    cells = []
    for idx, dx in enumerate(curves.delta_x):
        for k, pair in enumerate(curves.pairs):
            lam = expected_counts * max(float(curves.quantum[idx, k]), 0.0)
            cells.append((float(dx), pair, int(rng.poisson(lam))))
    return cells


CSV_COLUMNS = ("input_i", "input_j", "output_i", "output_j", "delta_x_um", "counts")


def coincidence_csv_text(table) -> str:
    """A coincidence table as one CSV string: every record is built, then all are
    joined under the header, with 1-based labels in (delay, pair) order."""
    a, b = (k + 1 for k in table.input)
    heads = [f"{a},{b},{i + 1},{j + 1}," for i, j in table.pairs]
    rows = [head + dx for dx in map("{!r},".format, table.delays.tolist()) for head in heads]
    counts = map(str, table.counts.ravel().tolist())
    return "\n".join([",".join(CSV_COLUMNS), *map(str.__add__, rows, counts)]) + "\n"


def read_coincidence_csv_rows(stream, source: str = "<csv>") -> list[tuple]:
    """Records ``(input, output, delta_x, counts)`` of a coincidence CSV, one row at a time.

    Pairs become 0-based and ascending; blank lines are skipped. The first
    malformed row raises :class:`ValueError`: a row's field count is checked
    first, then each field's syntax in column order, then a finite delay,
    1-based labels and non-negative counts.
    """
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{source}: empty file, expected header {','.join(CSV_COLUMNS)}") from None
    if [h.strip() for h in header] != list(CSV_COLUMNS):
        raise ValueError(f"{source}:1: expected header {','.join(CSV_COLUMNS)}, got {','.join(header)}")
    records = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(CSV_COLUMNS):
            raise ValueError(f"{source}:{lineno}: expected {len(CSV_COLUMNS)} fields, got {len(row)}")
        values = {}
        for name, cell in zip(CSV_COLUMNS, row):
            try:
                values[name] = float(cell) if name == "delta_x_um" else int(cell)
            except ValueError:
                raise ValueError(f"{source}:{lineno}: field {name!r} has invalid value {cell!r}") from None
        if not math.isfinite(values["delta_x_um"]):
            raise ValueError(f"{source}:{lineno}: field 'delta_x_um' must be finite, got {row[4]!r}")
        for name in ("input_i", "input_j", "output_i", "output_j"):
            if values[name] < 1:
                raise ValueError(f"{source}:{lineno}: field {name!r} must be a 1-based mode label")
        if values["counts"] < 0:
            raise ValueError(f"{source}:{lineno}: field 'counts' must be non-negative")
        records.append((
            tuple(sorted((values["input_i"] - 1, values["input_j"] - 1))),
            tuple(sorted((values["output_i"] - 1, values["output_j"] - 1))),
            values["delta_x_um"],
            values["counts"],
        ))
    return records


def lbfgsb_minimum(fun, starts) -> float:
    """Lowest value scipy's L-BFGS-B reaches on ``fun(x) -> (f, gradient)`` from any of ``starts``."""
    return min(float(minimize(fun, x0, jac=True, method="L-BFGS-B").fun) for x0 in starts)
