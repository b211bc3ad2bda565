"""Independent reference implementations used only to cross-check the library.

These deliberately avoid the library's algorithms: the permanent is the
literal permutation sum, a circuit is a dense product of one full matrix per
phase layer, coupler layer and the output permutation, outcome probabilities
are evaluated one outcome at a time, the mean-field average is a dense phase
grid, or a sum of permanents over the ways to hand the photons to the input
modes, Monte Carlo trials run one per loop iteration (redrawing every count,
or only the reference counts with each row's conditional mean and variance
summed term by term), and the reference counts of a violation curve come from
a scan over the records for each pair.
"""

import math
import statistics
from itertools import permutations, product

import numpy as np


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


def plateau_reference(records, pairs) -> dict[tuple[int, int], float]:
    """Reference counts per output pair by the plateau rule, one record scan per pair.

    The mean of the pair's counts at the two delays of largest magnitude (the
    single delay, if only one was measured); a tie in magnitude goes to the
    negative delay.
    """
    extremes = sorted({r.delta_x for r in records}, key=lambda dx: (-abs(dx), dx))[:2]
    return {
        pair: float(np.mean([r.counts for r in records if r.output == pair and r.delta_x in extremes]))
        for pair in pairs
    }


def violation_curve_loop(records, pc, n_d, trials: int, seed) -> list[tuple[float, float, float]]:
    """Violation curve with one Monte Carlo trial per loop iteration.

    ``seed`` spawns one generator per delay row and a last one for the
    reference counts. Each trial draws the reference row from its generator,
    then every delay row from its own, one ``rng.poisson`` call each; a zero
    reference draw makes the trial NaN in every row, and NaN trials drop out
    of the spread.
    """
    pairs = sorted(pc)
    counts = {(r.delta_x, r.output): r.counts for r in records if r.output in pc}
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


def violation_curve_conditional_loop(records, pc, n_d, trials: int, seed) -> list[tuple[float, float, float]]:
    """Violation curve whose error bar redraws only the reference counts, one trial per iteration.

    Each trial draws the reference row with one ``rng.poisson`` call from
    ``default_rng(seed)`` and is skipped if any draw is zero. A kept trial's
    weights ``c = pc / R`` give each row's conditional mean ``sum c N`` and
    variance ``sum c**2 N``, each summed with ``math.fsum``; sigma is the root
    of the mean variance plus the ``statistics.variance`` of the means.
    ``statistics`` raises ``StatisticsError`` when fewer than two trials are kept.
    """
    pairs = sorted(pc)
    counts = {(r.delta_x, r.output): r.counts for r in records if r.output in pc}
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
