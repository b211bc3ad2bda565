"""Independent reference implementations used only to cross-check the library.

These deliberately avoid the library's algorithms: the permanent is the
literal permutation sum, matrix products are triple loops, a circuit is a
dense product of one full matrix per phase layer, coupler layer and the
output permutation, the mean-field average is a dense two-dimensional phase
grid without any symmetry reduction, and the visibility uncertainty uses
first-order error propagation.
"""

import math
from itertools import permutations

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


def triple_loop_product(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=complex)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            for k in range(a.shape[1]):
                out[i, j] += a[i, k] * b[k, j]
    return out


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


def visibility_sigma_delta(c: float, q: float) -> float:
    """First-order Poisson propagation of V = (c - q)/c."""
    return math.sqrt(q**2 / c**3 + q / c**2)
