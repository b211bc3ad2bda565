"""Walk through the suppression law on 4 and 8 modes.

A Fourier interferometer fed with a cyclic two-photon input sends no light
at all into the output pairs whose 1-based mode labels have odd sum. That
zero is a many-body interference effect: distinguishable particles spread
half of their coincidences over those same pairs, and a mean-field source
(single-particle interference with randomised phases) still leaves a
quarter there. The violation degree D, the probability mass observed on
forbidden pairs, therefore separates the three sources at a glance:
Fock 0, mean field 0.25, distinguishable 0.5.
"""

import numpy as np

from qfftsim import (
    cyclic_inputs,
    distinguishable_distribution,
    fock_distribution,
    mean_field_distribution,
    partition_outputs,
    qft_matrix,
)


def forbidden_mass(dist, forbidden):
    return sum(dist.probabilities[out] for out in forbidden)


def main():
    for p in (2, 3):
        n = 2
        m = n**p
        u = qft_matrix(m)
        partition = partition_outputs(n, m)
        print(f"\n=== m = {m} modes, n = {n} photons ===")
        forbidden, allowed = (
            [s for s in sorted(part) if max(s) == 1] for part in (partition.forbidden, partition.allowed)
        )
        print(f"collision-free outputs: {len(forbidden)} forbidden, {len(allowed)} allowed")

        for state in cyclic_inputs(n, p):
            fock = forbidden_mass(fock_distribution(u, state), forbidden)
            dist = forbidden_mass(distinguishable_distribution(u, state), forbidden)
            mf = forbidden_mass(mean_field_distribution(u, state), forbidden)
            occupied = [k + 1 for k, o in enumerate(state) if o]
            print(f"input modes {occupied}:  D_fock = {fock:.2e}   "
                  f"D_mean_field = {mf:.4f}   D_distinguishable = {dist:.4f}")

        print("\nper-output Fock probabilities for the first cyclic input:")
        state = cyclic_inputs(n, p)[0]
        table = fock_distribution(u, state).probabilities
        for out in sorted(table, key=lambda s: (-table[s], s)):
            if table[out] > 1e-12:
                modes = [k + 1 for k, o in enumerate(out) for _ in range(o)]
                print(f"  output modes {modes}: {table[out]:.4f}")
        dark = sum(1 for v in table.values() if v < 1e-12)
        print(f"  ... plus {dark} outputs with probability < 1e-12")


if __name__ == "__main__":
    np.set_printoptions(precision=4, suppress=True)
    main()
