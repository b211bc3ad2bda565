"""Two-photon interference versus delay: dips, peaks and full bunching.

Scanning the relative path delay between the two photons sweeps them from
distinguishable (large delay) to maximally indistinguishable (zero delay).
Forbidden output pairs show coincidence dips, allowed cyclic pairs show
peaks, and the both-photons-in-one-mode outcomes always show a peak of
visibility -1 whatever the interferometer does.
"""

import numpy as np

from qfftsim import (
    DelayModel,
    full_bunching_visibilities,
    haar_random_unitary,
    is_suppressed,
    qft_matrix,
    two_photon_coincidences,
    visibility,
)


def main():
    m = 4
    u = qft_matrix(m)
    input_pair = (0, 2)  # modes 1 and 3
    model = DelayModel(alpha=0.95, coherence_length=100.0)
    delays = np.array([0.0, 50.0, 100.0, 200.0, 400.0])

    curves = two_photon_coincidences(u, input_pair, model, delays)
    print(f"coincidence probabilities for input modes (1, 3), alpha = {model.alpha}:")
    header = "  output   " + "".join(f"  dx={dx:5.0f}" for dx in delays) + "   visibility"
    print(header)
    for (i, j), c, q in zip(curves.pairs, curves.classical, curves.quantum.T):
        if c == 0.0:
            continue
        vis = visibility(c, q[0])
        out = tuple(2 if i == j and k == i else int(k in (i, j)) for k in range(m))
        tag = "bunched" if i == j else ("forbidden" if is_suppressed(out) else "allowed")
        row = "".join(f"  {value:7.4f}" for value in q)
        print(f"  ({i + 1},{j + 1}) {tag:9s}{row}   V = {vis:+.3f}")

    print("\nfull-bunching visibilities are -1 for any unitary:")
    for label, matrix in [("Fourier m=4", u), ("Haar random", haar_random_unitary(4, np.random.default_rng(7)))]:
        vals = full_bunching_visibilities(matrix, input_pair)
        formatted = ", ".join(f"mode {k + 1}: {v:+.6f}" for k, v in sorted(vals.items()))
        print(f"  {label}: {formatted}")


if __name__ == "__main__":
    main()
