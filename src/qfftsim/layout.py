"""Planar waveguide placement for the butterfly circuit on 2^p modes.

Modes sit on the vertices of a p-dimensional hypercube projected to the
plane: mode k is placed at the signed sum of one offset vector per set bit
of its label. All couplers of a given step then project onto translates of
a single offset vector, so within a step every coupler has the same length
and direction and no two waveguide connections cross.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import synthesize_qfft
from .errors import DomainError, ValidationError
from .fourier import check_nonnegative_int

#: Largest hypercube dimension with a default projection basis.
LAYOUT_CAP = 6

#: Default projection angles (radians) per dimension, indexed from the least
#: significant bit. Chosen so that projections up to p = 6 are degenerate-free
#: and the small-p shapes match the usual staircase-of-parallelograms drawing.
DEFAULT_ANGLES = (
    math.atan2(-1.0, -2.0),
    math.atan2(-2.0, 1.0),
    -math.pi / 2.0,
    0.0,
    math.atan2(3.0, -1.0),
    math.atan2(1.0, 3.0),
)

#: Relative tolerance of the geometric checks in :func:`validate_layout`.
GEOMETRY_TOL = 1e-9


@dataclass(frozen=True)
class HypercubeLayout:
    """2-D vertex coordinates and the per-step coupler edges."""

    p: int
    vertices: np.ndarray  # (2^p, 2) float
    steps: tuple[tuple[tuple[int, int], ...], ...]

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "vertices": [[float(x), float(y)] for x, y in self.vertices],
            "steps": [[[a + 1, b + 1] for a, b in step] for step in self.steps],
        }


def hypercube_layout(p: int) -> HypercubeLayout:
    """Project the p-cube vertices to the plane; the per-step edges are the
    couplers of the layers of :func:`~qfftsim.circuit.synthesize_qfft`.

    Dimension k (from the least significant bit) contributes the offset
    vector ``2^(k//2) * (cos a_k, sin a_k)``, with a_k from
    :data:`DEFAULT_ANGLES`; the scale ladder makes more significant bits
    separate sub-cubes more widely.
    """
    p = check_nonnegative_int(p, "layout dimension")
    if not 1 <= p <= LAYOUT_CAP:
        raise DomainError(f"layout dimension must be in 1..{LAYOUT_CAP}, got {p}")
    m = 1 << p
    offsets = np.array([[math.cos(a), math.sin(a)] for a in DEFAULT_ANGLES[:p]])
    offsets *= (2.0 ** (np.arange(p) // 2))[:, None]
    vertices = np.zeros((m, 2))
    for mode in range(m):
        for k in range(p):
            if mode & (1 << k):
                vertices[mode] += offsets[k]
    steps = tuple(layer.couplers for layer in synthesize_qfft(p).layers)
    layout = HypercubeLayout(p=p, vertices=vertices, steps=steps)
    validate_layout(layout)
    return layout


def step_edge_vectors(layout: HypercubeLayout, step_index: int) -> np.ndarray:
    """Edge vectors (end minus start) for one step, shape (edges, 2)."""
    edges = layout.steps[step_index]
    return np.array([layout.vertices[b] - layout.vertices[a] for a, b in edges])


def validate_layout(layout: HypercubeLayout) -> None:
    """Raise ValidationError unless the geometric invariants hold.

    Checks: distinct vertex coordinates; per-step edges of identical length
    and direction (up to sign); no two same-step edges overlap except at
    shared endpoints. Tolerances are relative, :data:`GEOMETRY_TOL`.
    """
    tol = GEOMETRY_TOL
    verts = layout.vertices
    m = verts.shape[0]
    if m != 1 << layout.p:
        raise ValidationError(f"expected {1 << layout.p} vertices, got {m}")
    scale = float(np.max(np.abs(verts))) or 1.0
    for i in range(m):
        for k in range(i + 1, m):
            if np.linalg.norm(verts[i] - verts[k]) <= tol * scale:
                raise ValidationError(f"vertices {i} and {k} coincide")
    for s in range(len(layout.steps)):
        vecs = step_edge_vectors(layout, s)
        lengths = np.linalg.norm(vecs, axis=1)
        if np.ptp(lengths) > tol * lengths.max():
            raise ValidationError(f"step {s + 1}: edge lengths differ by {np.ptp(lengths):.3e}")
        ref = vecs[0]
        cross = np.abs(vecs[:, 0] * ref[1] - vecs[:, 1] * ref[0])
        if np.max(cross) > tol * lengths.max() ** 2:
            raise ValidationError(f"step {s + 1}: edges are not parallel")
        # Parallel segments can only intersect if collinear and overlapping.
        edges = layout.steps[s]
        ref_norm2 = float(ref @ ref)
        for i in range(len(edges)):
            ai = verts[edges[i][0]]
            for k in range(i + 1, len(edges)):
                ak = verts[edges[k][0]]
                d = ak - ai
                if abs(d[0] * ref[1] - d[1] * ref[0]) <= tol * ref_norm2:
                    t = float(d @ ref) / ref_norm2
                    if abs(t) < 1.0 - tol:
                        raise ValidationError(
                            f"step {s + 1}: edges {edges[i]} and {edges[k]} overlap"
                        )

