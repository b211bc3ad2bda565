import numpy as np
import pytest

from qfftsim.errors import DomainError, ValidationError
from qfftsim.layout import (
    HypercubeLayout,
    hypercube_layout,
    step_edge_vectors,
    validate_layout,
)


def test_p1_two_vertices_one_edge():
    lay = hypercube_layout(1)
    assert lay.vertices.shape == (2, 2)
    assert lay.steps == (((0, 1),),)


def test_p2_parallelogram():
    lay = hypercube_layout(2)
    assert lay.vertices.shape == (4, 2)
    assert [len(step) for step in lay.steps] == [2, 2]
    # opposite edges of each step are parallel translates
    for s in range(2):
        v = step_edge_vectors(lay, s)
        assert np.allclose(v[0], v[1])


def test_p3_step_structure():
    lay = hypercube_layout(3)
    assert [len(step) for step in lay.steps] == [4, 4, 4]
    for s in range(3):
        v = step_edge_vectors(lay, s)
        lengths = np.linalg.norm(v, axis=1)
        assert np.ptp(lengths) <= 1e-9 * lengths.max()
        assert np.allclose(v, v[0])


@pytest.mark.parametrize("p", range(1, 7))
def test_invariants_all_supported_dimensions(p):
    lay = hypercube_layout(p)
    validate_layout(lay)
    assert lay.vertices.shape == (2**p, 2)
    assert len(lay.steps) == p
    for s in range(p):
        assert len(lay.steps[s]) == 2 ** (p - 1)


@pytest.mark.parametrize("p", [0, 7, 2.5, float("nan"), "a"])
def test_dimension_cap(p):
    with pytest.raises(DomainError):
        hypercube_layout(p)


def test_steps_pair_single_bits():
    lay = hypercube_layout(4)
    for s, step in enumerate(lay.steps, start=1):
        diffs = {a ^ b for a, b in step}
        assert diffs == {1 << (4 - s)}


def test_degenerate_projection_rejected():
    # one offset (1, 0) for both bits: the square collapses onto a line and
    # vertices 1 and 2 coincide
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    lay = HypercubeLayout(p=2, vertices=verts, steps=(((0, 2), (1, 3)), ((0, 1), (2, 3))))
    with pytest.raises(ValidationError, match="vertices 1 and 2 coincide"):
        validate_layout(lay)


def test_overlap_rejected():
    # collinear step edges that overlap must be flagged
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0], [1.5, 0.0]])
    lay = HypercubeLayout(p=2, vertices=verts, steps=(((0, 1), (2, 3)), ((0, 2), (1, 3))))
    with pytest.raises(ValidationError):
        validate_layout(lay)


def test_json_modes_one_based():
    obj = hypercube_layout(1).to_json()
    assert obj["steps"] == [[[1, 2]]]


def square_with_last_vertex(corner):
    # the p = 2 square of hypercube_layout(2), its vertex 3 moved to ``corner``: step 1
    # pairs (0, 2) and (1, 3), so its edges are v2 - v0 and corner - v1
    verts = hypercube_layout(2).vertices.copy()
    verts[3] = corner(verts)
    return HypercubeLayout(p=2, vertices=verts, steps=hypercube_layout(2).steps)


@pytest.mark.parametrize(
    "layout, message",
    [
        (HypercubeLayout(p=2, vertices=np.zeros((3, 2)), steps=()), "^expected 4 vertices, got 3$"),
        (square_with_last_vertex(lambda v: v[1] + 2 * (v[2] - v[0])), "^step 1: edge lengths differ by "),
        (square_with_last_vertex(lambda v: v[1] + (v[2] - v[0]) @ [[0.0, -1.0], [1.0, 0.0]]),
         "^step 1: edges are not parallel$"),
    ],
    ids=["vertex-count", "edge-lengths", "not-parallel"],
)
def test_invariant_refusals_named(layout, message):
    with pytest.raises(ValidationError, match=message):
        validate_layout(layout)
