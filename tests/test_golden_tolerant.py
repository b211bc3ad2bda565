"""The golden artifacts off the exact Fourier matrix, within stated tolerances.

A Fock table of a Haar unitary matches its golden within 1e-14 per
probability, with its outputs and every other field exact. A phase
reconstruction matches its chi-squared within 1e-9 relative, and its phases,
up to the conjugation branch phi -> -phi, within 1e-6 rad. The files are
written only by ``tests/golden/regenerate.py``.
"""

import json
import math

from golden.regenerate import INPUTS, TOLERANT, TOLERANT_DIR, run_tolerant


def rerun(name, tmp_path):
    """The artifact ``name`` made again into ``tmp_path``, and its golden."""
    assert run_tolerant(name, tmp_path) == 0
    return json.loads((tmp_path / name).read_text()), json.loads((TOLERANT_DIR / name).read_text())


def test_every_artifact_and_input_has_a_file():
    assert sorted(p.name for p in TOLERANT_DIR.iterdir()) == sorted([*TOLERANT, *INPUTS])


def test_fock_table_of_a_haar_unitary(tmp_path):
    new, old = rerun("evolve_fock_haar_m8_1-3-6.json", tmp_path)
    new_p = [entry.pop("p") for entry in new["probabilities"]]
    old_p = [entry.pop("p") for entry in old["probabilities"]]
    assert new == old
    assert max(abs(a - b) for a, b in zip(new_p, old_p)) <= 1e-14


def test_reconstruction(tmp_path):
    new, old = rerun("reconstruct_m8.json", tmp_path)
    assert math.isclose(new["chi2"], old["chi2"], rel_tol=1e-9, abs_tol=0.0)
    assert [(p["step"], p["mode"]) for p in new["fitted_phases"]] == [
        (p["step"], p["mode"]) for p in old["fitted_phases"]
    ]
    pairs = [(a["value"], b["value"]) for a, b in zip(new["fitted_phases"], old["fitted_phases"])]

    def off(sign):
        return max(abs((a - sign * b + math.pi) % (2 * math.pi) - math.pi) for a, b in pairs)

    assert min(off(+1), off(-1)) <= 1e-6
