"""Write the golden artifacts into this directory.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

Each artifact is the ``--out`` file of one ``qfft`` command, run in-process
with its default seed and options. ``tests/test_golden.py`` runs the same
commands and compares their bytes with these files; it never writes here. A
change that moves an artifact regenerates it with this script and says which
files changed, by how much and why.

The artifacts off the exact Fourier matrix live in ``tolerant/`` with their
seeded input files, and ``tests/test_golden_tolerant.py`` compares them within
stated tolerances: a Fock table of a Haar unitary, and a phase reconstruction.
"""

from __future__ import annotations

import json
import os
import pathlib

import numpy as np

from qfftsim.circuit import TWO_PI, circuit_to_unitary, nontrivial_phase_positions, set_phases, synthesize_qfft
from qfftsim.cli import main
from qfftsim.linalg import haar_random_unitary, matrix_to_json
from qfftsim.reconstruct import (
    ReconstructionProblem,
    problem_to_json,
    singles_from_unitary,
    visibilities_from_unitary,
)

GOLDEN = pathlib.Path(__file__).resolve().parent
TOLERANT_DIR = GOLDEN / "tolerant"

_EVOLVE = {"m8_1-5": ("8", "1,5"), "m9_1-4-7": ("9", "1,4,7")}

#: Artifact file name -> ``qfft`` arguments without ``--out``. ``curve`` and
#: ``certify`` read the golden ``simulate`` file, so each artifact is checked
#: on its own inputs.
COMMANDS = {
    "synth_m8.json": ["synth", "--modes", "8"],
    "layout_m8.json": ["layout", "--modes", "8"],
    **{
        f"evolve_{model}_{label}.json": ["evolve", "--modes", m, "--input", modes, "--model", model]
        for label, (m, modes) in _EVOLVE.items()
        for model in ("dist", "fock", "mf")
    },
    "simulate_m8_1-5.csv": ["simulate", "--modes", "8", "--input", "1,5"],
    "curve_m8_1-5.csv": [
        "curve", "--data", str(GOLDEN / "simulate_m8_1-5.csv"), "--modes", "8", "--input", "1,5"
    ],
    "certify_m8_1-5.json": [
        "certify", "--data", str(GOLDEN / "simulate_m8_1-5.csv"), "--modes", "8", "--input", "1,5"
    ],
}


#: Tolerant artifact file name -> ``qfft`` arguments without ``--out``, run
#: from ``TOLERANT_DIR`` so that the ``unitary_id`` of ``evolve`` holds no
#: checkout's path.
TOLERANT = {
    "evolve_fock_haar_m8_1-3-6.json": [
        "evolve", "--unitary", "haar_m8.json", "--input", "1,3,6", "--model", "fock"
    ],
    "reconstruct_m8.json": ["reconstruct", "--problem", "problem_m8.json", "--restarts", "8"],
}


def haar_m8() -> dict:
    """A seeded Haar-random 8 x 8 unitary."""
    return matrix_to_json(haar_random_unitary(8, np.random.default_rng(8)))


def problem_m8() -> dict:
    """The 8-mode, 5-phase butterfly at seeded phases, measured on 6 seeded input
    pairs with visibility noise of sigma 0.02: few enough pairs to keep the file
    small, enough for a full-rank Jacobian at the fit."""
    rng = np.random.default_rng(4)
    template = synthesize_qfft(3)
    free = tuple(nontrivial_phase_positions(template))
    pairs = [(a, b) for a in range(8) for b in range(a + 1, 8)]
    chosen = sorted(pairs[k] for k in rng.choice(len(pairs), 6, replace=False))
    u = circuit_to_unitary(set_phases(template, dict(zip(free, rng.uniform(0, TWO_PI, len(free))))))
    noisy = {
        key: (v + rng.normal(0.0, 0.02), s)
        for key, (v, s) in visibilities_from_unitary(u, chosen, 0.02).items()
    }
    return problem_to_json(ReconstructionProblem(template, free, singles_from_unitary(u), noisy))


#: The seeded inputs of ``TOLERANT``: file name -> the function of its JSON value.
INPUTS = {"haar_m8.json": haar_m8, "problem_m8.json": problem_m8}


def run(name: str, directory: pathlib.Path) -> int:
    """Exit code of the command that makes artifact ``name``, writing it into ``directory``."""
    return main([*COMMANDS[name], "--out", str(directory / name)])


def run_tolerant(name: str, directory: pathlib.Path) -> int:
    """Exit code of the command that makes tolerant artifact ``name``, run from
    ``TOLERANT_DIR`` and writing it into ``directory``."""
    previous = os.getcwd()
    os.chdir(TOLERANT_DIR)
    try:
        return main([*TOLERANT[name], "--out", str(pathlib.Path(directory).resolve() / name)])
    finally:
        os.chdir(previous)


if __name__ == "__main__":
    for name in COMMANDS:  # in order: simulate before the commands that read it
        if run(name, GOLDEN) != 0:
            raise SystemExit(f"qfft failed on {name}")
        print(f"{name}: {(GOLDEN / name).stat().st_size} bytes")
    TOLERANT_DIR.mkdir(exist_ok=True)
    for name, make in INPUTS.items():
        (TOLERANT_DIR / name).write_text(json.dumps(make(), indent=2) + "\n")
    for name in TOLERANT:
        if run_tolerant(name, TOLERANT_DIR) != 0:
            raise SystemExit(f"qfft failed on {name}")
    for path in sorted(TOLERANT_DIR.iterdir()):
        print(f"tolerant/{path.name}: {path.stat().st_size} bytes")
