"""Write the golden artifacts into this directory.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

Each artifact is the ``--out`` file of one ``qfft`` command, run in-process
with its default seed and options. ``tests/test_golden.py`` runs the same
commands and compares their bytes with these files; it never writes here. A
change that moves an artifact regenerates it with this script and says which
files changed, by how much and why.
"""

from __future__ import annotations

import pathlib

from qfftsim.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent

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


def run(name: str, directory: pathlib.Path) -> int:
    """Exit code of the command that makes artifact ``name``, writing it into ``directory``."""
    return main([*COMMANDS[name], "--out", str(directory / name)])


if __name__ == "__main__":
    for name in COMMANDS:  # in order: simulate before the commands that read it
        if run(name, GOLDEN) != 0:
            raise SystemExit(f"qfft failed on {name}")
        print(f"{name}: {(GOLDEN / name).stat().st_size} bytes")
