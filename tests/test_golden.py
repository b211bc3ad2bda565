"""Every golden artifact in ``tests/golden`` is reproduced byte for byte.

All of them run on the exact Fourier matrix, where the outputs are pinned
exactly. The files are written only by ``tests/golden/regenerate.py``.
"""

import pytest

from golden.regenerate import COMMANDS, GOLDEN, run


def test_every_artifact_has_a_file():
    assert sorted(p.name for p in GOLDEN.iterdir() if p.suffix in (".json", ".csv")) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_artifact_is_byte_identical(name, tmp_path):
    assert run(name, tmp_path) == 0
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), (
        f"{name} moved; if on purpose, rerun tests/golden/regenerate.py and say why"
    )
