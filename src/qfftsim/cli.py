"""Command-line surface: ``qfft <command>``.

Commands
--------
synth        write the butterfly circuit for m modes as JSON
layout       write the planar hypercube waveguide layout as JSON
evolve       output distribution of an input state under a particle model
simulate     synthesise a coincidence-counting experiment as CSV
curve        violation degree versus delay from a counts CSV
certify      hypothesis test from a counts CSV at zero delay
reconstruct  fit circuit phases to a measurement problem file

Each command has one handler: it reads the parsed arguments, calls the
library and writes the artifact. A default the library also has is read
from the library's constant. The parser is built once per process. Only
the handlers stamp provenance, after the keys of the library's ``to_json``.

Conventions: mode labels in flags and files are 1-based; all randomness
derives from one master seed (``--seed``) through fixed per-subsystem
streams (0 = experiment simulation, 2 = reconstruction restarts; 1 and 3
are unused, so that the others keep their seeds), so identical invocations
produce byte-identical artifacts. Only ``simulate`` and ``reconstruct`` draw
random numbers; the other commands accept ``--seed`` and ignore it.
``certify`` reports the row of ``curve`` at the smallest |delay|, a tie
going to the negative delay. ``--trials`` is still accepted and ignored.
Input files must be UTF-8 text.
Files are written atomically, with the permissions the umask gives a new file;
a file already at the temporary name ``.qfft-<pid>`` is left alone (exit 4).
Exit codes: 0 success, 2 invalid inputs or domain errors, 3 numerical
failures, 4 I/O or parse errors. ``curve`` and ``certify`` accept only
cyclic two-photon inputs, the modes m/2 apart that the suppression law
covers, and refuse a record of that input whose output mode exceeds m;
``simulate`` takes any pair. Every command that takes ``--unitary`` refuses
a matrix that is not unitary within ``--tol``, which must lie in [0, 1); the exact
Fourier matrix of ``--modes`` is checked at the library's default.
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import json
import os
import sys

import numpy as np

from . import __version__
from .certify import (
    DEFAULT_THRESHOLD_SIGMAS,
    MAX_EXPECTED_COUNTS,
    CoincidenceTable,
    certify,
    classical_pair_probabilities,
    read_coincidence_csv,
    violation_curve,
    write_coincidence_csv,
)
from .circuit import SYNTH_CAP, circuit_to_json, synthesize_qfft
from .errors import DomainError, NumericalError, ParseError, QfftError
from .fourier import occupation_from_modes, qft_matrix
from .layout import hypercube_layout
from .linalg import DEFAULT_TOL, assert_unitary, matrix_from_json
from .models import (
    DelayModel,
    distinguishable_distribution,
    fock_distribution,
    is_cyclic_state,
    mean_field_distribution,
    two_photon_coincidences,
)
from .reconstruct import DEFAULT_RESTARTS, fit_phases, problem_from_json, result_to_json

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

DEFAULT_SEED = 12345

#: Most records ``simulate`` writes, points x m(m+1)/2 output pairs, refused
#: before the delay grid is built: 10^4 points on 8 modes raise peak RSS by
#: ~18 MB over the 29 MB of the imported package.
MAX_RECORDS = 360_000

# fixed indices, 1 and 3 unused: a stream's seed never depends on which others exist
_SEED_STREAMS = {"simulate": 0, "reconstruct": 2}


def derived_seed(master: int, stream: str) -> int:
    """64-bit seed for one named subsystem stream of the master seed."""
    words = np.random.SeedSequence([int(master), _SEED_STREAMS[stream]]).generate_state(2)
    return (int(words[0]) << 32) | int(words[1])


def simulate_experiment(
    u, input_pair, delay_model, delta_x, expected_counts, rng, *, tol=DEFAULT_TOL
) -> CoincidenceTable:
    """Poisson-distributed coincidence counts around the model curves.

    The expected count of output pair (i, j) at delay dx is
    ``expected_counts * Q_ij(dx)``; each is drawn once from the given
    generator, in deterministic (delay, pair) order, by one call over the
    whole table of means. The table's rows are then ordered by delay.
    """
    if not 0 < expected_counts <= MAX_EXPECTED_COUNTS:
        raise DomainError(
            f"expected counts must be in (0, {MAX_EXPECTED_COUNTS:g}], got {expected_counts}"
        )
    curves = two_photon_coincidences(u, input_pair, delay_model, delta_x, tol=tol)
    counts = rng.poisson(expected_counts * curves.quantum)
    order = np.argsort(curves.delta_x, kind="stable")
    return CoincidenceTable(tuple(sorted(curves.input)), curves.delta_x[order], curves.pairs, counts[order])


def _write_text(out: str | None, write) -> None:
    """Call ``write`` on a text handle: stdout if ``out`` is None, else a new
    file in the target directory that replaces ``out`` once ``write`` returns."""
    if out is None:
        write(sys.stdout)
        return
    tmp = os.path.join(os.path.dirname(os.path.abspath(out)), f".qfft-{os.getpid()}")
    # O_EXCL never opens a file that is already there; the kernel applies the umask to 0o666
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            write(handle)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(out: str | None, obj) -> None:
    """Write ``json.dumps(obj, indent=2)`` and a newline, encoded as it is written."""
    chunks = json.JSONEncoder(indent=2).iterencode(obj)  # never an empty chunk
    # 2^16 chunks per write: neither one write per token nor the whole text at once
    batches = iter(lambda: "".join(itertools.islice(chunks, 1 << 16)), "")
    _write_text(out, lambda handle: handle.writelines(itertools.chain(batches, ["\n"])))


def _read_utf8(path: str) -> bytes:
    """The bytes of the file, checked to be UTF-8 text."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        byte = raw[exc.start]
        raise ParseError(f"{path}: not UTF-8 text: byte {byte:#04x} at offset {exc.start}") from None
    return raw


def _load_json(path: str):
    try:
        return json.loads(_read_utf8(path).decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc


def _parse_input(text: str) -> tuple[int, ...]:
    try:
        modes = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise DomainError(f"--input must be comma-separated mode labels, got {text!r}") from None
    if not modes or any(k < 1 for k in modes):
        raise DomainError(f"--input needs 1-based mode labels, got {text!r}")
    return modes


def _load_unitary(args) -> tuple[np.ndarray, str, float]:
    """The matrix, its provenance and the unitarity tolerance it is checked
    with: ``--tol`` for a ``--unitary`` file, else the library's default."""
    if not 0 <= args.tol < 1:  # NaN too; no rounding error reaches a defect of 1
        raise DomainError(f"--tol must lie in [0, 1), got {args.tol}")
    if args.unitary_path is not None:
        u = matrix_from_json(_load_json(args.unitary_path))
        return u, f"unitary:{args.unitary_path}", args.tol
    if args.modes > 2**SYNTH_CAP:
        raise DomainError(f"--modes must be at most {2**SYNTH_CAP}, got {args.modes}")
    return qft_matrix(args.modes), f"qft-model:m={args.modes}", DEFAULT_TOL


def _power_of_two(m: int) -> int:
    if m < 1 or m & (m - 1):
        raise DomainError(f"--modes must be a power of two, got {m}")
    return m.bit_length() - 1


def _zero_based(modes: tuple[int, ...], m: int) -> list[int]:
    """The 0-based modes of the 1-based ``--input`` labels, each at most m."""
    if any(k > m for k in modes):
        raise DomainError(f"--input {modes} out of range for m={m}")
    return [k - 1 for k in modes]


def _input_pair(modes: tuple[int, ...], m: int) -> tuple[int, int]:
    if len(modes) != 2 or modes[0] == modes[1]:
        raise DomainError(f"--input must name two distinct modes, got {modes}")
    return tuple(sorted(_zero_based(modes, m)))


def _delay_grid(span: float, points: int) -> np.ndarray:
    if points < 2:
        raise DomainError(f"--points must be at least 2, got {points}")
    if not 0 < span < float("inf"):
        raise DomainError(f"--span must be positive and finite, got {span}")
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.linspace(-span, span, points)
    if not np.all(np.isfinite(grid)):
        raise DomainError(f"--span {span} overflows the delay grid")
    return grid


def _analyzed_curve(args):
    """The violation curve of the ``--data`` file."""
    modes = _parse_input(args.input)
    u, source, tol = _load_unitary(args)
    u = assert_unitary(u, tol=tol, what="evolution matrix")
    m = u.shape[0]
    pair = _input_pair(modes, m)
    if not is_cyclic_state(occupation_from_modes(pair, m)):
        raise DomainError(
            f"--input {modes} is not a cyclic input on {m} modes: "
            "the suppression law needs two modes m/2 apart"
        )
    # newline=None reads \r and \r\n line ends as open() does; decoding as it
    # reads keeps the text at one byte per ASCII character, not io.StringIO's four
    stream = io.TextIOWrapper(io.BytesIO(_read_utf8(args.data_path)), encoding="utf-8", newline=None)
    inputs, outputs, delta_x, counts = read_coincidence_csv(stream, source=args.data_path)
    mine = np.all(inputs == pair, axis=1)
    outputs = outputs[mine]
    labels = tuple(k + 1 for k in pair)
    if not len(outputs):
        raise DomainError(f"no records for input pair {labels} in {args.data_path}")
    beyond = outputs[outputs[:, 1] >= m]
    if len(beyond):
        raise DomainError(
            f"{args.data_path} has output pair {tuple(int(k) + 1 for k in beyond[0])} for input pair "
            f"{labels}, beyond the {m} modes of the unitary"
        )
    pc = classical_pair_probabilities(u, pair)
    table = CoincidenceTable.from_cells(pair, delta_x[mine], outputs, counts[mine], sorted(pc))
    return violation_curve(table, pc), source, pair


def _synth(args) -> None:
    _write_json(args.out, circuit_to_json(synthesize_qfft(_power_of_two(args.modes))))


def _layout(args) -> None:
    _write_json(args.out, hypercube_layout(_power_of_two(args.modes)).to_json())


def _evolve(args) -> None:
    modes = _parse_input(args.input)
    u, source, tol = _load_unitary(args)
    state = occupation_from_modes(_zero_based(modes, u.shape[0]), u.shape[0])
    model = {"dist": distinguishable_distribution, "fock": fock_distribution, "mf": mean_field_distribution}
    dist = model[args.model](u, state, tol=tol)
    _write_json(args.out, {**dist.to_json(), "unitary_id": source})


def _simulate(args) -> None:
    modes = _parse_input(args.input)
    u, _, tol = _load_unitary(args)
    m = u.shape[0]
    pair = _input_pair(modes, m)
    model = DelayModel(alpha=args.alpha, coherence_length=args.coherence_length)
    rng = np.random.default_rng(derived_seed(args.seed, "simulate"))
    size = args.points * m * (m + 1) // 2
    if size > MAX_RECORDS:
        raise DomainError(f"--points {args.points} on {m} modes make {size} records, over {MAX_RECORDS}")
    grid = _delay_grid(args.span, args.points)
    table = simulate_experiment(u, pair, model, grid, args.expected_counts, rng, tol=tol)
    _write_text(args.out, functools.partial(write_coincidence_csv, table))


def _curve(args) -> None:
    curve, _, _ = _analyzed_curve(args)
    rows = [f"{dx!r},{d!r},{s!r}\n" for dx, d, s in curve]
    _write_text(args.out, lambda handle: handle.writelines(["delta_x,d_obs,sigma\n", *rows]))


def _certify(args) -> None:
    curve, source, pair = _analyzed_curve(args)
    dx0, d_obs, sigma = min(curve, key=lambda row: (abs(row[0]), row[0]))
    report = certify(d_obs, sigma, threshold_sigmas=args.threshold)
    _write_json(
        args.out,
        {
            **report.to_json(),
            "pc_source": source,
            "delta_x": dx0,
            "input": [k + 1 for k in pair],
            "threshold_sigmas": args.threshold,
        },
    )


def _reconstruct(args) -> None:
    problem = problem_from_json(_load_json(args.problem_path))
    target = None
    if args.target == "qft":
        target = qft_matrix(problem.template.m)
    elif args.target is not None:
        target = matrix_from_json(_load_json(args.target))
    result = fit_phases(
        problem,
        restarts=args.restarts,
        seed=derived_seed(args.seed, "reconstruct"),
        target=target,
    )
    _write_json(args.out, result_to_json(result))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``qfft`` parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qfft",
        description="Simulate, synthesise and certify Fourier-transform photonic interferometers.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, handler):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed (default %(default)s)")
        p.add_argument("--out", help="output path (defaults to stdout)")
        p.set_defaults(handler=handler)

    def add_unitary(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--unitary", dest="unitary_path", help="matrix JSON file")
        group.add_argument("--modes", type=int, help="use the exact Fourier matrix on this many modes")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="unitarity tolerance for a --unitary matrix (default %(default)s)")

    p = sub.add_parser("synth", help="butterfly circuit JSON for m = 2^p modes")
    p.add_argument("--modes", type=int, required=True)
    add_common(p, _synth)

    p = sub.add_parser("layout", help="planar hypercube waveguide layout JSON")
    p.add_argument("--modes", type=int, required=True)
    add_common(p, _layout)

    p = sub.add_parser("evolve", help="output distribution of an input state")
    add_unitary(p)
    p.add_argument("--input", required=True, help="comma-separated 1-based occupied modes, e.g. 1,3")
    p.add_argument("--model", choices=["dist", "fock", "mf"], default="fock")
    add_common(p, _evolve)

    p = sub.add_parser("simulate", help="synthetic coincidence-counting experiment CSV")
    add_unitary(p)
    p.add_argument("--input", required=True, help="two 1-based input modes, e.g. 2,4")
    p.add_argument("--alpha", type=float, default=0.95, help="source indistinguishability at zero delay")
    p.add_argument("--coherence-length", type=float, default=DelayModel.coherence_length,
                   help="overlap decay length (um)")
    p.add_argument("--span", type=float, default=300.0, help="half-width of the delay grid (um)")
    p.add_argument("--points", type=int, default=41, help="number of delay points")
    p.add_argument("--counts", dest="expected_counts", type=float, default=1e5,
                   help="expected counts per delay point")
    add_common(p, _simulate)

    p = sub.add_parser("curve", help="violation degree versus delay from a counts CSV")
    p.add_argument("--data", dest="data_path", required=True, help="coincidence CSV")
    add_unitary(p)
    p.add_argument("--input", required=True, help="two 1-based input modes m/2 apart, e.g. 1,5 on 8 modes")
    p.add_argument("--trials", type=int, help="ignored: the error bar is exact")
    add_common(p, _curve)

    p = sub.add_parser("certify", help="hypothesis test at the smallest |delay| point")
    p.add_argument("--data", dest="data_path", required=True, help="coincidence CSV")
    add_unitary(p)
    p.add_argument("--input", required=True, help="two 1-based input modes m/2 apart, e.g. 1,5 on 8 modes")
    p.add_argument("--trials", type=int, help="ignored: the error bar is exact")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD_SIGMAS,
                   help="rejection threshold in sigmas")
    add_common(p, _certify)

    p = sub.add_parser("reconstruct", help="fit circuit phases to a measurement problem")
    p.add_argument("--problem", dest="problem_path", required=True, help="problem JSON")
    p.add_argument("--target", help="'qft' or a matrix JSON file for the fidelity report")
    p.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)
    add_common(p, _reconstruct)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise DomainError(f"--seed must be non-negative, got {args.seed}")
        args.handler(args)
        return EXIT_OK
    except (ParseError, OSError) as exc:
        print(f"qfft: error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericalError as exc:
        print(f"qfft: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except QfftError as exc:
        print(f"qfft: invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
