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

Conventions: mode labels in flags and files are 1-based; all randomness
derives from one master seed (``--seed``) through fixed per-subsystem
streams (0 = experiment simulation, 1 = Monte Carlo error bars,
2 = reconstruction restarts, 3 = mean-field sampling), so identical
invocations produce byte-identical artifacts. Stream 1 spawns one generator
per curve row, so ``certify`` resamples only the row at the smallest |delay|
and reports exactly that row of ``curve``. Files are written atomically.
Exit codes: 0 success, 2 invalid inputs or domain errors, 3 numerical
failures, 4 I/O or parse errors. ``curve`` and ``certify`` accept only
cyclic two-photon inputs, the modes m/2 apart that the suppression law
covers; ``simulate`` takes any pair.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import __version__
from .certify import (
    MAX_EXPECTED_COUNTS,
    CoincidenceRecord,
    certify,
    classical_pair_probabilities,
    read_coincidence_csv,
    violation_curve,
    write_coincidence_csv,
)
from .circuit import circuit_to_json, synthesize_qfft
from .errors import DomainError, NumericalError, ParseError, QfftError
from .fourier import occupation_from_modes, occupied_modes, partition_outputs, qft_matrix
from .layout import hypercube_layout
from .linalg import matrix_from_json
from .models import (
    DISTINGUISHABLE,
    FOCK,
    MEAN_FIELD,
    DelayModel,
    distinguishable_distribution,
    fock_distribution,
    mean_field_distribution,
    two_photon_coincidences,
)
from .reconstruct import fit_phases, problem_from_json, result_to_json

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

DEFAULT_SEED = 12345

#: Most delay points ``simulate`` accepts: 10^4 points on 8 modes are 360,000
#: records and raise peak RSS by ~110 MB.
MAX_POINTS = 10**4

_SEED_STREAMS = {"simulate": 0, "monte_carlo": 1, "reconstruct": 2, "mean_field": 3}

_MODEL_FLAGS = {"fock": FOCK, "dist": DISTINGUISHABLE, "mf": MEAN_FIELD}


def derived_seed(master: int, stream: str) -> int:
    """64-bit seed for one named subsystem stream of the master seed."""
    words = np.random.SeedSequence([int(master), _SEED_STREAMS[stream]]).generate_state(2)
    return (int(words[0]) << 32) | int(words[1])


@dataclass
class RunConfig:
    """Validated run parameters for one command invocation."""

    command: str
    seed: int = DEFAULT_SEED
    out: str | None = None
    modes: int | None = None
    unitary_path: str | None = None
    data_path: str | None = None
    problem_path: str | None = None
    target: str | None = None
    input_modes: tuple[int, ...] = ()
    model: str = FOCK
    method: str = "quadrature"
    samples: int = 64
    alpha: float = 0.95
    coherence_length: float = 100.0
    span: float = 300.0
    points: int = 41
    expected_counts: float = 1e5
    trials: int = 3000
    threshold: float = 3.0
    restarts: int = 32
    tol: float = 1e-10


def simulate_experiment(
    u, input_pair, delay_model, delta_x, expected_counts, rng, *, tol=1e-10
) -> list[CoincidenceRecord]:
    """Poisson-distributed coincidence counts around the model curves.

    The expected count of output pair (i, j) at delay dx is
    ``expected_counts * Q_ij(dx)``; each is drawn once from the given
    generator, in deterministic (delay, pair) order, by one call over the
    whole table of means.
    """
    if not 0 < expected_counts <= MAX_EXPECTED_COUNTS:
        raise DomainError(
            f"expected counts must be in (0, {MAX_EXPECTED_COUNTS:g}], got {expected_counts}"
        )
    curves = two_photon_coincidences(u, input_pair, delay_model, delta_x, tol=tol)
    a, b = sorted(curves.input)
    pairs = curves.pairs()
    q = np.array([curves.quantum[pair] for pair in pairs], dtype=float).T
    counts = rng.poisson(expected_counts * np.maximum(q, 0.0))
    return [
        CoincidenceRecord(input=(a, b), output=pair, delta_x=float(dx), counts=int(n))
        for dx, row in zip(curves.delta_x, counts)
        for pair, n in zip(pairs, row)
    ]


def _write_text(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(prefix=".qfft-", dir=directory)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(out: str | None, obj) -> None:
    _write_text(out, json.dumps(obj, indent=2) + "\n")


def _load_json(path: str):
    with open(path) as handle:
        try:
            return json.load(handle)
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


def _load_unitary(config: RunConfig) -> tuple[np.ndarray, str]:
    if config.unitary_path is not None:
        u = matrix_from_json(_load_json(config.unitary_path))
        return u, f"unitary:{config.unitary_path}"
    if config.modes is not None:
        return qft_matrix(config.modes), f"qft-model:m={config.modes}"
    raise DomainError("either --unitary or --modes is required")


def _power_of_two(m: int) -> int:
    if m < 1 or m & (m - 1):
        raise DomainError(f"--modes must be a power of two, got {m}")
    return m.bit_length() - 1


def _input_pair(config: RunConfig, m: int) -> tuple[int, int]:
    modes = config.input_modes
    if len(modes) != 2 or modes[0] == modes[1]:
        raise DomainError(f"--input must name two distinct modes, got {modes}")
    if any(k > m for k in modes):
        raise DomainError(f"--input {modes} out of range for m={m}")
    a, b = sorted(k - 1 for k in modes)
    return a, b


def _forbidden_pairs(m: int) -> list[tuple[int, int]]:
    partition = partition_outputs(2, m, collision_free_only=True)
    pairs = []
    for state in partition.forbidden:
        i, j = occupied_modes(state)
        pairs.append((i, j))
    return sorted(pairs)


def _delay_grid(config: RunConfig) -> np.ndarray:
    if not 2 <= config.points <= MAX_POINTS:
        raise DomainError(f"--points must be in [2, {MAX_POINTS}], got {config.points}")
    if not 0 < config.span < float("inf"):
        raise DomainError(f"--span must be positive and finite, got {config.span}")
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.linspace(-config.span, config.span, config.points)
    if not np.all(np.isfinite(grid)):
        raise DomainError(f"--span {config.span} overflows the delay grid")
    return grid


def _analyzed_curve(config: RunConfig, *, at_zero: bool = False):
    """The violation curve of ``config``'s data, or with ``at_zero`` only its
    row at the smallest |delay|."""
    u, source = _load_unitary(config)
    m = u.shape[0]
    pair = _input_pair(config, m)
    if 2 * (pair[1] - pair[0]) != m:
        raise DomainError(
            f"--input {config.input_modes} is not a cyclic input on {m} modes: "
            "the suppression law needs two modes m/2 apart"
        )
    with open(config.data_path) as handle:
        records = read_coincidence_csv(handle, source=config.data_path)
    records = [r for r in records if r.input == pair]
    if not records:
        raise DomainError(f"no records for input pair {tuple(k + 1 for k in pair)} in {config.data_path}")
    pc = classical_pair_probabilities(u, pair, _forbidden_pairs(m))
    at = None
    if at_zero:
        delays = {r.delta_x for r in records if r.output in pc}
        at = min(delays, key=lambda dx: (abs(dx), dx), default=None)
    curve = violation_curve(
        records,
        pc,
        trials=config.trials,
        seed=derived_seed(config.seed, "monte_carlo"),
        at=at,
    )
    return curve, pc, source, pair


def run(config: RunConfig) -> int:
    """Execute one configured command; returns the process exit status."""
    if config.seed < 0:
        raise DomainError(f"--seed must be non-negative, got {config.seed}")
    if config.command == "synth":
        p = _power_of_two(config.modes)
        _write_json(config.out, circuit_to_json(synthesize_qfft(p)))
    elif config.command == "layout":
        p = _power_of_two(config.modes)
        _write_json(config.out, hypercube_layout(p).to_json())
    elif config.command == "evolve":
        u, source = _load_unitary(config)
        state = occupation_from_modes([k - 1 for k in config.input_modes], u.shape[0])
        if config.model == FOCK:
            dist = fock_distribution(u, state, unitary_id=source, tol=config.tol)
        elif config.model == DISTINGUISHABLE:
            dist = distinguishable_distribution(u, state, unitary_id=source, tol=config.tol)
        else:
            dist = mean_field_distribution(
                u,
                state,
                method=config.method,
                samples=config.samples,
                seed=derived_seed(config.seed, "mean_field"),
                unitary_id=source,
                tol=config.tol,
            )
        _write_json(config.out, dist.to_json())
    elif config.command == "simulate":
        u, _ = _load_unitary(config)
        pair = _input_pair(config, u.shape[0])
        model = DelayModel(alpha=config.alpha, coherence_length=config.coherence_length)
        rng = np.random.default_rng(derived_seed(config.seed, "simulate"))
        records = simulate_experiment(
            u, pair, model, _delay_grid(config), config.expected_counts, rng, tol=config.tol
        )
        buffer = io.StringIO()
        write_coincidence_csv(records, buffer)
        _write_text(config.out, buffer.getvalue())
    elif config.command == "curve":
        curve, _, _, _ = _analyzed_curve(config)
        lines = ["delta_x,d_obs,sigma"]
        lines += [f"{dx!r},{d!r},{s!r}" for dx, d, s in curve]
        _write_text(config.out, "\n".join(lines) + "\n")
    elif config.command == "certify":
        [(dx0, d_obs, sigma)], pc, source, pair = _analyzed_curve(config, at_zero=True)
        report = certify(d_obs, sigma, threshold_sigmas=config.threshold)
        _write_json(
            config.out,
            report.to_json(
                pc_source=source,
                delta_x=dx0,
                input=[k + 1 for k in pair],
                threshold_sigmas=config.threshold,
            ),
        )
    elif config.command == "reconstruct":
        problem = problem_from_json(_load_json(config.problem_path))
        target = None
        if config.target == "qft":
            target = qft_matrix(problem.template.m)
        elif config.target is not None:
            target = matrix_from_json(_load_json(config.target))
        result = fit_phases(
            problem,
            restarts=config.restarts,
            seed=derived_seed(config.seed, "reconstruct"),
            target=target,
        )
        _write_json(config.out, result_to_json(result))
    else:
        raise DomainError(f"unknown command {config.command!r}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfft",
        description="Simulate, synthesise and certify Fourier-transform photonic interferometers.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed (default %(default)s)")
        p.add_argument("--out", help="output path (defaults to stdout)")

    def add_unitary(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--unitary", dest="unitary_path", help="matrix JSON file")
        group.add_argument("--modes", type=int, help="use the exact Fourier matrix on this many modes")
        p.add_argument("--tol", type=float, default=1e-10,
                       help="unitarity tolerance for supplied matrices (default %(default)s)")

    p = sub.add_parser("synth", help="butterfly circuit JSON for m = 2^p modes")
    p.add_argument("--modes", type=int, required=True)
    add_common(p)

    p = sub.add_parser("layout", help="planar hypercube waveguide layout JSON")
    p.add_argument("--modes", type=int, required=True)
    add_common(p)

    p = sub.add_parser("evolve", help="output distribution of an input state")
    add_unitary(p)
    p.add_argument("--input", required=True, help="comma-separated 1-based occupied modes, e.g. 1,3")
    p.add_argument("--model", choices=sorted(_MODEL_FLAGS), default="fock")
    p.add_argument("--method", choices=["quadrature", "monte_carlo"], default="quadrature",
                   help="mean-field averaging method")
    p.add_argument("--samples", type=int, default=64,
                   help="Monte Carlo draws for --method monte_carlo (default %(default)s)")
    add_common(p)

    p = sub.add_parser("simulate", help="synthetic coincidence-counting experiment CSV")
    add_unitary(p)
    p.add_argument("--input", required=True, help="two 1-based input modes, e.g. 2,4")
    p.add_argument("--alpha", type=float, default=0.95, help="source indistinguishability at zero delay")
    p.add_argument("--coherence-length", type=float, default=100.0, help="overlap decay length (um)")
    p.add_argument("--span", type=float, default=300.0, help="half-width of the delay grid (um)")
    p.add_argument("--points", type=int, default=41, help="number of delay points")
    p.add_argument("--counts", dest="expected_counts", type=float, default=1e5,
                   help="expected counts per delay point")
    add_common(p)

    p = sub.add_parser("curve", help="violation degree versus delay from a counts CSV")
    p.add_argument("--data", dest="data_path", required=True, help="coincidence CSV")
    add_unitary(p)
    p.add_argument("--input", required=True, help="two 1-based input modes m/2 apart, e.g. 1,5 on 8 modes")
    p.add_argument("--trials", type=int, default=3000, help="Monte Carlo trials for error bars")
    add_common(p)

    p = sub.add_parser("certify", help="hypothesis test at the smallest |delay| point")
    p.add_argument("--data", dest="data_path", required=True, help="coincidence CSV")
    add_unitary(p)
    p.add_argument("--input", required=True, help="two 1-based input modes m/2 apart, e.g. 1,5 on 8 modes")
    p.add_argument("--trials", type=int, default=3000)
    p.add_argument("--threshold", type=float, default=3.0, help="rejection threshold in sigmas")
    add_common(p)

    p = sub.add_parser("reconstruct", help="fit circuit phases to a measurement problem")
    p.add_argument("--problem", dest="problem_path", required=True, help="problem JSON")
    p.add_argument("--target", help="'qft' or a matrix JSON file for the fidelity report")
    p.add_argument("--restarts", type=int, default=32)
    add_common(p)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    for name in vars(args):
        if name == "command":
            continue
        value = getattr(args, name)
        if name == "input":
            config.input_modes = _parse_input(value)
        elif name == "model":
            config.model = _MODEL_FLAGS[value]
        elif value is not None:
            setattr(config, name, value)
    return config


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return run(_config_from_args(args))
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
