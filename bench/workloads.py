"""The three benchmark workloads.

Each workload turns a seed into one cycle of op inputs (plain JSON data, so
the same seed gives byte-identical inputs), prepares whatever the program
reads from disk, runs one op, and checks the op's output. A run repeats the
cycle, so every run of a workload does the same mix of ops.

The ops call the package through the names this module imports. In a traced
pass the tracer wraps those bindings, so each call made from here is the
outermost span of its layer.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from qfftsim import (
    ReconstructionProblem,
    circuit_to_unitary,
    distinguishable_distribution,
    fock_distribution,
    mean_field_distribution,
    nontrivial_phase_positions,
    partition_outputs,
    qft_matrix,
    set_phases,
    synthesize_qfft,
)
from qfftsim.cli import main as qfft_main
from qfftsim.linalg import matrix_to_json
from qfftsim.reconstruct import problem_to_json, singles_from_unitary, visibilities_from_unitary

TWO_PI = 2.0 * math.pi


def _child_seed(seed: int, *path: int) -> int:
    """A 31-bit seed for one named sub-stream of the workload seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0] >> 1)


def _cli(argv) -> int:
    """Run ``qfft`` in-process; argparse's SystemExit becomes its exit code."""
    try:
        return qfft_main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def _sizes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


class CertifyM8:
    """``qfft simulate -> curve -> certify`` on the exact 8-mode Fourier matrix."""

    name = "certify_m8"
    pairs = ("1,5", "2,6", "3,7", "4,8")
    flags = ("--alpha", "0.95", "--points", "41", "--counts", "100000")
    trials = 3000

    def inputs(self, seed):
        return [
            {"input": pair, "seed": _child_seed(seed, k)} for k, pair in enumerate(self.pairs)
        ]

    def prepare(self, items, workdir):
        names = ("counts.csv", "curve.csv", "report.json")
        return [{**item, **{n.split(".")[0]: os.path.join(workdir, f"{k}-{n}") for n in names}}
                for k, item in enumerate(items)]

    def kind(self, prep):
        return f"input {prep['input']}"

    def run(self, prep):
        common = ("--modes", 8, "--input", prep["input"], "--seed", prep["seed"])
        steps = (
            ("simulate", *common, *self.flags, "--out", prep["counts"]),
            ("curve", "--data", prep["counts"], *common, "--trials", self.trials, "--out", prep["curve"]),
            ("certify", "--data", prep["counts"], *common, "--trials", self.trials, "--out", prep["report"]),
        )
        codes = []
        for argv in steps:
            codes.append(_cli(argv))
            if codes[-1] != 0:
                break
        return codes

    def check(self, prep, codes):
        if codes != [0, 0, 0]:
            return f"exit codes {codes}"
        with open(prep["curve"]) as handle:
            rows = handle.read().splitlines()[1:]
        if len(rows) != 41:
            return f"{len(rows)} curve rows, expected 41"
        with open(prep["report"]) as handle:
            verdict = json.load(handle)["verdict"]
        if verdict != "rules_out_both":
            return f"verdict {verdict}"
        return None

    def bytes_out(self, prep):
        return _sizes((prep["counts"], prep["curve"], prep["report"]))


class ReconstructM8:
    """``qfft reconstruct --restarts 8`` on noisy acceptance-criterion-7 problems."""

    name = "reconstruct_m8"
    problems = 4
    sigma = 0.02

    def inputs(self, seed):
        template = synthesize_qfft(3)
        free = tuple(nontrivial_phase_positions(template))
        pairs = [(a, b) for a in range(8) for b in range(a + 1, 8)]
        items = []
        for rep in range(self.problems):
            rng = np.random.default_rng(_child_seed(seed, rep))
            phases = rng.uniform(0, TWO_PI, len(free))
            u_gen = circuit_to_unitary(set_phases(template, dict(zip(free, phases))))
            noisy = {
                key: (v + rng.normal(0.0, self.sigma), s)
                for key, (v, s) in visibilities_from_unitary(u_gen, pairs, self.sigma).items()
            }
            problem = ReconstructionProblem(template, free, singles_from_unitary(u_gen), noisy)
            items.append({
                "problem": problem_to_json(problem),
                "target": matrix_to_json(u_gen),
                "seed": _child_seed(seed, rep, 1),
            })
        return items

    def prepare(self, items, workdir):
        prepared = []
        for k, item in enumerate(items):
            paths = {n: os.path.join(workdir, f"{k}-{n}.json") for n in ("problem", "target", "result")}
            for n in ("problem", "target"):
                with open(paths[n], "w") as handle:
                    json.dump(item[n], handle)
            prepared.append({"seed": item["seed"], "k": k, **paths})
        return prepared

    def kind(self, prep):
        return f"problem {prep['k']}"

    def run(self, prep):
        return _cli((
            "reconstruct", "--problem", prep["problem"], "--target", prep["target"],
            "--restarts", 8, "--seed", prep["seed"], "--out", prep["result"],
        ))

    def check(self, prep, code):
        if code != 0:
            return f"exit code {code}"
        with open(prep["result"]) as handle:
            fid = json.load(handle)["fidelity_vs_target"]
        if not fid >= 0.99:
            return f"gauge-fixed fidelity {fid} < 0.99"
        return None

    def bytes_out(self, prep):
        return _sizes((prep["result"],))


class ReferenceStats:
    """The README quick start for cyclic inputs of (n, m) = (4, 16) and (3, 9).

    One cycle is the four (4, 16) inputs and one (3, 9) input picked by the
    seed; the (3, 9) inputs are translations of one another and cost the
    same. Four fast ops to one slow one keep the median op inside the
    (4, 16) population, away from its edge.

    The forbidden set is every n-photon output whose mode-label sum is not a
    multiple of n, bunched outputs included; over that set distinguishable
    photons on a Fourier matrix have forbidden mass exactly (n - 1) / n.

    The unitary is the Fourier matrix dressed with seeded input and output
    mode phases, which leave every outcome probability unchanged.
    """

    name = "reference_stats"
    shapes = ((4, 2), (3, 2))  # (n, p) with m = n**p

    def inputs(self, seed):
        items = []
        for n, p in self.shapes:
            m = n**p
            rng = np.random.default_rng(_child_seed(seed, m))
            phases_out = rng.uniform(0, TWO_PI, m).tolist()
            phases_in = rng.uniform(0, TWO_PI, m).tolist()
            period = m // n
            starts = range(period) if n == 4 else [int(rng.integers(period))]
            for s in starts:
                state = [0] * m
                for r in range(n):
                    state[s + r * period] = 1
                items.append({"n": n, "m": m, "input": state,
                              "phases_out": phases_out, "phases_in": phases_in})
        return items

    def prepare(self, items, workdir):
        prepared = []
        for item in items:
            d_out = np.exp(1j * np.array(item["phases_out"]))
            d_in = np.exp(1j * np.array(item["phases_in"]))
            u = d_out[:, None] * qft_matrix(item["m"]) * d_in[None, :]
            prepared.append({"n": item["n"], "m": item["m"], "input": tuple(item["input"]), "u": u})
        return prepared

    def kind(self, prep):
        return f"(n, m) = ({prep['n']}, {prep['m']})"

    def run(self, prep):
        n, m, u, state = prep["n"], prep["m"], prep["u"], prep["input"]
        forbidden = partition_outputs(n, m).forbidden
        makers = [fock_distribution, distinguishable_distribution]
        if n == 3:
            makers.append(mean_field_distribution)
        dists = [make(u, state) for make in makers]
        masses = [sum(d.probabilities[out] for out in forbidden) for d in dists]
        return dists, masses

    def check(self, prep, result):
        dists, masses = result
        n = prep["n"]
        for dist in dists:
            if abs(dist.total() - 1.0) > 1e-9:
                return f"{dist.model} probabilities sum to {dist.total()!r}"
        if not masses[0] < 1e-10:
            return f"fock forbidden mass {masses[0]!r}"
        if abs(masses[1] - (n - 1) / n) > 1e-9:
            return f"distinguishable forbidden mass {masses[1]!r}, expected {(n - 1) / n!r}"
        return None

    def bytes_out(self, prep):
        return 0


WORKLOADS = {w.name: w for w in (CertifyM8(), ReconstructM8(), ReferenceStats())}
