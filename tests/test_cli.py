import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from qfftsim import cli, fourier, models, reconstruct
from qfftsim.certify import (
    CoincidenceTable,
    classical_pair_probabilities,
    read_coincidence_csv,
    write_coincidence_csv,
)
from qfftsim.circuit import (
    SYNTH_CAP,
    circuit_to_unitary,
    nontrivial_phase_positions,
    set_phases,
    synthesize_qfft,
)
from qfftsim.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    DEFAULT_SEED,
    MAX_RECORDS,
    derived_seed,
    main,
    simulate_experiment,
)
from qfftsim.errors import DomainError, QfftError
from qfftsim.fourier import (
    MAX_OUTCOME_ENTRIES,
    cyclic_inputs,
    enumerate_outputs,
    occupied_modes,
    partition_outputs,
    qft_matrix,
)
from qfftsim.linalg import matrix_to_json
from qfftsim.models import (
    DelayModel,
    distinguishable_distribution,
    fock_distribution,
    mean_field_distribution,
    two_photon_coincidences,
)
from qfftsim.reconstruct import (
    ReconstructionProblem,
    problem_to_json,
    singles_from_unitary,
    visibilities_from_unitary,
)

from oracles import simulated_counts_loop


def run_cli(*argv):
    return main(list(argv))


class TestSynthCommand:
    def test_eight_mode_circuit_file(self, tmp_path):
        out = tmp_path / "circuit.json"
        assert run_cli("synth", "--modes", "8", "--out", str(out)) == EXIT_OK
        obj = json.loads(out.read_text())
        assert sum(len(layer["couplers"]) for layer in obj["layers"]) == 12
        assert obj["relabeling"] == [[2, 5], [4, 7]]

    def test_rejects_non_power_of_two(self, tmp_path, capsys):
        code = run_cli("synth", "--modes", "6", "--out", str(tmp_path / "c.json"))
        assert code == EXIT_VALIDATION
        assert "power of two" in capsys.readouterr().err


class TestLayoutCommand:
    def test_layout_file(self, tmp_path):
        out = tmp_path / "layout.json"
        assert run_cli("layout", "--modes", "8", "--out", str(out)) == EXIT_OK
        obj = json.loads(out.read_text())
        assert len(obj["vertices"]) == 8
        assert len(obj["steps"]) == 3


class TestEvolveCommand:
    def test_fock_forbidden_entries_are_zero(self, tmp_path):
        out = tmp_path / "dist.json"
        assert (
            run_cli("evolve", "--modes", "4", "--input", "1,3", "--model", "fock",
                    "--out", str(out))
            == EXIT_OK
        )
        obj = json.loads(out.read_text())
        assert obj["model"] == "fock"
        zeros = [
            entry
            for entry in obj["probabilities"]
            if max(entry["output"]) == 1 and entry["p"] < 1e-12
        ]
        assert len(zeros) == 4

    def test_matches_in_memory_pipeline_exactly(self, tmp_path):
        circuit_path = tmp_path / "circuit.json"
        dist_path = tmp_path / "dist.json"
        assert run_cli("synth", "--modes", "4", "--out", str(circuit_path)) == EXIT_OK

        from qfftsim.circuit import circuit_from_json, circuit_to_unitary

        circuit = circuit_from_json(json.loads(circuit_path.read_text()))
        u = circuit_to_unitary(circuit)
        expected = fock_distribution(u, (1, 0, 1, 0))

        # evolve on the composed unitary written through the matrix JSON format
        from qfftsim.linalg import matrix_to_json

        u_path = tmp_path / "u.json"
        u_path.write_text(json.dumps(matrix_to_json(u)))
        assert (
            run_cli("evolve", "--unitary", str(u_path), "--input", "1,3", "--out", str(dist_path))
            == EXIT_OK
        )
        obj = json.loads(dist_path.read_text())
        for entry in obj["probabilities"]:
            assert expected.probabilities[tuple(entry["output"])] == entry["p"]

    def test_tolerance_override_for_noisy_unitary(self, tmp_path):
        from qfftsim.linalg import matrix_to_json

        rng = np.random.default_rng(13)
        u = qft_matrix(4) + 1e-6 * rng.standard_normal((4, 4))
        u_path = tmp_path / "noisy.json"
        u_path.write_text(json.dumps(matrix_to_json(u)))
        args = ["evolve", "--unitary", str(u_path), "--input", "1,3",
                "--out", str(tmp_path / "d.json")]
        assert run_cli(*args) == EXIT_VALIDATION
        assert run_cli(*args, "--tol", "1e-4") == EXIT_OK

    def test_non_finite_unitary_exits_2(self, tmp_path, capsys):
        u = matrix_to_json(qft_matrix(4))
        u["entries"][5] = [float("nan"), 0.0]
        u_path = tmp_path / "nan.json"
        u_path.write_text(json.dumps(u))
        code = run_cli("evolve", "--unitary", str(u_path), "--input", "1,3",
                       "--out", str(tmp_path / "d.json"))
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert "is not unitary" in err
        assert not (tmp_path / "d.json").exists()

    @pytest.mark.parametrize("entry", [1e300, float("inf")])
    def test_huge_unitary_entry_exits_2_with_one_line(self, entry, tmp_path, capsys):
        u = matrix_to_json(qft_matrix(4))
        u["entries"][0] = [entry, 0.0]
        u_path = tmp_path / "huge.json"
        u_path.write_text(json.dumps(u))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_cli("evolve", "--unitary", str(u_path), "--input", "1,3",
                           "--out", str(tmp_path / "d.json"))
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err.count("\n") == 1 and "is not unitary" in err
        assert not (tmp_path / "d.json").exists()

    def test_mean_field_model(self, tmp_path):
        out = tmp_path / "mf.json"
        assert (
            run_cli("evolve", "--modes", "4", "--input", "1,3", "--model", "mf",
                    "--out", str(out))
            == EXIT_OK
        )
        obj = json.loads(out.read_text())
        assert obj["model"] == "mean_field"
        total = sum(entry["p"] for entry in obj["probabilities"])
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("option", ["--method=monte_carlo", "--samples=64"])
    def test_no_averaging_options(self, option, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("evolve", "--modes", "4", "--input", "1,3", "--model", "mf", option,
                    "--out", str(tmp_path / "mf.json"))
        assert exc.value.code == EXIT_VALIDATION
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err
        assert not (tmp_path / "mf.json").exists()


class TestSimulateCommand:
    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["simulate", "--modes", "4", "--input", "2,4", "--alpha", "0.95",
                "--points", "11", "--counts", "2000", "--seed", "9"]
        assert run_cli(*args, "--out", str(a)) == EXIT_OK
        assert run_cli(*args, "--out", str(b)) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_perfect_source_forbidden_counts_zero_at_zero_delay(self, tmp_path):
        out = tmp_path / "ideal.csv"
        assert (
            run_cli("simulate", "--modes", "4", "--input", "1,3", "--alpha", "1.0",
                    "--points", "3", "--counts", "1000000", "--out", str(out))
            == EXIT_OK
        )
        with open(out) as handle:
            _, outputs, delta_x, counts = read_coincidence_csv(handle)
        forbidden = {(0, 1), (0, 3), (1, 2), (2, 3)}
        for output, dx, n in zip(map(tuple, outputs.tolist()), delta_x, counts):
            if dx == 0.0 and output in forbidden:
                assert n == 0


class TestCurveAndCertify:
    @pytest.fixture()
    def dataset(self, tmp_path):
        path = tmp_path / "counts.csv"
        assert (
            run_cli("simulate", "--modes", "4", "--input", "2,4", "--alpha", "0.95",
                    "--points", "21", "--counts", "50000", "--seed", "3",
                    "--out", str(path))
            == EXIT_OK
        )
        return path

    def test_curve_zero_delay_near_residual(self, dataset, tmp_path):
        out = tmp_path / "curve.csv"
        assert (
            run_cli("curve", "--data", str(dataset), "--modes", "4", "--input", "2,4",
                    "--seed", "1", "--out", str(out))
            == EXIT_OK
        )
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "delta_x,d_obs,sigma"
        table = {float(r.split(",")[0]): tuple(map(float, r.split(",")[1:])) for r in rows[1:]}
        d0, s0 = table[0.0]
        assert abs(d0 - 0.025) < max(3 * s0, 5e-3)
        plateau, s_plat = table[min(table)]
        assert abs(plateau - 0.5) < max(3 * s_plat, 2e-2)

    def test_certify_verdict(self, dataset, tmp_path):
        out = tmp_path / "report.json"
        assert (
            run_cli("certify", "--data", str(dataset), "--modes", "4", "--input", "2,4",
                    "--seed", "1", "--out", str(out))
            == EXIT_OK
        )
        obj = json.loads(out.read_text())
        assert obj["verdict"] == "rules_out_both"
        assert obj["sigmas_vs_distinguishable"] > 10
        assert obj["sigmas_vs_mean_field"] > 10
        assert obj["d_distinguishable"] == 0.5
        assert obj["d_mean_field"] == 0.25
        assert obj["pc_source"].startswith("qft-model")
        assert obj["delta_x"] == 0.0

    @pytest.mark.parametrize("points, dx0", [("21", 0.0), ("20", -300.0 / 19)])
    def test_certify_matches_the_curve_row_nearest_zero_delay(self, points, dx0, tmp_path):
        data = tmp_path / "counts.csv"
        assert run_cli("simulate", "--modes", "8", "--input", "1,5", "--points", points,
                       "--seed", "4", "--out", str(data)) == EXIT_OK
        args = ["--data", str(data), "--modes", "8", "--input", "1,5", "--seed", "6"]
        assert run_cli("curve", *args, "--out", str(tmp_path / "curve.csv")) == EXIT_OK
        assert run_cli("certify", *args, "--out", str(tmp_path / "report.json")) == EXIT_OK
        rows = (tmp_path / "curve.csv").read_text().splitlines()[1:]
        table = {float(r.split(",")[0]): tuple(map(float, r.split(",")[1:])) for r in rows}
        report = json.loads((tmp_path / "report.json").read_text())
        # on an even grid the tie between -dx and +dx goes to the negative delay
        assert report["delta_x"] == pytest.approx(dx0, abs=1e-12)
        assert (report["d_obs"], report["sigma"]) == table[report["delta_x"]]

    def test_curve_is_byte_identical_on_rerun(self, dataset, tmp_path):
        args = ["curve", "--data", str(dataset), "--modes", "4", "--input", "2,4",
                "--seed", "2"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(a)) == EXIT_OK
        assert run_cli(*args, "--out", str(b)) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_certify_is_byte_identical_on_rerun(self, dataset, tmp_path):
        args = ["certify", "--data", str(dataset), "--modes", "4", "--input", "2,4",
                "--seed", "2"]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run_cli(*args, "--out", str(a)) == EXIT_OK
        assert run_cli(*args, "--out", str(b)) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("command", ["curve", "certify"])
    @pytest.mark.parametrize("modes, pair", [("8", "1,2"), ("8", "1,4"), ("4", "1,2")])
    def test_non_cyclic_input_exits_2(self, command, modes, pair, tmp_path, capsys):
        data = tmp_path / "counts.csv"
        assert run_cli("simulate", "--modes", modes, "--input", pair, "--points", "5",
                       "--out", str(data)) == EXIT_OK
        code = run_cli(command, "--data", str(data), "--modes", modes, "--input", pair,
                       "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err.startswith("qfft: invalid input:") and "not a cyclic input" in err

    @pytest.mark.parametrize("command", ["curve", "certify"])
    def test_duplicate_row_exits_2(self, command, tmp_path, capsys):
        data = tmp_path / "counts.csv"
        assert run_cli("simulate", "--modes", "8", "--input", "1,5", "--points", "41",
                       "--out", str(data)) == EXIT_OK
        with open(data, "a") as handle:
            handle.write("1,5,1,2,0.0,900000\n")
        code = run_cli(command, "--data", str(data), "--modes", "8", "--input", "1,5",
                       "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert "duplicate counts for delay 0.0 and output pair (0, 1)" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["curve", "certify"])
    def test_count_above_sampler_limit_exits_2(self, command, tmp_path, capsys):
        data = tmp_path / "counts.csv"
        assert run_cli("simulate", "--modes", "8", "--input", "1,5", "--points", "5",
                       "--out", str(data)) == EXIT_OK
        lines = data.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + "," + str(10**23)
        data.write_text("\n".join(lines) + "\n")
        code = run_cli(command, "--data", str(data), "--modes", "8", "--input", "1,5",
                       "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err.startswith("qfft: invalid input:") and "Poisson sampler" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["curve", "certify"])
    def test_trials_is_accepted_and_ignored(self, command, dataset, tmp_path):
        args = [command, "--data", str(dataset), "--modes", "4", "--input", "2,4"]
        outputs = []
        for trials in ([], ["--trials", "3000"], ["--trials", str(10**12)], ["--trials", "-1"]):
            out = tmp_path / f"out{len(outputs)}"
            assert run_cli(*args, *trials, "--out", str(out)) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[1:] == outputs[:1] * 3

    @pytest.mark.parametrize("command", ["curve", "certify"])
    @pytest.mark.parametrize("delay", ["inf", "-inf", "nan"])
    def test_non_finite_delay_exits_4(self, command, delay, tmp_path, capsys):
        data = tmp_path / "counts.csv"
        assert run_cli("simulate", "--modes", "8", "--input", "1,5", "--points", "5",
                       "--out", str(data)) == EXIT_OK
        data.write_text(data.read_text().replace(",300.0,", f",{delay},"))
        code = run_cli(command, "--data", str(data), "--modes", "8", "--input", "1,5",
                       "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == EXIT_IO
        assert "counts.csv:" in err and "'delta_x_um' must be finite" in err
        assert not (tmp_path / "out").exists()

    def test_simulate_accepts_non_cyclic_input(self, tmp_path):
        assert run_cli("simulate", "--modes", "8", "--input", "1,2", "--points", "5",
                       "--out", str(tmp_path / "counts.csv")) == EXIT_OK

    @pytest.mark.parametrize("threshold", ["nan", "inf", "0", "-5"])
    def test_threshold_not_positive_and_finite_exits_2(self, threshold, dataset, tmp_path, capsys):
        code = run_cli("certify", "--data", str(dataset), "--modes", "4", "--input", "2,4",
                       f"--threshold={threshold}", "--out", str(tmp_path / "r.json"))
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err.startswith("qfft: invalid input:") and "threshold" in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command", ["curve", "certify"])
    def test_output_mode_beyond_m_exits_2(self, command, tmp_path, capsys):
        data = tmp_path / "counts.csv"
        assert run_cli("simulate", "--modes", "16", "--input", "1,5", "--points", "5",
                       "--out", str(data)) == EXIT_OK
        code = run_cli(command, "--data", str(data), "--modes", "8", "--input", "1,5",
                       "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err.startswith("qfft: invalid input:")
        assert "output pair (1, 9) for input pair (1, 5), beyond the 8 modes" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["curve", "certify"])
    def test_output_mode_beyond_m_of_another_input_pair_skipped(self, command, tmp_path):
        data = tmp_path / "counts.csv"
        assert run_cli("simulate", "--modes", "8", "--input", "1,5", "--points", "5",
                       "--out", str(data)) == EXIT_OK
        data.write_text(data.read_text() + "2,6,1,16,0.0,5\n")
        assert run_cli(command, "--data", str(data), "--modes", "8", "--input", "1,5",
                       "--out", str(tmp_path / "out")) == EXIT_OK

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["curve", "certify"])
    def test_a_reference_of_one_count_per_pair_exits_0(self, command, tmp_path):
        # a Monte Carlo error bar could not use this reference: all 16 of a
        # trial's draws are non-zero with probability (1 - 1/e)^16 ~ 7e-4
        data = tmp_path / "counts.csv"
        assert run_cli("simulate", "--modes", "8", "--input", "1,5", "--points", "41",
                       "--out", str(data)) == EXIT_OK
        lines = data.read_text().splitlines()
        data.write_text("\n".join([lines[0]] + [line.rsplit(",", 1)[0] + ",1" for line in lines[1:]]) + "\n")
        assert run_cli(command, "--data", str(data), "--modes", "8", "--input", "1,5",
                       "--out", str(tmp_path / "out")) == EXIT_OK
        text = (tmp_path / "out").read_text()
        if command == "curve":
            sigmas = [float(row.rsplit(",", 1)[1]) for row in text.splitlines()[1:]]
        else:
            sigmas = [json.loads(text)["sigma"]]
        assert all(np.isfinite(sigmas)) and min(sigmas) > 0

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_and_bare_cr_line_ends_read_as_lf(self, end, tmp_path, capsys):
        data = tmp_path / "counts.csv"
        assert run_cli("simulate", "--modes", "8", "--input", "1,5", "--points", "41",
                       "--out", str(data)) == EXIT_OK
        lines = data.read_text().splitlines()
        args = ["curve", "--modes", "8", "--input", "1,5", "--data", str(data)]
        assert run_cli(*args, "--out", str(tmp_path / "lf.csv")) == EXIT_OK
        data.write_bytes((end.join(lines) + end).encode())
        assert run_cli(*args, "--out", str(tmp_path / "other.csv")) == EXIT_OK
        assert (tmp_path / "other.csv").read_bytes() == (tmp_path / "lf.csv").read_bytes()
        lines[7] = lines[7].replace(",", ";", 1)
        errors = []
        for sep in ("\n", end):
            data.write_bytes((sep.join(lines) + sep).encode())
            assert run_cli(*args, "--out", str(tmp_path / "bad.csv")) == EXIT_IO
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] and f"{data}:8:" in errors[0]

    def test_certify_missing_input_records(self, dataset, tmp_path, capsys):
        code = run_cli("certify", "--data", str(dataset), "--modes", "4",
                       "--input", "1,3", "--out", str(tmp_path / "r.json"))
        assert code == EXIT_VALIDATION
        assert "no records" in capsys.readouterr().err


class TestCurveAndCertifyUnitaryCheck:
    @pytest.fixture()
    def counts4(self, tmp_path):
        path = tmp_path / "counts.csv"
        assert run_cli("simulate", "--modes", "4", "--input", "1,3", "--out", str(path)) == EXIT_OK
        return path

    @pytest.mark.parametrize("command", ["curve", "certify"])
    @pytest.mark.parametrize(
        "matrix",
        [np.where(np.eye(4, dtype=bool), 0.9, 0.3), np.full((4, 2), 0.5), np.full((4, 4), np.nan),
         np.empty((0, 0))],
        ids=["defect-0.72", "4x2", "nan", "0x0"],
    )
    def test_bad_unitary_exits_2(self, command, matrix, counts4, tmp_path, capsys):
        u_path = tmp_path / "u.json"
        u_path.write_text(json.dumps(matrix_to_json(matrix)))
        out = tmp_path / "out"
        code = run_cli(command, "--data", str(counts4), "--unitary", str(u_path), "--input", "1,3",
                       "--out", str(out))
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err.count("\n") == 1 and err.startswith("qfft: invalid input:")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["curve", "certify"])
    def test_tolerance_applies(self, command, counts4, tmp_path):
        u = qft_matrix(4) + 1e-6 * np.random.default_rng(13).standard_normal((4, 4))
        u_path = tmp_path / "noisy.json"
        u_path.write_text(json.dumps(matrix_to_json(u)))
        args = [command, "--data", str(counts4), "--unitary", str(u_path), "--input", "1,3",
                "--out", str(tmp_path / "out")]
        assert run_cli(*args) == EXIT_VALIDATION
        assert run_cli(*args, "--tol", "1e-4") == EXIT_OK


class TestTolFlag:
    """``--tol`` checks a ``--unitary`` file only, and must lie in [0, 1)."""

    COMMANDS = ["evolve", "simulate", "curve", "certify"]

    @pytest.fixture(scope="class")
    def counts8(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("tol") / "counts.csv"
        assert run_cli("simulate", "--modes", "8", "--input", "1,5", "--out", str(path)) == EXIT_OK
        return path

    def argv(self, command, counts8, out, unitary=None):
        data = ["--data", str(counts8)] if command in ("curve", "certify") else []
        matrix = ["--modes", "8"] if unitary is None else ["--unitary", str(unitary)]
        return [command, *data, *matrix, "--input", "1,5", "--out", str(out)]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_zero_tol_leaves_the_fourier_matrix_alone(self, command, counts8, tmp_path):
        # the exact 8-mode Fourier matrix has a unitarity defect of ~7e-16
        default, zero = tmp_path / "default", tmp_path / "zero"
        assert run_cli(*self.argv(command, counts8, default)) == EXIT_OK
        assert run_cli(*self.argv(command, counts8, zero), "--tol", "0") == EXIT_OK
        assert zero.read_bytes() == default.read_bytes()

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_negative_or_nan_tol_exits_2(self, command, tol, counts8, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(*self.argv(command, counts8, out), "--tol", tol) == EXIT_VALIDATION
        assert f"--tol must lie in [0, 1), got {float(tol)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["1", "inf"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_tol_of_one_or_more_exits_2(self, command, tol, counts8, tmp_path, capsys):
        # twice the Fourier matrix has a unitarity defect of 3, which an infinite --tol let through
        twice = tmp_path / "twice.json"
        twice.write_text(json.dumps(matrix_to_json(2 * qft_matrix(8))))
        out = tmp_path / "out"
        assert run_cli(*self.argv(command, counts8, out, unitary=twice), "--tol", tol) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("qfft: invalid input:")
        assert f"--tol must lie in [0, 1), got {float(tol)}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_tol_below_one_checks_a_unitary_file(self, command, counts8, tmp_path):
        fourier8 = tmp_path / "fourier.json"
        fourier8.write_text(json.dumps(matrix_to_json(qft_matrix(8))))
        assert run_cli(*self.argv(command, counts8, tmp_path / "out", unitary=fourier8), "--tol", "0.5") == EXIT_OK


@pytest.fixture()
def problem4(tmp_path):
    """A 4-mode problem file whose one free phase is 2.2."""
    template = synthesize_qfft(2)
    free = tuple(nontrivial_phase_positions(template))
    u_true = circuit_to_unitary(set_phases(template, {free[0]: 2.2}))
    pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    problem = ReconstructionProblem(
        template, free, singles_from_unitary(u_true), visibilities_from_unitary(u_true, pairs, 0.02)
    )
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem_to_json(problem)))
    return path


class TestReconstructCommand:
    def test_small_problem(self, problem4, tmp_path):
        out = tmp_path / "result.json"
        assert (
            run_cli("reconstruct", "--problem", str(problem4), "--target", "qft",
                    "--restarts", "4", "--seed", "5", "--out", str(out))
            == EXIT_OK
        )
        obj = json.loads(out.read_text())
        assert obj["chi2"] < 1e-8
        value = obj["fitted_phases"][0]["value"]
        two_pi = 2 * np.pi
        dist = min(abs(value - 2.2), abs(two_pi - value - 2.2) % two_pi)
        assert dist < 1e-6
        assert len(obj["restarts"]) == 4
        assert obj["restarts_in_best_basin"] >= 1

    @pytest.mark.parametrize(
        "path, message",
        [
            (("singles", 0, "p"), "singles p is not a number: '0.5'"),
            (("visibilities", 0, "v"), "visibility v is not a number: '0.5'"),
            (("visibilities", 0, "sigma"), "visibility sigma is not a number: '0.5'"),
            (("template", "layers", 1, "phases", "4"), "phase on mode 4 is not a number: '0.5'"),
        ],
        ids=["singles-p", "visibility-v", "visibility-sigma", "template-phase"],
    )
    def test_string_value_exits_2_naming_its_field(self, path, message, problem4, tmp_path, capsys):
        obj = json.loads(problem4.read_text())
        node = obj
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = "0.5"
        problem4.write_text(json.dumps(obj))
        out = tmp_path / "result.json"
        code = run_cli("reconstruct", "--problem", str(problem4), "--restarts", "2", "--out", str(out))
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert len(err.splitlines()) == 1 and err.startswith("qfft: invalid input:")
        assert err.rstrip().endswith(message)
        assert not out.exists()

    def test_duplicate_free_phases_rejected(self, tmp_path, capsys):
        from qfftsim.circuit import circuit_to_json, synthesize_qfft

        prob_path = tmp_path / "problem.json"
        prob_path.write_text(json.dumps({
            "template": circuit_to_json(synthesize_qfft(3)),
            "free_phases": [[2, 6], [2, 6]],
            "visibilities": [],
        }))
        code = run_cli("reconstruct", "--problem", str(prob_path), "--out", str(tmp_path / "r.json"))
        assert code == EXIT_VALIDATION
        assert "duplicate" in capsys.readouterr().err

    @pytest.mark.parametrize("defect", ["nan_entry", "doubled"])
    def test_bad_target_file_exits_2(self, defect, problem4, tmp_path, capsys):
        obj = matrix_to_json(qft_matrix(4))
        if defect == "nan_entry":
            obj["entries"][5][0] = float("nan")
        else:
            obj["entries"] = [[2 * re, 2 * im] for re, im in obj["entries"]]
        target = tmp_path / "target.json"
        target.write_text(json.dumps(obj))
        out = tmp_path / "r.json"
        code = run_cli("reconstruct", "--problem", str(problem4), "--target", str(target),
                       "--restarts", "2", "--out", str(out))
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert "target matrix is not unitary" in err and "Traceback" not in err
        assert not out.exists()

    def test_empty_target_exits_2(self, problem4, tmp_path, capsys):
        target = tmp_path / "target.json"
        target.write_text(json.dumps(matrix_to_json(np.empty((0, 0)))))
        out = tmp_path / "r.json"
        code = run_cli("reconstruct", "--problem", str(problem4), "--target", str(target),
                       "--restarts", "2", "--out", str(out))
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err == "qfft: invalid input: target matrix is (0, 0), expected (4, 4)\n"
        assert not out.exists()

    def test_non_finite_template_phase_exits_2(self, problem4, tmp_path, capsys):
        obj = json.loads(problem4.read_text())
        obj["template"]["layers"][1]["phases"]["1"] = float("nan")  # not a free phase
        problem4.write_text(json.dumps(obj))
        out = tmp_path / "r.json"
        code = run_cli("reconstruct", "--problem", str(problem4), "--restarts", "2", "--out", str(out))
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert "not finite" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("visibilities", 0, "input"), [1, 2, 4], "visibility input [1, 2, 4] must name two modes"),
            (("visibilities", 0, "output"), [0, 2], "visibility mode 0 is below 1: labels in files are 1-based"),
            (("singles", 0, "output"), 0, "singles mode 0 is below 1: labels in files are 1-based"),
            (("free_phases", 0), [2, 0], "mode 0 is below 1: labels in files are 1-based"),
            (("template", "layers", 0, "couplers", 0), [0, 3], "coupler mode 0 is below 1: labels in files are 1-based"),
            (("template", "relabeling", 0), [0, 5], "relabeling mode 0 is below 1: labels in files are 1-based"),
        ],
        ids=["input-of-three", "visibility-label-0", "singles-label-0", "phase-label-0", "coupler-label-0", "swap-label-0"],
    )
    def test_malformed_labels_exit_2(self, path, value, message, problem4, tmp_path, capsys):
        # [1, 2, 4] used to be fitted as input (1, 2), exit 0; label 0 was refused as mode -1
        obj = json.loads(problem4.read_text())
        node = obj
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        problem4.write_text(json.dumps(obj))
        out = tmp_path / "result.json"
        code = run_cli("reconstruct", "--problem", str(problem4), "--restarts", "1", "--out", str(out))
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err.startswith("qfft: invalid input:") and err.endswith(f"{message}\n")
        assert "Traceback" not in err
        assert not out.exists()


class TestErrorPaths:
    def test_missing_data_file(self, tmp_path, capsys):
        code = run_cli("curve", "--data", str(tmp_path / "nope.csv"), "--modes", "4",
                       "--input", "1,3")
        assert code == EXIT_IO

    def test_malformed_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("input_i,input_j,output_i,output_j,delta_x_um,counts\n1,3,2,4,zero,5\n")
        code = run_cli("curve", "--data", str(bad), "--modes", "4", "--input", "1,3")
        assert code == EXIT_IO
        assert "bad.csv:2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["curve", "certify"])
    def test_field_above_the_csv_size_limit_exits_4(self, command, tmp_path, capsys):
        data = tmp_path / "big.csv"
        header = "input_i,input_j,output_i,output_j,delta_x_um,counts\n"
        data.write_text(header + "1,5,1,2,0.0," + "1" * 140_000 + "\n")
        code = run_cli(command, "--data", str(data), "--modes", "8", "--input", "1,5",
                       "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == EXIT_IO
        assert err.startswith(f"qfft: error: {data}:2: field larger than field limit")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "u.json"
        bad.write_text("{not json")
        code = run_cli("evolve", "--unitary", str(bad), "--input", "1,2")
        assert code == EXIT_IO

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("curve", "--modes", "8", "--input", "1,5"), "--data"),
            (("certify", "--modes", "8", "--input", "1,5"), "--data"),
            (("evolve", "--input", "1,2"), "--unitary"),
            (("reconstruct",), "--problem"),
            (("reconstruct", "--problem", "problem.json"), "--target"),
        ],
    )
    def test_non_utf8_file_exits_4(self, argv, flag, problem4, tmp_path, capsys):
        binary = tmp_path / "binary"
        binary.write_bytes(b'{"a": 1,\n "b": "\xff\xfe"}\n')
        argv = [str(problem4) if a == "problem.json" else a for a in argv]
        code = run_cli(*argv, flag, str(binary), "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == EXIT_IO
        assert err.startswith(f"qfft: error: {binary}: not UTF-8 text: byte 0xff at offset 16")
        assert not (tmp_path / "out").exists()

    def test_bad_input_flag(self, capsys):
        assert run_cli("evolve", "--modes", "4", "--input", "1;3") == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "argv, labels",
        [
            (("evolve", "--input", "5"), "(5,)"),
            (("simulate", "--input", "1,5"), "(1, 5)"),
            (("curve", "--data", "counts.csv", "--input", "1,5"), "(1, 5)"),
            (("certify", "--data", "counts.csv", "--input", "1,5"), "(1, 5)"),
        ],
    )
    def test_input_above_m_is_named_1_based(self, argv, labels, tmp_path, capsys):
        code = run_cli(*argv, "--modes", "4", "--out", str(tmp_path / "out"))
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == f"qfft: invalid input: --input {labels} out of range for m=4\n"

    def test_bunched_input_for_simulate(self, tmp_path):
        code = run_cli("simulate", "--modes", "4", "--input", "2,2",
                       "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "argv",
        [
            ("synth", "--modes", "0"),
            ("synth", "--modes", "-4"),
            ("layout", "--modes", "0"),
            ("layout", "--modes", "-4"),
            ("simulate", "--modes", "8", "--input", "1,5", "--counts", "nan"),
            ("simulate", "--modes", "8", "--input", "1,5", "--counts", "inf"),
            ("simulate", "--modes", "8", "--input", "1,5", "--span", "inf"),
            ("simulate", "--modes", "8", "--input", "1,5", "--points", "100000000000"),
            ("simulate", "--modes", "8", "--input", "1,5", "--points", str(MAX_RECORDS // 36 + 1)),
            ("simulate", "--modes", "8", "--input", "1,5", "--coherence-length", "nan"),
            ("simulate", "--modes", "8", "--input", "1,5", "--coherence-length", "inf"),
            ("simulate", "--modes", "8", "--input", "1,5", "--span", "1e308", "--points", "3"),
        ],
    )
    def test_bad_numbers_exit_2_without_traceback(self, argv, tmp_path, capsys):
        code = run_cli(*argv, "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err.startswith("qfft: invalid input:")
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "model, message",
        [
            ("fock", f"make {183181376 * 256} occupation entries, above the cap {MAX_OUTCOME_ENTRIES}"),
            # the expansion budget is checked first: the plan over the 256 modes and the
            # table, 4 terms per output each, + 4 levels x 4096 steps
            ("dist", f"needs {2 * 4 * 183181376 + 4 * 4096} expansion steps, "
                     f"above the budget {models.MAX_EXPANSION_WORK}"),
            # the plan over the 4 phases and each output, 4 C(7, 4) terms each, + 4 levels x 4096 steps
            ("mf", f"needs {(1 + 183181376) * 4 * 35 + 4 * 4096} expansion steps, "
                   f"above the budget {models.MAX_EXPANSION_WORK}"),
        ],
        ids=["fock", "dist", "mf"],
    )
    def test_enumeration_cap_exits_2_at_once(self, model, message, capsys):
        # C(259, 4) = 183,181,376 outputs
        code = run_cli("evolve", "--modes", "256", "--input", "1,65,129,193", "--model", model)
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err.startswith("qfft: invalid input:")
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("synth", "--modes", "8"),
            ("layout", "--modes", "8"),
            ("evolve", "--modes", "4", "--input", "1,3"),
            ("simulate", "--modes", "8", "--input", "1,5"),
            ("curve", "--data", "counts.csv", "--modes", "8", "--input", "1,5"),
            ("certify", "--data", "counts.csv", "--modes", "8", "--input", "1,5"),
            ("reconstruct", "--problem", "problem.json"),
        ],
    )
    def test_negative_seed_exits_2(self, argv, tmp_path, capsys):
        argv = (*argv, "--seed", "-1", "--out", str(tmp_path / "x"))
        if argv[0] in ("synth", "layout", "evolve"):  # no --seed to range-check: argparse refuses it
            with pytest.raises(SystemExit) as exc:
                run_cli(*argv)
            code, err = exc.value.code, capsys.readouterr().err
            assert "unrecognized arguments: --seed -1" in err
        else:
            code, err = run_cli(*argv), capsys.readouterr().err
            assert err.startswith("qfft: invalid input:") and "--seed" in err
        assert code == EXIT_VALIDATION
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("synth", "--modes", "8"),
            ("layout", "--modes", "8"),
            ("evolve", "--modes", "4", "--input", "1,3", "--model", "mf"),
        ],
    )
    def test_seed_of_a_command_without_randomness_exits_2(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--seed", "1", "--out", str(tmp_path / "x"))
        assert exc.value.code == EXIT_VALIDATION
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestSizeCaps:
    @pytest.mark.parametrize("modes", [2**SYNTH_CAP + 1, 3_000_000])
    @pytest.mark.parametrize(
        "argv",
        [
            ("evolve", "--input", "1,2"),
            ("simulate", "--input", "1,2"),
            ("curve", "--data", "counts.csv", "--input", "1,2"),
            ("certify", "--data", "counts.csv", "--input", "1,2"),
        ],
    )
    def test_modes_above_the_cap_exit_2(self, argv, modes, tmp_path, capsys):
        code = run_cli(*argv, "--modes", str(modes), "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err.startswith("qfft: invalid input:")
        assert f"--modes must be at most {2**SYNTH_CAP}, got {modes}" in err

    def test_modes_at_the_cap_pass_it(self, tmp_path, capsys):
        # the data file is opened only after the Fourier matrix is built
        code = run_cli("curve", "--data", str(tmp_path / "missing.csv"), "--modes", str(2**SYNTH_CAP),
                       "--input", f"1,{2**SYNTH_CAP // 2 + 1}")
        assert code == EXIT_IO
        assert "missing.csv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "modes, points, allowed",
        [(4, 36000, True), (4, 36001, False), (15, 3000, True), (15, 3001, False), (128, 43, True),
         (128, 44, False), (1024, 41, False)],
    )
    def test_record_cap_at_its_boundary(self, modes, points, allowed, monkeypatch, tmp_path, capsys):
        size = points * modes * (modes + 1) // 2
        assert (size <= MAX_RECORDS) == allowed
        calls = []
        empty = CoincidenceTable((0, 1), np.empty(0), (), np.empty((0, 0), dtype=np.int64))
        monkeypatch.setattr(cli, "simulate_experiment", lambda *args, **kwargs: calls.append(args) or empty)
        code = run_cli("simulate", "--modes", str(modes), "--input", "1,2", "--points", str(points),
                       "--out", str(tmp_path / "counts.csv"))
        err = capsys.readouterr().err
        assert len(calls) == allowed
        if allowed:
            assert code == EXIT_OK
        else:
            assert code == EXIT_VALIDATION
            assert f"make {size} records, over {MAX_RECORDS}" in err

    @pytest.mark.parametrize(
        "call, module, budget, builders, built",
        [
            (lambda out: enumerate_outputs(2, 4), fourier, 20, ["_outputs"], "20 row entries"),
            (lambda out: partition_outputs(2, 4), fourier, 40, ["_outputs", "_output_set"],
             "40 occupation entries"),
            (lambda out: fock_distribution(qft_matrix(4), (1, 0, 1, 0)), fourier, 40,
             ["_outputs", "_output_set"], "40 occupation entries"),
            (lambda out: distinguishable_distribution(qft_matrix(4), (1, 0, 1, 0)), fourier, 40,
             ["_outputs", "_output_set"], "40 occupation entries"),
            (lambda out: mean_field_distribution(qft_matrix(4), (1, 0, 1, 0)), fourier, 40,
             ["_outputs", "_output_set"], "40 occupation entries"),
            (lambda out: cyclic_inputs(2, 2), fourier, 8, ["occupation_from_modes"], "2\\^3 occupation entries"),
            # 3 points x 10 output pairs
            (lambda out: cli._simulate(cli._build_parser().parse_args(
                ["simulate", "--modes", "4", "--input", "1,3", "--points", "3", "--out", out])),
             cli, 30, ["_delay_grid"], "30 records"),
        ],
        ids=["enumerate_outputs", "partition_outputs", "fock", "dist", "mf", "cyclic_inputs", "simulate"],
    )
    def test_one_over_the_budget_is_refused_before_building(self, call, module, budget, builders, built,
                                                            monkeypatch, tmp_path):
        cap = "MAX_RECORDS" if module is cli else "MAX_OUTCOME_ENTRIES"
        out = str(tmp_path / "out")

        def unbuildable(*args, **kwargs):
            raise AssertionError("built before the cap was checked")

        with monkeypatch.context() as patch:
            patch.setattr(module, cap, budget - 1)
            for name in builders:
                patch.setattr(module, name, unbuildable)
            with pytest.raises(QfftError, match=f"make {built}, "):
                call(out)
        monkeypatch.setattr(module, cap, budget)
        call(out)

    @pytest.mark.parametrize("model", ["fock", "dist", "mf"])
    def test_outcome_table_above_the_cap_exits_2(self, model, tmp_path, capsys):
        # C(257, 2) = 32,896 outputs x 256 modes = 8,421,376 occupation entries
        code = run_cli("evolve", "--modes", "256", "--input", "1,129", "--model", model,
                       "--out", str(tmp_path / "dist.json"))
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err.startswith("qfft: invalid input:")
        assert f"make 8421376 occupation entries, above the cap {MAX_OUTCOME_ENTRIES}" in err
        assert not (tmp_path / "dist.json").exists()

    def test_mean_field_coefficient_cap_at_its_boundary(self, monkeypatch, tmp_path, capsys):
        # two photons on four modes: the plan + 10 outputs, 2 C(3, 2) = 6 terms each, + 2 levels x 4096
        argv = ("evolve", "--modes", "4", "--input", "1,3", "--model", "mf", "--out", str(tmp_path / "mf.json"))
        monkeypatch.setattr(models, "MAX_EXPANSION_WORK", 8257)
        assert run_cli(*argv) == EXIT_VALIDATION
        assert "needs 8258 expansion steps, above the budget 8257" in capsys.readouterr().err
        assert not (tmp_path / "mf.json").exists()
        monkeypatch.setattr(models, "MAX_EXPANSION_WORK", 8258)
        assert run_cli(*argv) == EXIT_OK

    def test_eight_mean_field_photons_on_eight_modes_pass(self, tmp_path):
        out = tmp_path / "mf.json"
        assert run_cli("evolve", "--modes", "8", "--input", "1,2,3,4,5,6,7,8", "--model", "mf",
                       "--out", str(out)) == EXIT_OK
        total = sum(entry["p"] for entry in json.loads(out.read_text())["probabilities"])
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_mean_field_coefficients_above_the_cap_exit_2(self, tmp_path, capsys):
        # ten cyclic photons on ten modes: the plan + C(19, 10) outputs, 10 C(19, 10) terms each,
        # + 10 levels x 4096 steps
        code = run_cli("evolve", "--modes", "10", "--input", "1,2,3,4,5,6,7,8,9,10", "--model", "mf",
                       "--out", str(tmp_path / "mf.json"))
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err.startswith("qfft: invalid input:")
        assert f"needs {(1 + 92378) * 10 * 92378 + 10 * 4096} expansion steps, above the budget {models.MAX_EXPANSION_WORK}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "mf.json").exists()

    def test_sixteen_fock_photons_on_eight_modes_exit_2_at_once(self, monkeypatch, tmp_path, capsys):
        # C(23, 16) = 245,157 outputs pass the entry cap, but their 16 x 2^15 Glynn terms each
        # would take ~9 minutes; refused before any permanent
        monkeypatch.setattr(models, "permanent", None)
        out = tmp_path / "fock.json"
        code = run_cli("evolve", "--modes", "8", "--model", "fock", "--input", "1,1,1,1,2,2,2,2,3,3,3,3,4,4,4,4",
                       "--out", str(out))
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"qfft: invalid input: the fock table of 16 photons on 8 modes needs {245157 * 16 << 15} "
            f"Glynn terms, above the budget {models.MAX_EXPANSION_WORK}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("restarts", [reconstruct.MAX_RESTARTS + 1, 10**12])
    def test_restarts_above_the_cap_exit_2(self, restarts, problem4, tmp_path, capsys):
        code = run_cli("reconstruct", "--problem", str(problem4), "--restarts", str(restarts),
                       "--out", str(tmp_path / "result.json"))
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err.startswith("qfft: invalid input:")
        assert f"restarts must be in [1, {reconstruct.MAX_RESTARTS}], got {restarts}" in err
        assert not (tmp_path / "result.json").exists()

    def test_restarts_cap_at_its_boundary(self, problem4, monkeypatch, tmp_path):
        monkeypatch.setattr(reconstruct, "MAX_RESTARTS", 3)
        out = tmp_path / "result.json"
        assert run_cli("reconstruct", "--problem", str(problem4), "--restarts", "4",
                       "--out", str(out)) == EXIT_VALIDATION
        assert run_cli("reconstruct", "--problem", str(problem4), "--restarts", "3",
                       "--out", str(out)) == EXIT_OK
        assert len(json.loads(out.read_text())["restarts"]) == 3

    @pytest.mark.parametrize("restarts", [0, reconstruct.MAX_RESTARTS + 1])
    def test_restarts_out_of_range_exit_2_without_free_phases(
        self, restarts, problem4, tmp_path, capsys
    ):
        obj = json.loads(problem4.read_text())
        obj["free_phases"] = []
        problem4.write_text(json.dumps(obj))
        out = tmp_path / "result.json"
        code = run_cli("reconstruct", "--problem", str(problem4), "--restarts", str(restarts),
                       "--out", str(out))
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert f"restarts must be in [1, {reconstruct.MAX_RESTARTS}], got {restarts}" in err
        assert not out.exists()
        assert run_cli("reconstruct", "--problem", str(problem4), "--restarts", "1",
                       "--out", str(out)) == EXIT_OK


@pytest.mark.parametrize("m", [2, 8, 64])
def test_forbidden_pairs_match_the_partition(m):
    # curve and certify read the columns of the pairs that key the classical probabilities
    forbidden = partition_outputs(2, m).forbidden
    pc = classical_pair_probabilities(qft_matrix(m), (0, m // 2))
    assert list(pc) == sorted(tuple(occupied_modes(s)) for s in forbidden)


class TestOutputFiles:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)])
    @pytest.mark.parametrize(
        "argv", [("synth", "--modes", "4"), ("simulate", "--modes", "4", "--input", "1,3")]
    )
    def test_out_file_mode_follows_the_umask(self, argv, umask, mode, tmp_path):
        out = tmp_path / "artifact"
        previous = os.umask(umask)
        try:
            assert run_cli(*argv, "--out", str(out)) == EXIT_OK
        finally:
            os.umask(previous)
        assert out.stat().st_mode & 0o777 == mode

    def test_umask_is_read_by_the_kernel_not_set(self, tmp_path, monkeypatch):
        def refuse(mask):
            raise AssertionError("os.umask called")

        out = tmp_path / "artifact"
        previous = os.umask(0o027)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(os, "umask", refuse)
                assert run_cli("simulate", "--modes", "4", "--input", "1,3", "--out", str(out)) == EXIT_OK
        finally:
            os.umask(previous)
        assert out.stat().st_mode & 0o777 == 0o640

    def test_failed_writer_leaves_no_temp_file(self, tmp_path):
        def write(handle):
            handle.write("partial")
            raise RuntimeError("writer failed")

        out = tmp_path / "artifact"
        out.write_text("before\n")
        with pytest.raises(RuntimeError, match="writer failed"):
            cli._write_text(str(out), write)
        assert os.listdir(tmp_path) == ["artifact"]
        assert out.read_text() == "before\n"

    def test_file_at_the_temp_name_is_kept(self, tmp_path, capsys):
        squatter = tmp_path / f".qfft-{os.getpid()}"
        squatter.write_text("not ours\n")
        assert run_cli("synth", "--modes", "4", "--out", str(tmp_path / "artifact")) == EXIT_IO
        assert "File exists" in capsys.readouterr().err
        assert os.listdir(tmp_path) == [squatter.name]
        assert squatter.read_text() == "not ours\n"

    # 70,000 list items are more tokens than one batch of the JSON writer
    _JSON = {"a": [1.5, float("nan"), None, "\u00e9"], "b": {"c": list(range(70_000)), "d": {}}, "e": []}

    def test_json_file_and_stdout_match_json_dumps(self, tmp_path, capsys):
        expected = (json.dumps(self._JSON, indent=2) + "\n").encode()
        cli._write_json(str(tmp_path / "artifact"), self._JSON)
        assert (tmp_path / "artifact").read_bytes() == expected
        cli._write_json(None, self._JSON)
        assert capsys.readouterr().out.encode() == expected

    def test_failed_json_write_leaves_no_file(self, tmp_path):
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._write_json(str(tmp_path / "artifact"), {**self._JSON, "f": object()})
        assert os.listdir(tmp_path) == []


_FORBIDDEN_8 = sorted(
    tuple(occupied_modes(s)) for s in partition_outputs(2, 8).forbidden
)
_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
_ANY_COUNT = st.one_of(st.integers(0, 10**6), st.integers(10**17, 10**25), st.just(10**400))


@st.composite
def counts_csv(draw):
    """An 8-mode coincidence CSV for input 1,5: a complete grid plus hostile extra rows."""
    delays = draw(st.lists(st.floats(-300, 300), min_size=1, max_size=3, unique=True))
    rows = [(pair, dx, draw(st.integers(0, 10**6))) for dx in delays for pair in _FORBIDDEN_8]
    extra = st.tuples(
        st.sampled_from(_FORBIDDEN_8),
        st.one_of(st.sampled_from(delays), _ANY_FLOAT),
        _ANY_COUNT,
    )
    rows += draw(st.lists(extra, max_size=4))
    lines = ["input_i,input_j,output_i,output_j,delta_x_um,counts"]
    lines += [f"1,5,{i + 1},{j + 1},{dx!r},{n}" for (i, j), dx, n in rows]
    return "\n".join(lines) + "\n"


@st.composite
def non_utf8(draw, text):
    """The bytes of a drawn ASCII text with one byte above 0x7f spliced in,
    which makes them invalid UTF-8 wherever it lands."""
    raw = draw(text).encode("ascii")
    at = draw(st.integers(0, len(raw)))
    return raw[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + raw[at:]


_JSON_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 20), _ANY_FLOAT, st.text(max_size=3)
)
_JSON = st.recursive(
    _JSON_LEAF,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=6,
)


@st.composite
def mutated(draw, obj):
    """A copy of the JSON value ``obj`` with up to three nodes replaced or deleted,
    three in four of them below the top level."""
    obj = json.loads(json.dumps(obj))
    for _ in range(draw(st.integers(0, 3))):
        parent, key, node = None, None, obj
        while isinstance(node, (dict, list)) and node and (parent is None or draw(st.integers(0, 3))):
            keys = list(node) if isinstance(node, dict) else range(len(node))
            parent, key = node, draw(st.sampled_from(keys))
            node = parent[key]
        if parent is None:
            obj = draw(_JSON)
        elif draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(_JSON)
    return obj


_TEMPLATE = synthesize_qfft(2)
_FREE = tuple(nontrivial_phase_positions(_TEMPLATE))
_U_TRUE = circuit_to_unitary(set_phases(_TEMPLATE, {_FREE[0]: 2.2}))
_PROBLEM = problem_to_json(
    ReconstructionProblem(
        _TEMPLATE,
        _FREE,
        singles_from_unitary(_U_TRUE),
        visibilities_from_unitary(_U_TRUE, [(0, 1), (0, 2), (1, 3)], 0.02),
    )
)
_MATRIX = matrix_to_json(qft_matrix(4))
_ANY_MATRIX = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: st.lists(
        st.lists(_ANY_FLOAT, min_size=2, max_size=2), min_size=shape[0] * shape[1],
        max_size=shape[0] * shape[1],
    ).map(lambda entries: {"rows": shape[0], "cols": shape[1], "entries": entries})
)
_COUNTS_4 = io.StringIO()
write_coincidence_csv(
    simulate_experiment(
        qft_matrix(4), (0, 2), DelayModel(), [-300.0, 0.0, 300.0], 1e5, np.random.default_rng(0)
    ),
    _COUNTS_4,
)
_MODE_LABELS = st.one_of(
    st.sampled_from(["1,3", "2,4", "1,2", "1,1,3"]),
    st.lists(st.integers(-1, 10), min_size=1, max_size=4).map(lambda ks: ",".join(map(str, ks))),
    st.text(max_size=6),
)


def _run_with_files(argv, files):
    """Exit code, stderr and ``--out`` text (None if no file was written) of
    ``qfft argv --flag=path ...``, one temporary file per ``flag`` in ``files``
    holding that JSON value, or those raw bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = list(argv)
        for k, (flag, obj) in enumerate(files.items()):
            path = os.path.join(tmp, f"{k}.json")
            with open(path, "wb") as handle:
                handle.write(obj if isinstance(obj, bytes) else json.dumps(obj).encode())
            argv.append(f"{flag}={path}")
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli(*argv, "--out", out)
        text = None
        if os.path.exists(out):
            with open(out) as handle:
                text = handle.read()
    return code, err.getvalue(), text


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


class TestFuzz:
    # no shrink phase: a failure is reported with its first example at once
    @settings(max_examples=80, deadline=None, derandomize=True, phases=(Phase.explicit, Phase.generate))
    @given(
        command=st.sampled_from(["curve", "certify"]),
        text=st.one_of(counts_csv(), non_utf8(counts_csv())),
        pair=st.sampled_from(["1,5", "3,7", "1,2"]),
        trials=st.integers(-2, 40),
        seed=st.integers(-3, 2**40),
    )
    def test_curve_and_certify_end_with_a_documented_exit_code(self, command, text, pair, trials, seed):
        with tempfile.TemporaryDirectory() as tmp:
            data = os.path.join(tmp, "counts.csv")
            with open(data, "wb") as handle:
                handle.write(text if isinstance(text, bytes) else text.encode())
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run_cli(command, "--data", data, "--modes", "8", "--input", pair,
                               "--trials", str(trials), "--seed", str(seed),
                               "--out", os.path.join(tmp, "out"))
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=80, deadline=None, derandomize=True, phases=(Phase.explicit, Phase.generate))
    @given(
        command=st.sampled_from(["curve", "certify"]),
        source=st.one_of(mutated(_MATRIX), _ANY_MATRIX, non_utf8(mutated(_MATRIX).map(json.dumps))),
    )
    def test_curve_and_certify_with_a_unitary_end_with_a_documented_exit_code(self, command, source):
        files = {"--data": _COUNTS_4.getvalue().encode(), "--unitary": source}
        code, err, text = _run_with_files([command, "--input=1,3"], files)
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err
        if code == EXIT_OK and command == "curve":
            values = [float(v) for line in text.splitlines()[1:] for v in line.split(",")]
            assert np.all(np.isfinite(values))

    @settings(max_examples=80, deadline=None, derandomize=True, phases=(Phase.explicit, Phase.generate))
    @given(
        points=st.one_of(st.integers(-2, 40), st.sampled_from([MAX_RECORDS // 10 + 1, 10**11])),
        span=st.one_of(st.floats(1, 1000), _ANY_FLOAT),
        alpha=st.one_of(st.floats(0, 1), _ANY_FLOAT),
        coherence=st.one_of(st.floats(1, 1000), _ANY_FLOAT),
        counts=st.one_of(st.floats(1, 1e6), _ANY_FLOAT),
    )
    def test_simulate_ends_with_a_documented_exit_code(self, points, span, alpha, coherence, counts):
        with tempfile.TemporaryDirectory() as tmp:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                # "--flag=value" keeps argparse from reading "-inf" as an option
                code = run_cli("simulate", "--modes", "4", "--input", "1,3", f"--points={points}",
                               f"--span={span!r}", f"--alpha={alpha!r}",
                               f"--coherence-length={coherence!r}", f"--counts={counts!r}",
                               "--out", os.path.join(tmp, "out"))
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()

    @settings(max_examples=60, deadline=None, derandomize=True, phases=(Phase.explicit, Phase.generate))
    @given(
        command=st.sampled_from(["synth", "layout"]),
        modes=st.one_of(st.integers(-4, 70), st.sampled_from([2**SYNTH_CAP, 2**SYNTH_CAP + 1, 10**12])),
    )
    def test_synth_and_layout_end_with_a_documented_exit_code(self, command, modes):
        code, err, _ = _run_with_files([command, f"--modes={modes}"], {})
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=80, deadline=None, derandomize=True, phases=(Phase.explicit, Phase.generate))
    @given(
        source=st.one_of(st.integers(-2, 9), mutated(_MATRIX), non_utf8(mutated(_MATRIX).map(json.dumps))),
        labels=_MODE_LABELS,
        model=st.sampled_from(["fock", "dist", "mf"]),
        tol=st.one_of(st.floats(0, 1), _ANY_FLOAT),
    )
    def test_evolve_ends_with_a_documented_exit_code(self, source, labels, model, tol):
        argv = ["evolve", f"--input={labels}", f"--model={model}", f"--tol={tol!r}"]
        if isinstance(source, int):
            code, err, _ = _run_with_files([*argv, f"--modes={source}"], {})
        else:
            code, err, _ = _run_with_files(argv, {"--unitary": source})
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=80, deadline=None, derandomize=True, phases=(Phase.explicit, Phase.generate))
    @given(
        problem=st.one_of(mutated(_PROBLEM), non_utf8(mutated(_PROBLEM).map(json.dumps))),
        target=st.one_of(
            st.none(), st.just("qft"), mutated(_MATRIX), non_utf8(mutated(_MATRIX).map(json.dumps))
        ),
        restarts=st.integers(-2, 3),
        seed=st.integers(-3, 2**40),
    )
    def test_reconstruct_ends_with_a_documented_exit_code(self, problem, target, restarts, seed):
        argv = ["reconstruct", f"--restarts={restarts}", f"--seed={seed}"]
        files = {"--problem": problem}
        if target == "qft":
            argv.append("--target=qft")
        elif target is not None:
            files["--target"] = target
        code, err, text = _run_with_files(argv, files)
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err
        if code == EXIT_OK:
            json.loads(text, parse_constant=_refuse_constant)


class TestSimulateExperimentFunction:
    def test_rejects_nonpositive_counts(self):
        with pytest.raises(DomainError):
            simulate_experiment(
                qft_matrix(4), (0, 2), DelayModel(), [0.0], 0.0, np.random.default_rng(0)
            )

    @pytest.mark.parametrize("counts", [1e5, 20.0])  # both of numpy's Poisson samplers
    def test_one_draw_matches_the_scalar_loop(self, counts):
        u = qft_matrix(8)
        model = DelayModel(alpha=0.9)
        delays = np.linspace(-300.0, 300.0, 41)
        table = simulate_experiment(u, (0, 4), model, delays, counts, np.random.default_rng(5))
        curves = two_photon_coincidences(u, (0, 4), model, delays)
        expected = simulated_counts_loop(curves, counts, np.random.default_rng(5))
        cells = zip(table.delays.tolist(), table.counts.tolist())
        assert [(dx, pair, n) for dx, row in cells for pair, n in zip(table.pairs, row)] == expected

    def test_rows_are_ordered_by_delay(self):
        u, model, delays = qft_matrix(4), DelayModel(alpha=0.9), [0.0, -300.0, 150.0, -150.0]
        table = simulate_experiment(u, (0, 2), model, delays, 1e4, np.random.default_rng(2))
        curves = two_photon_coincidences(u, (0, 2), model, delays)
        expected = sorted(simulated_counts_loop(curves, 1e4, np.random.default_rng(2)), key=lambda cell: cell[0])
        cells = zip(table.delays.tolist(), table.counts.tolist())
        assert [(dx, pair, n) for dx, row in cells for pair, n in zip(table.pairs, row)] == expected

    def test_record_grid_is_complete(self):
        table = simulate_experiment(
            qft_matrix(4), (0, 2), DelayModel(), [-50.0, 0.0, 50.0], 100.0,
            np.random.default_rng(1),
        )
        assert table.counts.shape == (3, 10)  # three delays x C(4,2)+4 output pairs


def fresh_env():
    """The environment for a fresh interpreter that imports this checkout's qfftsim."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestParserReuse:
    # each step leaves out a flag an earlier one set, so state kept from one
    # parse would change a later artifact
    STEPS = [
        ("simulate", "--modes", "4", "--input", "2,4", "--points", "11", "--counts", "5000", "--seed", "3",
         "--out", "counts.csv"),
        ("curve", "--data", "counts.csv", "--modes", "4", "--input", "2,4", "--trials", "50", "--seed", "5",
         "--out", "curve.csv"),
        ("certify", "--data", "counts.csv", "--modes", "4", "--input", "2,4", "--threshold", "40",
         "--out", "report.json"),
        ("certify", "--data", "counts.csv", "--modes", "4", "--input", "1,2", "--out", "refused.json"),
        ("curve", "--data", "counts.csv", "--modes", "4", "--input", "4,2", "--out", "curve-again.csv"),
    ]

    @staticmethod
    def _fresh(argv, cwd):
        return subprocess.Popen([sys.executable, "-m", "qfftsim.cli", *argv], cwd=cwd, env=fresh_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)

    def test_repeated_main_calls_match_fresh_processes(self, tmp_path, monkeypatch, capsys):
        here, fresh = tmp_path / "in-process", tmp_path / "fresh"
        here.mkdir()
        fresh.mkdir()
        argvs = [*self.STEPS, ("--version",)]
        procs = [self._fresh(argvs[0], fresh)]
        outputs = [procs[0].communicate(timeout=120)]
        procs += [self._fresh(argv, fresh) for argv in argvs[1:]]  # these only read counts.csv
        outputs += [proc.communicate(timeout=120) for proc in procs[1:]]
        expected = {argv: (proc.returncode, *out) for argv, proc, out in zip(argvs, procs, outputs)}
        assert [expected[argv][0] for argv in argvs] == [EXIT_OK] * 3 + [EXIT_VALIDATION, EXIT_OK, EXIT_OK]
        monkeypatch.chdir(here)
        for argv in [("--version",), *self.STEPS, ("--version",)]:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            assert (code, *capsys.readouterr()) == expected[argv], argv
        assert sorted(os.listdir(here)) == sorted(os.listdir(fresh))
        for name in os.listdir(fresh):
            assert (here / name).read_bytes() == (fresh / name).read_bytes(), name


class _ReadLog(argparse.Namespace):
    """A namespace that adds the name of each public attribute read from it to ``_read``."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            super().__getattribute__("_read").add(name)
        return super().__getattribute__(name)


class TestEveryFlagIsRead:
    COUNTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "simulate_m8_1-5.csv")
    # --modes, not --unitary, so that _load_unitary reads --unitary, --modes and --tol
    ARGV = {
        "synth": ["--modes", "8"],
        "layout": ["--modes", "8"],
        "evolve": ["--modes", "4", "--input", "1,3"],
        "simulate": ["--modes", "4", "--input", "1,3", "--points", "3", "--counts", "10"],
        "curve": ["--data", COUNTS, "--modes", "8", "--input", "1,5"],
        "certify": ["--data", COUNTS, "--modes", "8", "--input", "1,5"],
        "reconstruct": ["--target", "qft", "--restarts", "1"],
    }
    # ROADMAP item 1B: the benchmark passes these ignored flags; its change empties this list
    UNREAD = {("curve", "seed"), ("curve", "trials"), ("certify", "seed"), ("certify", "trials")}

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_the_handler_reads_every_parsed_destination(self, command, problem4, tmp_path):
        argv = [command, *self.ARGV[command], "--out", str(tmp_path / "out")]
        if command == "reconstruct":
            argv += ["--problem", str(problem4)]
        args = cli._build_parser().parse_args(argv, namespace=_ReadLog(_read=set()))
        args._read.clear()  # argparse reads the namespace as it parses
        args.handler(args)  # not main, which reads --seed itself
        parsed = set(vars(args)) - {"_read", "command"}  # the subcommand chose the handler
        assert {(command, dest) for dest in parsed - args._read} == {
            pair for pair in self.UNREAD if pair[0] == command
        }


class TestColdStart:
    # Run in a fresh interpreter: this process has loaded scipy already.
    SCRIPT = """
import sys
import qfftsim
from qfftsim.cli import main

def run(*argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    assert code == 0, (argv, code)

run("synth", "--modes", "8", "--out", "circuit.json")
run("layout", "--modes", "8", "--out", "layout.json")
for model in ("dist", "fock", "mf"):
    run("evolve", "--modes", "4", "--input", "1,3", "--model", model, "--out", model + ".json")
run("simulate", "--modes", "8", "--input", "1,5", "--points", "5", "--out", "counts.csv")
run("curve", "--data", "counts.csv", "--modes", "8", "--input", "1,5", "--out", "curve.csv")
run("certify", "--data", "counts.csv", "--modes", "8", "--input", "1,5", "--out", "report.json")
run("--version")
run("reconstruct", "--problem", "problem.json", "--restarts", "2", "--out", "result.json")
assert "scipy" not in sys.modules, "a command loaded scipy"
"""

    def test_no_command_loads_scipy(self, problem4):
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT], cwd=problem4.parent, env=fresh_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestSeedDerivation:
    def test_streams_are_distinct_and_stable(self):
        seeds = {name: derived_seed(DEFAULT_SEED, name) for name in ("simulate", "reconstruct")}
        assert len(set(seeds.values())) == 2
        assert seeds == {name: derived_seed(DEFAULT_SEED, name) for name in seeds}

    def test_stream_indices_did_not_move(self):
        # the seeds these streams had while stream 1 seeded the Monte Carlo error bars
        # and stream 3 the mean-field phases
        assert {name: derived_seed(DEFAULT_SEED, name) for name in ("simulate", "reconstruct")} == {
            "simulate": 11546529591295108226,
            "reconstruct": 14271767551585722364,
        }


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    assert "invalid choice: 'frobnicate'" in capsys.readouterr().err
