import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from rosenpencil import NonConvergence, companion_first, emit_rsmp, parse_pencil, spectral
from rosenpencil.cli import main
from rosenpencil.sampling import random_rsmp


@pytest.fixture
def example_file(tmp_path, worked_example):
    path = tmp_path / "example.json"
    path.write_text(emit_rsmp(worked_example))
    return str(path)


@pytest.fixture
def rect_file(tmp_path, rng):
    r = random_rsmp(rng, 1, 1, 1, 6, 1)
    path = tmp_path / "deg6.json"
    path.write_text(emit_rsmp(r))
    return str(path)


def _fresh_process(argv):
    """stdout and exit code of ``argv`` run by a new interpreter."""
    src = str(Path(spectral.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "rosenpencil.cli", *argv], capture_output=True, text=True, env=env, check=False
    )
    return proc.stdout, proc.returncode


class TestParserReuse:
    def test_calls_in_one_process_print_what_fresh_processes_print(self, tmp_path, rng, capsys):
        # the parser is built once per process; no call may leak into the
        # next (a leaked --all would run all four decision strings)
        path = tmp_path / "inst.json"
        path.write_text(emit_rsmp(random_rsmp(rng, 2, 2, 2, 3, 2)))
        calls = [["verify", str(path), "--all"], ["verify", str(path), "--sigma", "CI"], ["eig", str(path)]]
        for argv in calls:
            code = main(argv)
            assert (capsys.readouterr().out, code) == _fresh_process(argv)


class TestPencilCommand:
    def test_writes_reusable_document(self, rect_file, tmp_path, capsys):
        out = tmp_path / "pencil.json"
        code = main(["pencil", rect_file, "--sigma", "CCICI", "--out", str(out)])
        assert code == 0
        pencil = parse_pencil(out.read_text())
        # degree-six state with linear feedthrough: 7x7 in scalar dims
        assert pencil.shape == (7, 7)
        assert len(pencil.row_sizes) == 7

    def test_permutation_sigma(self, rect_file, capsys):
        assert main(["pencil", rect_file, "--sigma", "1,2,4,3,6,5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "pencil"

    def test_wrong_sigma_length_is_input_error(self, rect_file, capsys):
        assert main(["pencil", rect_file, "--sigma", "CC"]) == 2


class TestVerifyCommand:
    def test_all_strings_pass(self, tmp_path, rng, capsys):
        r = random_rsmp(rng, 2, 2, 2, 3, 2)
        path = tmp_path / "inst.json"
        path.write_text(emit_rsmp(r))
        code = main(["verify", str(path), "--all", "--trials", "6"])
        out = capsys.readouterr().out
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 4
        assert all(rec["verdict"] == "pass" for rec in records)
        assert all(rec["max_residual"] <= 1e-8 for rec in records)

    def test_single_sigma(self, example_file, capsys):
        assert main(["verify", example_file, "--sigma", ""]) == 0

    def test_out_file_gets_the_records(self, tmp_path, rng, capsys):
        r = random_rsmp(rng, 1, 2, 1, 2, 2)
        path = tmp_path / "inst.json"
        path.write_text(emit_rsmp(r))
        out = tmp_path / "reports.jsonl"
        code = main(["verify", str(path), "--all", "--trials", "5", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""  # records went to the file
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 2 and all(r["verdict"] == "pass" for r in records)

    def test_deterministic_output(self, tmp_path, rng, capsys):
        r = random_rsmp(rng, 2, 1, 2, 3, 2)
        path = tmp_path / "inst.json"
        path.write_text(emit_rsmp(r))
        args = ["verify", str(path), "--all", "--seed", "17", "--trials", "5"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_missing_sigma_is_input_error(self, example_file, capsys):
        assert main(["verify", example_file]) == 2

    def test_verification_failure_exits_one(self, rect_file, capsys):
        # float rounding keeps the residual of a degree-six instance strictly
        # positive, so an absurdly tight tolerance must flip the verdict
        code = main(["verify", rect_file, "--sigma", "CCICI", "--tol", "1e-30"])
        out = capsys.readouterr().out
        assert code == 1
        assert json.loads(out.splitlines()[0])["verdict"] == "fail"

    def test_corrupt_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert main(["verify", str(path), "--all"]) == 2

    def test_overflowing_instance_fails(self, tmp_path, overflowing_example, capsys):
        # the residual scale overflows, which must fail the verdict rather
        # than read as a zero residual
        path = tmp_path / "big.json"
        path.write_text(emit_rsmp(overflowing_example))
        assert main(["verify", str(path), "--all"]) == 1
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(records) == 4
        assert all(rec["verdict"] == "fail" for rec in records)

    def test_overflowing_record_is_strict_json(self, tmp_path, overflowing_example, capsys):
        # a non-finite residual is written as null, not as the token Infinity
        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        path = tmp_path / "big.json"
        path.write_text(emit_rsmp(overflowing_example))
        assert main(["verify", str(path), "--sigma", "CC"]) == 1
        (line,) = capsys.readouterr().out.splitlines()
        rec = json.loads(line, parse_constant=reject)
        assert rec["max_residual"] is None
        assert rec["corollary_residual"] is None
        assert rec["verdict"] == "fail"


_NUM = r"(?:\d+(?:\.\d*)?(?:e[-+]\d+)?)"
_EIG = re.compile(rf"(?P<re>[-+]?{_NUM})(?:(?P<im>[-+]{_NUM})i)?(?: \(x(?P<k>\d+)\))?")


def _printed_eigs(out, head):
    """The (value, multiplicity) pairs of one ``{...}`` line of the eig report."""
    (line,) = [ln for ln in out.splitlines() if ln.startswith(head + ": ")]
    body = line.split(": ", 1)[1][1:-1]
    eigs = []
    for tok in filter(None, body.split(", ")):
        m = _EIG.fullmatch(tok)
        eigs.append((complex(float(m["re"]), float(m["im"] or 0.0)), int(m["k"] or 1)))
    return eigs


class TestEigCommand:
    def test_nonconvergence_is_exit_two(self, example_file, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise NonConvergence("root iteration did not converge in 500 sweeps")

        monkeypatch.setattr(spectral, "poly_roots", no_convergence)
        assert main(["eig", example_file]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: root iteration did not converge")
        assert "Traceback" not in err

    def test_overflowing_determinant_is_exit_two(self, tmp_path, overflowing_example, capsys):
        path = tmp_path / "big.json"
        path.write_text(emit_rsmp(overflowing_example))
        assert main(["eig", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: determinant interpolation failed its holdout check\n"

    def test_worked_example_narrative(self, example_file, capsys):
        assert main(["eig", example_file]) == 0
        out = capsys.readouterr().out
        assert "system matrix eigenvalues: {1}" in out
        assert "transfer function at 1: pole" in out
        assert "cleared-denominator eigenvalues: {1 (x2)}" in out
        assert "extra eigenvalues created by clearing: {1}" in out

    def test_degree_sixty_determinant(self, tmp_path, capsys):
        # a (3,3,3,5,5) instance whose cleared polynomial has a determinant of
        # degree 60, on which oracles.poly_roots_aberth does not converge
        r = random_rsmp(np.random.default_rng(0), 3, 3, 3, 5, 5)
        path = tmp_path / "deg60.json"
        path.write_text(emit_rsmp(r))
        assert main(["eig", str(path)]) == 0
        out = capsys.readouterr().out
        qz = oracles.qz_finite_eigenvalues(companion_first(r))
        assert oracles.clusters_match(_printed_eigs(out, "system matrix eigenvalues"), qz)
        assert sum(k for _, k in _printed_eigs(out, "cleared-denominator eigenvalues")) == 60

    def test_values_print_in_one_format(self, tmp_path, rng, capsys):
        # every value of the report, the transfer and extra lines included,
        # is written as a or a+bi to 6 significant digits
        done = 0
        while done < 5:
            r = random_rsmp(rng, 2, 2, 2, 2, 1)
            path = tmp_path / "inst.json"
            path.write_text(emit_rsmp(r))
            if main(["eig", str(path)]) != 0:
                capsys.readouterr()
                continue
            done += 1
            for line in capsys.readouterr().out.splitlines():
                head, _, body = line.partition(": ")
                if head.startswith("transfer function at "):
                    assert _EIG.fullmatch(head[len("transfer function at "):])
                else:
                    assert all(_EIG.fullmatch(tok) for tok in filter(None, body[1:-1].split(", ")))


class TestInfoCommand:
    def test_reports_dimensions(self, example_file, capsys):
        assert main(["info", example_file]) == 0
        out = capsys.readouterr().out
        assert "d_A = 1, d_D = 1" in out
        assert "state polynomial regular: True" in out


class TestFuzzCommand:
    def test_sampling_failure_is_exit_two(self, capsys, monkeypatch):
        import rosenpencil.sampling

        monkeypatch.setattr(rosenpencil.sampling, "is_regular", lambda poly: False)
        assert main(["fuzz", "--max-dim", "1", "--max-deg", "1"]) == 2
        assert capsys.readouterr().err == "error: could not draw a regular state polynomial\n"

    def test_small_sweep_passes_and_repeats(self, tmp_path, capsys):
        args = [
            "fuzz", "--seed", "5", "--max-dim", "2", "--max-deg", "2",
            "--trials", "4", "--out", str(tmp_path / "reports.jsonl"),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        first_reports = (tmp_path / "reports.jsonl").read_text()
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert (tmp_path / "reports.jsonl").read_text() == first_reports
        records = [json.loads(line) for line in first_reports.splitlines()]
        assert all(rec["verdict"] == "pass" for rec in records)
        # 2*2*2 shapes, degrees (1,1),(1,2),(2,1),(2,2) -> 1+2+2+2 strings each
        assert len(records) == 8 * 7
