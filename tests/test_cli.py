import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from rosenpencil import (
    MatrixPolynomial,
    NonConvergence,
    Rsmp,
    SigmaSeq,
    all_decision_strings,
    cli,
    companion_first,
    emit_rsmp,
    equivalence,
    fiedler,
    parse_pencil,
    parse_rsmp,
    rsmp,
    spectral,
)
from rosenpencil._gridops import Grid
from rosenpencil.blocks import BlockMatrix, Pencil
from rosenpencil.cli import RunReport, main
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

    def test_all_with_sigma_is_input_error(self, rect_file, capsys):
        # --all used to run every string and drop --sigma without a word
        assert main(["verify", rect_file, "--all", "--sigma", "CCCCC"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --all and --sigma are mutually exclusive\n"

    def test_verification_failure_exits_one(self, rect_file, capsys, monkeypatch):
        # a genuinely wrong pencil: one nonzero tail entry off by 1e-6 relative
        build = fiedler.pencil_from_tail

        def perturbed(r, tail, leads=None):
            pencil = build(r, tail, leads)
            wrong = pencil.tail.copy()
            i, j = np.argwhere(wrong != 0)[0]
            wrong[i, j] *= 1 + 1e-6
            return Pencil(pencil.lead, wrong, pencil.row_sizes, pencil.col_sizes)

        monkeypatch.setattr(fiedler, "pencil_from_tail", perturbed)
        code = main(["verify", rect_file, "--sigma", "CCICI"])
        out = capsys.readouterr().out
        assert code == 1
        assert json.loads(out.splitlines()[0])["verdict"] == "fail"

    def test_corrupt_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert main(["verify", str(path), "--all"]) == 2

    def test_overflowing_instance_fails(self, tmp_path, rng, capsys, monkeypatch):
        # witnesses whose product overflows: the residual cannot be certified,
        # which must fail the verdict rather than read as a zero residual
        _overflowing_witnesses(monkeypatch)
        path = tmp_path / "big.json"
        path.write_text(emit_rsmp(random_rsmp(rng, 2, 1, 2, 3, 2)))
        assert main(["verify", str(path), "--all"]) == 1
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(records) == 4
        assert all(rec["verdict"] == "fail" for rec in records)

    def test_overflowing_record_is_strict_json(self, tmp_path, rng, capsys, monkeypatch):
        # a non-finite residual is written as null, not as the token Infinity
        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        _overflowing_witnesses(monkeypatch)
        path = tmp_path / "big.json"
        path.write_text(emit_rsmp(random_rsmp(rng, 2, 1, 2, 3, 2)))
        assert main(["verify", str(path), "--sigma", "CC"]) == 1
        (line,) = capsys.readouterr().out.splitlines()
        rec = json.loads(line, parse_constant=reject)
        assert rec["max_residual"] is None
        assert rec["corollary_residual"] is None
        assert rec["verdict"] == "fail"

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_no_sample_point_is_input_error(self, rect_file, capsys, trials):
        assert main(["verify", rect_file, "--all", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the sampled check needs at least one point\n"

    def test_boolean_entry_is_input_error(self, tmp_path, capsys):
        # JSON true once parsed as the coefficient 1
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({
            "n": 1, "p": 1, "m": 1, "d_A": 1, "d_D": 1,
            "A": [[[True]], [[[1.0, False]]]], "B": [[1]], "C": [[1]], "D": [[[1]], [[1]]],
        }))
        assert main(["verify", str(path), "--all"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: A[0][0][0]: expected a number")


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("command", [["verify", "--all"], ["eig"]])
def test_non_finite_token_is_input_error(tmp_path, worked_example, capsys, token, command):
    # the token once parsed as a float and failed later without a location
    text = emit_rsmp(worked_example)
    doc = json.loads(text)
    doc["B"][0][0] = "TOKEN"
    path = tmp_path / "token.json"
    path.write_text(json.dumps(doc).replace('"TOKEN"', token))
    assert main([command[0], str(path), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: instance: {token} is not a JSON number\n"


def _certify_products(monkeypatch) -> list:
    """Record, per ``_certify`` call, the dtype of each ``_mul`` product it forms, in order.

    Two products (U L, then U L V) mean that no scale was formed; a call
    that forms the scale |U| |L| |V| makes two more.
    """
    mul, certify = equivalence._mul, equivalence._certify
    calls, inside = [], []

    def certify_spy(*args, **kwargs):
        calls.append([])
        inside.append(True)
        try:
            return certify(*args, **kwargs)
        finally:
            inside.pop()

    def mul_spy(p, q):
        if inside:
            calls[-1].append(np.result_type(p, q))
        return mul(p, q)

    monkeypatch.setattr(equivalence, "_certify", certify_spy)
    monkeypatch.setattr(equivalence, "_mul", mul_spy)
    return calls


def _mutable_witnesses(monkeypatch) -> list:
    """Make the CLI check U times 1 + 1e-6 while the returned list is not empty.

    The pivots stay those the grid carries, which U then no longer holds.
    """
    witnesses, mutate = equivalence._witnesses, []

    def witness_spy(*args):
        u, v, pivots = witnesses(*args)
        return (u * (1 + 1e-6), v, pivots) if mutate else (u, v, pivots)

    monkeypatch.setattr(equivalence, "_witnesses", witness_spy)
    return mutate


def _overflowing_witnesses(monkeypatch):
    """Make the CLI check its witnesses times 1e200, so that U L V overflows."""
    witnesses = equivalence._witnesses

    def overflowing(*args):
        u, v, pivots = witnesses(*args)
        return u * 1e200, v * 1e200, pivots

    monkeypatch.setattr(equivalence, "_witnesses", overflowing)


def _replaced_witness(monkeypatch, which: int, change) -> None:
    """Make the CLI check ``change(copy)`` in place of witness ``which`` (0 for U, 1 for V); the grids stay the walk's."""
    witnesses = equivalence._witnesses

    def replacing(*args):
        u, v, grids = witnesses(*args)
        pair = [u, v]
        pair[which] = pair[which].copy()
        change(pair[which])
        return (*pair, grids)

    monkeypatch.setattr(equivalence, "_witnesses", replacing)


def _public_record(r, s, instance, trials=20, tol=1e-8, seed=0):
    """The report record of one decision string, from public calls alone, with an rng of its own."""
    rng = np.random.default_rng(seed)
    if r.degree >= 2:
        pencil = fiedler.fiedler_pencil_rect(r, s)
        u, v = equivalence.unimodular_pair(r, s)
        ws = fiedler.build_w_sequence(r, s)
        sizes_ok = all(w.shape == fiedler.expected_size(r.n, r.p, r.m, r.d_a, r.d_d, s, i) for i, w in enumerate(ws))
        structure_ok = all(fiedler.check_block_structure(w, i, r, s).passed for i, w in enumerate(ws))
    else:
        pencil, u, v = equivalence.linearization_with_witnesses(r, s)
        sizes_ok = structure_ok = True
    rep = equivalence.verify_theorem(r, s, pencil, u, v, points=trials, tol=tol, rng=rng)
    ok = rep.verdict and sizes_ok and structure_ok
    return RunReport(
        instance, s.decisions, pencil.shape[0], pencil.shape[1], rep.max_residual, rep.corollary_residual,
        rep.u_unimodularity, rep.v_unimodularity, sizes_ok, structure_ok, "pass" if ok else "fail",
    ).to_record()


class TestStreamMatchesPublicCalls:
    """The CLI shares prefixes and sample data across the strings of an instance;
    its report stream must be the per-string public calls' byte for byte."""

    @pytest.mark.parametrize(
        "cell",
        [(2, 1, 2, 1, 1), (2, 2, 1, 4, 2), (1, 2, 2, 2, 4), (2, 1, 2, 3, 3), "overflowing"]
        + [pytest.param(("spread", c), id=f"spread{k}")
           for k, c in enumerate([(2, 1, 2, 1, 1), (2, 2, 1, 4, 2), (1, 2, 2, 2, 4), (3, 2, 3, 3, 3)])],
    )
    def test_verify_all(self, tmp_path, overflowing_example, capsys, cell):
        # spread cells: complex coefficients over 1e-4..1e4, certified in complex arithmetic
        if cell == "overflowing":
            drawn = overflowing_example
        elif cell[0] == "spread":
            drawn = oracles.spread_rsmp(np.random.default_rng(7), *cell[1])
        else:
            drawn = random_rsmp(np.random.default_rng(7), *cell)
        path = tmp_path / "inst.json"
        path.write_text(emit_rsmp(drawn))
        r = parse_rsmp(path.read_text())
        instance = {"file": str(path), "n": r.n, "p": r.p, "m": r.m, "d_A": r.d_a, "d_D": r.d_d}
        want = [_public_record(r, s, instance) for s in all_decision_strings(r.degree)]
        failed = sum('"verdict": "fail"' in line for line in want)
        assert main(["verify", str(path), "--all"]) == (1 if failed else 0)
        assert capsys.readouterr().out == "".join(line + "\n" for line in want)
        if cell == "overflowing":
            # coefficients near 1e160: the certificate never multiplies two of them, so it reads exactly zero
            assert failed == 0 and all('"max_residual": 0.0, "corollary_residual": 0.0' in line for line in want)

    def test_one_complex_entry_takes_the_complex_path(self, tmp_path, capsys, monkeypatch):
        # a real instance's certificate multiplies in float64 only; one complex
        # entry in B sends U L V to complex128, with the records of the public
        # calls either way.  A certified string forms no scale; a mutated
        # witness makes the check form |U| |L| |V| too, in float64 on both paths
        calls = _certify_products(monkeypatch)
        mutate = _mutable_witnesses(monkeypatch)
        real = random_rsmp(np.random.default_rng(7), 2, 2, 1, 4, 2)
        b = real.B.copy()
        b[1, 0] += 0.5j
        mixed = Rsmp(real.A, b, real.C, real.D)
        f64, c128 = np.dtype(float), np.dtype(complex)
        for drawn, product in ((real, f64), (mixed, c128)):
            path = tmp_path / "inst.json"
            path.write_text(emit_rsmp(drawn))
            r = parse_rsmp(path.read_text())
            assert r.real == (drawn is real) and r.transpose().real == r.real
            instance = {"file": str(path), "n": r.n, "p": r.p, "m": r.m, "d_A": r.d_a, "d_D": r.d_d}
            calls.clear()
            assert main(["verify", str(path), "--all"]) == 0
            assert len(calls) == 8 and all(c == [product, product] for c in calls)
            want = [_public_record(r, s, instance) for s in all_decision_strings(r.degree)]
            assert capsys.readouterr().out == "".join(line + "\n" for line in want)
            calls.clear()
            mutate.append(True)
            assert main(["verify", str(path), "--sigma", "CIC"]) == 1
            mutate.clear()
            assert calls == [[product, product, f64, f64]]
            assert json.loads(capsys.readouterr().out)["max_residual"] >= 1e-7

    def test_verify_all_across_chunks(self, tmp_path, capsys):
        # --trials 41 on 24x24 pencils, at one frame per shape
        r = random_rsmp(np.random.default_rng(7), 3, 3, 3, 4, 4)
        path = tmp_path / "inst.json"
        path.write_text(emit_rsmp(r))
        r = parse_rsmp(path.read_text())
        instance = {"file": str(path), "n": r.n, "p": r.p, "m": r.m, "d_A": r.d_a, "d_D": r.d_d}
        want = [_public_record(r, s, instance, trials=41) for s in all_decision_strings(r.degree)]
        failed = sum('"verdict": "fail"' in line for line in want)
        assert main(["verify", str(path), "--all", "--trials", "41"]) == (1 if failed else 0)
        assert capsys.readouterr().out == "".join(line + "\n" for line in want)

    def test_fuzz(self, tmp_path, capsys):
        out = tmp_path / "reports.jsonl"
        args = ["fuzz", "--seed", "4", "--max-dim", "2", "--max-deg", "3", "--trials", "6", "--out", str(out)]
        assert main(args) == 0
        capsys.readouterr()
        rng = np.random.default_rng(4)
        want = []
        for n, p, m, d_a, d_d in itertools.product((1, 2), (1, 2), (1, 2), (1, 2, 3), (1, 2, 3)):
            r = random_rsmp(rng, n, p, m, d_a, d_d)
            instance = {"n": n, "p": p, "m": m, "d_A": d_a, "d_D": d_d}
            want += [_public_record(r, s, instance, trials=6, seed=5) for s in all_decision_strings(r.degree)]
        assert out.read_text() == "".join(line + "\n" for line in want)



def _dumped(instance, sigma, rows, cols, figures, sizes_ok, structure_ok, verdict):
    """A record as ``json.dumps`` writes its dict: strict JSON, a non-finite figure as null."""
    names = ("max_residual", "corollary_residual", "u_unimodularity", "v_unimodularity")
    data = {"instance": instance, "sigma": sigma, "rows": rows, "cols": cols}
    data.update((name, x if np.isfinite(x) else None) for name, x in zip(names, figures))
    data.update(sizes_ok=sizes_ok, structure_ok=structure_ok, verdict=verdict)
    return json.dumps(data, sort_keys=False, allow_nan=False)


class TestRecordWriter:
    """The records are written around the instance's JSON text, made once; their bytes are json.dumps's."""

    @pytest.mark.parametrize("instance", [
        {"file": "plain.json", "n": 1, "p": 2, "m": 3, "d_A": 7, "d_D": 1},
        {"file": 'dir/"quoted" name.json', "n": 2, "p": 2, "m": 2, "d_A": 3, "d_D": 3},
        {"file": "C:\\data\\inst.json", "n": 3, "p": 1, "m": 2, "d_A": 4, "d_D": 2},
        {"file": "donn\u00e9es/\u7cfb\u7d71 \u03bb.json", "n": 1, "p": 1, "m": 1, "d_A": 1, "d_D": 1},
        {"n": 2, "p": 1, "m": 2, "d_A": 3, "d_D": 2},  # fuzz: no file
    ], ids=["plain", "quotes", "backslash", "non-ascii", "fuzz"])
    def test_bytes_are_those_of_json_dumps(self, instance):
        records = cli._Records(instance)
        values = [0.0, 5e-7, 1.7e308, np.inf, np.nan, -np.inf, np.float64(2.5e-9)]
        lines = 0
        for k, (sizes_ok, structure_ok) in enumerate(itertools.product((True, False), repeat=2)):
            for j, x in enumerate(values):
                figures = (x, x, values[(j + k + 1) % len(values)], values[(j + 2 * k + 3) % len(values)])
                verdict = "pass" if j < 2 and sizes_ok and structure_ok else "fail"
                args = ("CI" * k + "C", 7 + j, 9 + k, *figures, sizes_ok, structure_ok, verdict)
                want = _dumped(instance, args[0], args[1], args[2], figures, sizes_ok, structure_ok, verdict)
                assert records.line(*args) == want
                assert RunReport(instance, *args).to_record() == want
                lines += 1
        assert lines == 4 * len(values)

    def test_run_report_escapes_any_field(self):
        # only the CLI's own records skip the escapes; RunReport takes any str and number
        instance = {"file": "x.json", "n": 1, "p": 1, "m": 1, "d_A": 2, "d_D": 1}
        args = ('C"\\\u03bb', 2.0, 3, 0.0, np.nan, 1e-9, np.inf, True, False, 'f"ail')
        record = RunReport(instance, *args).to_record()
        assert record == _dumped(instance, args[0], args[1], args[2], args[3:7], True, False, args[9])
        assert json.loads(record)["sigma"] == args[0] and json.loads(record)["rows"] == 2.0


# the eight cells of the deep_verify benchmark workload (degree 7)
DEEP_CELLS = [
    (3, 3, 3, 7, 7), (2, 2, 2, 7, 7), (3, 2, 1, 7, 3), (3, 1, 2, 7, 5),
    (1, 2, 3, 7, 1), (2, 3, 1, 2, 7), (2, 3, 3, 4, 7), (1, 3, 3, 1, 7),
]


class TestOnDemandScale:
    """``verify`` forms the scale |U| |L| |V| only where it can change a figure."""

    def test_certified_deep_cells_form_no_scale(self, tmp_path, capsys, monkeypatch):
        calls = _certify_products(monkeypatch)
        mutate = _mutable_witnesses(monkeypatch)
        rng = np.random.default_rng(1704)
        for k, cell in enumerate(DEEP_CELLS):
            path = tmp_path / f"{k}.json"
            path.write_text(emit_rsmp(random_rsmp(rng, *cell)))
            calls.clear()
            assert main(["verify", str(path), "--all"]) == 0
            assert len(calls) == 64 and all(len(c) == 2 for c in calls), cell
        capsys.readouterr()
        # a mutated witness does form one
        calls.clear()
        mutate.append(True)
        assert main(["verify", str(path), "--sigma", "CICICI"]) == 1
        assert [len(c) for c in calls] == [4]
        assert json.loads(capsys.readouterr().out)["max_residual"] >= 1e-7

    @pytest.mark.parametrize("case", ["overflowing witnesses", "mutated witness", "1.7e308", "spread"])
    def test_full_scale_gives_the_same_stream(self, tmp_path, capsys, monkeypatch, case):
        # the records with the scale on demand and with the scale formed on every string
        rng = np.random.default_rng(1705)
        r = random_rsmp(rng, 2, 1, 2, 3, 3)
        if case == "overflowing witnesses":
            _overflowing_witnesses(monkeypatch)
        elif case == "mutated witness":
            _mutable_witnesses(monkeypatch).append(True)
        elif case == "1.7e308":
            big = 1.7e308 / max(np.abs(x).max() for x in (r.A.coeffs, r.B, r.C, r.D.coeffs))
            r = Rsmp(MatrixPolynomial(r.A.coeffs * big), r.B * big, r.C * big, MatrixPolynomial(r.D.coeffs * big))
        else:
            r = oracles.spread_rsmp(rng, 2, 3, 2, 3, 3)
        path = tmp_path / "inst.json"
        path.write_text(emit_rsmp(r))
        code = main(["verify", str(path), "--all"])
        on_demand = capsys.readouterr().out
        monkeypatch.setattr(equivalence, "_scale_is_finite", lambda *args: False)
        assert main(["verify", str(path), "--all"]) == code
        assert capsys.readouterr().out == on_demand



class TestTargetFromParsedArrays:
    def test_a_defect_in_the_walked_copy_fails_the_verdict(self, tmp_path, capsys, monkeypatch):
        # the walk reads Rsmp.coefficients, the certificate's target the
        # parsed arrays: 1 added to A_0 in the float64 copy moves the pencil
        # but not the target, so every string fails
        coefficients = Rsmp.coefficients

        def shifted(self, dtype):
            c = coefficients(self, dtype)
            if np.dtype(dtype) != np.float64:
                return c
            a = c.A.copy()
            a[0] += 1.0
            return c._replace(A=a)

        paths = []
        for k, cell in enumerate([(2, 2, 2, 3, 3), (3, 1, 2, 4, 2), (1, 3, 3, 2, 5)]):
            path = tmp_path / f"{k}.json"
            path.write_text(emit_rsmp(random_rsmp(np.random.default_rng(0), *cell)))
            assert main(["verify", str(path), "--all"]) == 0
            paths.append(path)
        capsys.readouterr()
        monkeypatch.setattr(Rsmp, "coefficients", shifted)
        for path, strings in zip(paths, (4, 8, 16)):
            assert main(["verify", str(path), "--all"]) == 1
            records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
            assert len(records) == strings
            # a difference over a zero scale entry reads as an infinite residual, written as null
            assert all(rec["verdict"] == "fail" and (rec["max_residual"] or np.inf) > 1e-8 for rec in records)


class TestSpreadSweep:
    def test_every_small_spread_cell_passes(self, tmp_path, capsys):
        # verify --all on oracles.spread_rsmp instances (complex, magnitudes
        # 1e-4..1e4) of every shape in {1,2,3}^3 at degree pairs in {1..3}^2
        rng = np.random.default_rng(1706)
        records = []
        for cell in itertools.product((1, 2, 3), (1, 2, 3), (1, 2, 3), (1, 2, 3), (1, 2, 3)):
            path = tmp_path / "inst.json"
            path.write_text(emit_rsmp(oracles.spread_rsmp(rng, *cell)))
            assert main(["verify", str(path), "--all"]) == 0, cell
            records += [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(records) == 27 * (1 + 3 * 2 + 5 * 4)  # one string at degree 1, two at 2, four at 3
        assert all(rec["verdict"] == "pass" for rec in records)
        assert max(rec["max_residual"] for rec in records) == 0.0


class TestEigWork:
    def test_eig_samples_no_normal_rank_and_evaluates_r_twice(self, tmp_path, capsys, monkeypatch):
        # R has normal rank p once S and A pass their prechecks, and the
        # cleared polynomial takes its nodes and holdouts in one stack: R is
        # evaluated there and at the candidates (the parent sampled the
        # normal rank and evaluated R four times)
        path = tmp_path / "eig.json"
        path.write_text(emit_rsmp(random_rsmp(np.random.default_rng(5), 2, 2, 2, 3, 2)))
        calls = []

        def counted(fn):
            def wrapped(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(spectral, "normal_rank", counted(spectral.normal_rank))
        stack = counted(rsmp.transfer_eval_stack)
        monkeypatch.setattr(rsmp, "transfer_eval_stack", stack)
        monkeypatch.setattr(spectral, "transfer_eval_stack", stack)
        assert main(["eig", str(path)]) == 0
        capsys.readouterr()
        assert calls == ["transfer_eval_stack"] * 2


class TestCertifyWork:
    def test_the_walks_witnesses_are_trusted_by_identity(self, tmp_path, capsys, monkeypatch):
        # one verify --all of a deep_verify cell (64 strings): U and V are the
        # walk's own arrays, so no pivot indices, no gather and no scan of
        # them; only the pencil is scanned (a pivot gather per witness and a
        # scan per factor would make 128, 128 and 192)
        path = tmp_path / "deep.json"
        path.write_text(emit_rsmp(random_rsmp(np.random.default_rng(2301), *DEEP_CELLS[0])))
        indices, gathers, scans = [], [], []
        pivot_indices, unimodularity, top, certify = (
            equivalence.pivot_indices, equivalence._unimodularity, equivalence._top, equivalence._certify)

        def indices_spy(*args, **kwargs):
            indices.append(1)
            return pivot_indices(*args, **kwargs)

        def unimodularity_spy(w, samples, piv=None):
            if piv is not None:
                gathers.append(1)
            return unimodularity(w, samples, piv)

        def certify_spy(r, s, pencil, u, v, *args, **kwargs):
            scans.append((pencil, u, v, []))
            return certify(r, s, pencil, u, v, *args, **kwargs)

        def top_spy(x):
            scans[-1][3].append(x)
            return top(x)

        for name, spy in [("pivot_indices", indices_spy), ("_unimodularity", unimodularity_spy), ("_top", top_spy),
                          ("_certify", certify_spy)]:
            monkeypatch.setattr(equivalence, name, spy)
        assert main(["verify", str(path), "--all"]) == 0
        capsys.readouterr()
        assert len(indices) == 0 and len(gathers) == 0
        assert len(scans) == 64 and sum(len(scanned) for *_, scanned in scans) == 64
        for pencil, u, v, (x,) in scans:
            assert x is not u and x is not v and x.shape == (2, *pencil.shape)
            assert np.array_equal(x[0], -pencil.tail) and np.array_equal(x[1], pencil.lead)

    @pytest.mark.parametrize("case", ["V replaced", "entry above 2**1000"])
    def test_a_replaced_witness_is_checked_in_full(self, tmp_path, capsys, monkeypatch, case):
        # a witness replaced after the walk is not the grid's own array: its
        # figures are those of the check that trusts nothing by identity
        def scaled(v):
            v *= 1 + 1e-6

        def huge(u):
            u[0, 0, -1] = 2.0**1023  # the scan shifts U down by 2**24, without which U L V overflows

        if case == "V replaced":
            _replaced_witness(monkeypatch, 1, scaled)
        else:
            _replaced_witness(monkeypatch, 0, huge)
        calls, certify = [], equivalence._certify

        def certify_spy(*args, **kwargs):
            report = certify(*args, **kwargs)
            calls.append((args, kwargs, report))
            return report

        monkeypatch.setattr(equivalence, "_certify", certify_spy)
        path = tmp_path / "inst.json"
        path.write_text(emit_rsmp(random_rsmp(np.random.default_rng(2302), 2, 2, 1, 4, 3)))
        assert main(["verify", str(path), "--all"]) == 1
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(calls) == len(records) == 8 and all(rec["verdict"] == "fail" for rec in records)
        monkeypatch.setattr(equivalence, "owns", lambda *args, **kwargs: False)
        for args, kwargs, report in calls:
            assert kwargs["grids"][0].piv is not None and kwargs["grids"][1].piv is not None
            untrusted = certify(*args, **kwargs)
            assert repr(report) == repr(untrusted)
        figures = [(rep.max_residual, rep.u_unimodularity, rep.v_unimodularity) for _, _, rep in calls]
        if case == "V replaced":
            assert all(res >= 1e-7 and u_dev == 0.0 and v_dev > 1e-7 for res, u_dev, v_dev in figures)
        else:
            assert all(0.0 < res < np.inf for res, _, _ in figures)


class TestPerStringWork:
    def test_verify_all_builds_no_matrix_polynomial_per_string(self, tmp_path, capsys, monkeypatch):
        # the witnesses are checked as raw coefficient stacks: --all over the
        # 16 strings of degree 5 builds what one string builds, all per instance
        path = tmp_path / "deg5.json"
        path.write_text(emit_rsmp(random_rsmp(np.random.default_rng(11), 2, 1, 2, 5, 3)))
        built = []
        init = MatrixPolynomial.__init__

        def counting_init(self, coeffs):
            built.append(1)
            init(self, coeffs)

        monkeypatch.setattr(MatrixPolynomial, "__init__", counting_init)

        def constructions(*flags):
            built.clear()
            assert main(["verify", str(path), *flags]) == 0
            return len(built)

        one = constructions("--sigma", "CICI")
        every = constructions("--all")
        capsys.readouterr()
        assert every == one


    def test_verify_all_builds_no_block_matrix(self, tmp_path, capsys, monkeypatch):
        # the pencil takes the last W grid's stack as its tail: no BlockMatrix
        # on the eight deep_verify cells, where one per string was built
        built = []
        init = BlockMatrix.__init__

        def counting_init(self, *args):
            built.append(1)
            init(self, *args)

        monkeypatch.setattr(BlockMatrix, "__init__", counting_init)
        rng = np.random.default_rng(2101)
        for k, cell in enumerate(DEEP_CELLS):
            path = tmp_path / f"{k}.json"
            path.write_text(emit_rsmp(random_rsmp(rng, *cell)))
            assert main(["verify", str(path), "--all"]) == 0
        capsys.readouterr()
        assert built == []

    def test_recursion_witnesses_need_no_determinant_plan(self, tmp_path, capsys, monkeypatch):
        # the pivots their grids carry settle det U and det V, at every degree
        def no_plan(stack):
            raise AssertionError("_det_plan ran")

        monkeypatch.setattr(equivalence, "_det_plan", no_plan)
        rng = np.random.default_rng(12)
        for k, draw in enumerate((random_rsmp, oracles.spread_rsmp)):
            for cell in [(2, 1, 2, 1, 1), (3, 2, 1, 5, 3), (1, 3, 2, 2, 6)]:
                path = tmp_path / f"inst{k}.json"
                path.write_text(emit_rsmp(draw(rng, *cell)))
                assert main(["verify", str(path), "--all"]) == 0
        assert main(["fuzz", "--max-dim", "2", "--max-deg", "3", "--out", str(tmp_path / "fuzz.jsonl")]) == 0
        capsys.readouterr()


    def test_one_walk_per_string(self, tmp_path, capsys, monkeypatch):
        # W, N and H grow together: one schedule call per string on the
        # eight deep_verify cells, wherever the package looks schedule up
        calls = []

        def spy(schedule):
            def counted(*args, **kwargs):
                calls.append(args[1].decisions)
                return schedule(*args, **kwargs)

            return counted

        for module in (cli, fiedler, equivalence):
            monkeypatch.setattr(module, "schedule", spy(module.schedule))
        rng = np.random.default_rng(1901)
        for k, cell in enumerate(DEEP_CELLS):
            path = tmp_path / f"{k}.json"
            path.write_text(emit_rsmp(random_rsmp(rng, *cell)))
            calls.clear()
            assert main(["verify", str(path), "--all"]) == 0
            assert calls == [s.decisions for s in all_decision_strings(7)], cell
        capsys.readouterr()


# every cell of the acceptance grid: (n, p, m) in {1,2,3}^3, (d_A, d_D) in {1..5}^2
GRID = list(itertools.product((1, 2, 3), (1, 2, 3), (1, 2, 3), range(1, 6), range(1, 6)))


def _faulted(g):
    """A copy of the W grid ``g`` whose (1,1) block, the claimed -A_{i+1}, is off by one."""
    stack = g.stack.copy()
    stack[0, : g.rc[1], : g.cc[1]] += 1.0
    return Grid(stack, g.rsz, g.csz, g.a, g.cdeg, g.piv)


class TestWalkVerdicts:
    """The walk of ``verify --all`` checks each prefix on its W grid, against the public checks."""

    @pytest.mark.parametrize("draw", [random_rsmp, oracles.spread_rsmp], ids=["integer", "spread"])
    def test_prefix_verdicts_are_the_public_checks(self, draw):
        # every prefix of every acceptance-grid cell: the walk's size and
        # structure verdicts against expected_size and check_block_structure
        # on the matrices of the W recursion alone
        rng = np.random.default_rng(1902)
        checked = 0
        for cell in GRID:
            r = draw(rng, *cell)
            memo, w_memo, seen = {}, {}, set()
            for s in all_decision_strings(r.degree):
                path = cli._walk(r, s, memo)
                if r.degree == 1:
                    assert len(path) == 1 and path[0].size_ok and path[0].structure_ok
                    continue
                for i, (node, g) in enumerate(zip(path, fiedler._w_grids(r, s, w_memo))):
                    if s.decisions[: i + 1] in seen:
                        continue
                    seen.add(s.decisions[: i + 1])
                    w = fiedler._grid_to_blockmatrix(g)
                    size_ok = w.shape == fiedler.expected_size(r.n, r.p, r.m, r.d_a, r.d_d, s, i)
                    assert (node.size_ok, node.structure_ok) == (size_ok, fiedler.check_block_structure(w, i, r, s).passed)
                    assert node.size_ok and node.structure_ok
                    checked += 1
        assert checked == 27 * sum(2 ** max(d_a, d_d) - 2 for d_a in range(1, 6) for d_d in range(1, 6))

    @pytest.mark.parametrize("draw", [random_rsmp, oracles.spread_rsmp], ids=["integer", "spread"])
    def test_a_fault_flips_only_its_prefix(self, monkeypatch, draw):
        # one cell per degree pair; for every prefix P, a walk over all strings
        # in which the check of P sees a faulted W grid: P's structure verdict
        # is the only one to fail, every string through P carries it, and the
        # public check fails on the faulted matrix too
        check, target = cli._check, []

        def faulty_check(g, r, s, i):
            if s.decisions[: i + 1] == target[0]:
                verdict = check(g._replace(w=_faulted(g.w)), r, s, i)
                w = fiedler._grid_to_blockmatrix(_faulted(g.w))
                assert not fiedler.check_block_structure(w, i, r, s).passed
                return g._replace(size_ok=verdict.size_ok, structure_ok=verdict.structure_ok)
            return check(g, r, s, i)

        monkeypatch.setattr(cli, "_check", faulty_check)
        rng = np.random.default_rng(1903)
        shapes = list(itertools.product((1, 2, 3), repeat=3))
        for k, (d_a, d_d) in enumerate(itertools.product(range(1, 6), repeat=2)):
            r = draw(rng, *shapes[k], d_a, d_d)
            strings = list(all_decision_strings(r.degree))
            prefixes = {s.decisions[: i + 1] for s in strings for i in range(r.degree - 1)}
            for fault in sorted(prefixes):
                target[:] = [fault]
                memo = {}
                for s in strings:
                    for i, node in enumerate(cli._walk(r, s, memo)):
                        assert node.size_ok
                        assert node.structure_ok == (s.decisions[: i + 1] != fault), (d_a, d_d, fault, s.decisions)


def _same_grid(walked, public, dtype):
    """Assert that a grid of the walk is in ``dtype``, has the partition, pivots and column degrees of the complex
    builders' grid ``public``, and that its stack is the real part of ``public``'s (a float64 walk), or the same bytes."""
    assert walked.stack.dtype == dtype
    assert (walked.rsz, walked.csz, walked.rc, walked.cc) == (public.rsz, public.csz, public.rc, public.cc)
    assert (walked.a, walked.cdeg, walked.piv) == (public.a, public.cdeg, public.piv)
    assert public.stack.dtype == np.complex128
    if dtype == np.float64:
        assert not public.stack.imag.any() and np.array_equal(walked.stack, public.stack.real)
    else:
        assert walked.stack.tobytes() == public.stack.tobytes()


class TestRealWalk:
    """A real instance is walked in float64, a complex one in complex128; the public builders stay complex."""

    @pytest.mark.parametrize("draw", [random_rsmp, oracles.spread_rsmp], ids=["integer", "spread"])
    def test_walk_grids_are_the_public_builders(self, draw):
        # every cell of the acceptance grid and every decision string: each
        # prefix's W, N and H grids of the walk against the grids of the
        # complex builders, and for the integer draw against the real parts
        # of build_w_sequence, build_n_sequence and build_h_sequence
        rng = np.random.default_rng(2001)
        dtype = np.float64 if draw is random_rsmp else np.complex128
        strings = 0
        for cell in GRID:
            r = draw(rng, *cell)
            assert r.real == (draw is random_rsmp) and r.dtype == dtype
            memo, public, seen = {}, ({}, {}, {}), set()
            for s in all_decision_strings(r.degree):
                path = cli._walk(r, s, memo)
                strings += 1
                if r.degree == 1:
                    (node,) = path
                    _same_grid(node.w, fiedler._w_base(r), dtype)
                    _same_grid(node.n, equivalence._n_base(r), dtype)
                    _same_grid(node.h, equivalence._n_base(r.transpose()), dtype)
                    continue
                grids = (
                    fiedler._w_grids(r, s, public[0]),
                    equivalence._n_grids(r, s, public[1]),
                    equivalence._n_grids(r.transpose(), s.flipped(), public[2]),
                )
                if dtype == np.float64:
                    ws, ns, hs = (build(r, s) for build in (fiedler.build_w_sequence, equivalence.build_n_sequence,
                                                             equivalence.build_h_sequence))
                for i, node in enumerate(path):
                    if s.decisions[: i + 1] in seen:
                        continue
                    seen.add(s.decisions[: i + 1])
                    for walked, g in zip((node.w, node.n, node.h), grids):
                        _same_grid(walked, g[i], dtype)
                    if dtype == np.float64:
                        assert np.array_equal(node.w.stack[0], ws[i].data)
                        assert np.array_equal(node.n.stack, ns[i].poly.coeffs)
                        assert np.array_equal(node.h.stack.transpose(0, 2, 1), hs[i].poly.coeffs)
        assert strings == 6129

    @pytest.mark.parametrize("draw", [random_rsmp, oracles.spread_rsmp], ids=["integer", "spread"])
    def test_every_witness_grid_carries_its_pivots(self, monkeypatch, draw):
        # verify --all on every cell of the acceptance grid: every N and H grid
        # the walk builds carries its pivots, so no determinant plan is made
        walk, plans, walked = cli._walk, [], []
        plan = equivalence._det_plan

        def walk_spy(r, s, memo):
            path = walk(r, s, memo)
            walked.extend(path)
            return path

        def plan_spy(stack):
            plans.append(stack.shape)
            return plan(stack)

        monkeypatch.setattr(cli, "_walk", walk_spy)
        monkeypatch.setattr(equivalence, "_det_plan", plan_spy)
        rng = np.random.default_rng(2002)
        dtype = np.float64 if draw is random_rsmp else np.complex128
        strings = 0
        for cell in GRID:
            r = draw(rng, *cell)
            sigmas = list(all_decision_strings(r.degree))
            reports = cli._verify_instance(r, sigmas, {}, 20, 1e-8, 0)
            assert all(rep.verdict == "pass" for rep in reports), cell
            strings += len(sigmas)
        assert strings == 6129 and plans == []
        assert all(g.stack.dtype == dtype and g.piv is not None for node in walked for g in (node.n, node.h))

    def test_public_builders_stay_complex(self, rng):
        r = random_rsmp(rng, 2, 3, 1, 4, 3)
        s = SigmaSeq("CIC")
        assert r.real
        pencil = fiedler.fiedler_pencil_rect(r, s)
        assert pencil.lead.dtype == pencil.tail.dtype == np.complex128
        for p in (companion_first(r), fiedler.companion_second(r), *equivalence.linearization_with_witnesses(r, s)[:1]):
            assert p.lead.dtype == p.tail.dtype == np.complex128
        assert all(w.data.dtype == np.complex128 for w in fiedler.build_w_sequence(r, s))
        for seq in (equivalence.build_n_sequence(r, s), equivalence.build_h_sequence(r, s), equivalence.unimodular_pair(r, s)):
            assert all(w.poly.coeffs.dtype == np.complex128 for w in seq)

    def test_lead_comes_in_the_tails_dtype(self, rng):
        # one read-only lead per shape and dtype, the real part of the complex lead
        r = random_rsmp(rng, 2, 3, 1, 4, 3)
        s = SigmaSeq("ICC")
        leads = {}
        last = cli._walk(r, s, {})[-1]
        real = fiedler.pencil_from_tail(r, last.w, leads)
        want = fiedler.fiedler_pencil_rect(r, s)
        assert real.lead.dtype == real.tail.dtype == np.float64
        assert np.array_equal(real.lead, want.lead.real) and np.array_equal(real.tail, want.tail.real)
        again = fiedler.pencil_from_tail(r, last.w, leads)
        assert again.lead is real.lead and not real.lead.flags.writeable
        cplx = fiedler.pencil_from_tail(r, Grid.base(want.tail[None], want.row_sizes, want.col_sizes), leads)
        assert cplx.lead.dtype == np.complex128 and cplx.lead.tobytes() == want.lead.tobytes()
        assert len(leads) == 2


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

    @pytest.mark.parametrize("scale", [1e-5, 1e-20])
    def test_small_scale_prints_the_unscaled_spectra(self, tmp_path, capsys, scale):
        # scaling A, B, C and D by one factor leaves every eigenvalue in place;
        # an absolute trimming floor once printed an empty cleared spectrum
        r = random_rsmp(np.random.default_rng(0), 2, 2, 2, 2, 2)
        small = Rsmp(MatrixPolynomial(r.A.coeffs * scale), r.B * scale, r.C * scale,
                     MatrixPolynomial(r.D.coeffs * scale))
        outs = []
        for inst in (r, small):
            path = tmp_path / "inst.json"
            path.write_text(emit_rsmp(inst))
            assert main(["eig", str(path)]) == 0
            outs.append(capsys.readouterr().out)
        for head in ("system matrix eigenvalues", "cleared-denominator eigenvalues",
                     "extra eigenvalues created by clearing"):
            want = [z for z, k in _printed_eigs(outs[0], head) for _ in range(k)]
            got = _printed_eigs(outs[1], head)
            assert want and oracles.clusters_match(got, want), head

    def test_underflowing_determinant_is_exit_two(self, tmp_path, capsys):
        r = random_rsmp(np.random.default_rng(0), 2, 2, 2, 2, 2)
        tiny = Rsmp(MatrixPolynomial(r.A.coeffs * 1e-100), r.B * 1e-100, r.C * 1e-100,
                    MatrixPolynomial(r.D.coeffs * 1e-100))
        path = tmp_path / "tiny.json"
        path.write_text(emit_rsmp(tiny))
        assert main(["eig", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: determinant underflowed to zero")
        assert captured.err.count("\n") == 1

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


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["fuzz", "--max-dim", "x"],
            ["verify"],
            ["eig"],
            ["nosuch"],
            ["verify", "f.json", "--trials", "1.5"],
            # no residual passes a NaN or negative tolerance, so every string once reported "fail"
            ["verify", "f.json", "--all", "--tol", "nan"],
            ["verify", "f.json", "--all", "--tol", "-1"],
            ["verify", "f.json", "--all", "--tol", "inf"],
            ["verify", "f.json", "--all", "--tol", "0"],
            ["fuzz", "--tol", "nan"],
            ["fuzz", "--tol", "-1e-8"],
            ["fuzz", "--tol=-inf"],
        ],
    )
    def test_one_error_line_and_exit_two(self, argv, capsys):
        # argparse once raised SystemExit(2) here and printed a usage block
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: [^\n]+\n", captured.err)

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: rosenpencil" in capsys.readouterr().out


class TestInfoCommand:
    def test_reports_dimensions(self, example_file, capsys):
        assert main(["info", example_file]) == 0
        out = capsys.readouterr().out
        assert "d_A = 1, d_D = 1" in out
        assert "state polynomial regular: True" in out

    def test_size_menu_needs_one_string_per_consecution_count(self, tmp_path, rng, capsys, monkeypatch):
        # the menu once called expected_size for all 2^(d-1) decision strings
        n, p, m, d_a, d_d = 1, 2, 1, 5, 12
        path = tmp_path / "deg12.json"
        path.write_text(emit_rsmp(random_rsmp(rng, n, p, m, d_a, d_d)))
        brute = {fiedler.expected_size(n, p, m, d_a, d_d, s, d_d - 2) for s in all_decision_strings(d_d)}
        want = ", ".join(f"{a}x{b}" for a, b in sorted(brute))
        size_law, calls = fiedler.expected_size, []

        def counted(*args):
            calls.append(args)
            return size_law(*args)

        monkeypatch.setattr(fiedler, "expected_size", counted)
        assert main(["info", str(path)]) == 0
        assert len(calls) <= d_d
        assert f"pencil sizes over all decision strings: {want}\n" in capsys.readouterr().out


class TestFuzzCommand:
    def test_sampling_failure_is_exit_two(self, capsys, monkeypatch):
        import rosenpencil.sampling

        monkeypatch.setattr(rosenpencil.sampling, "is_regular", lambda poly: False)
        assert main(["fuzz", "--max-dim", "1", "--max-deg", "1"]) == 2
        assert capsys.readouterr().err == "error: could not draw a regular state polynomial\n"

    @pytest.mark.parametrize("flag", ["--max-dim", "--max-deg"])
    def test_empty_sweep_is_input_error(self, capsys, flag):
        # a sweep over no instance once printed "overall: 0/0 runs passed" and exited 0
        assert main(["fuzz", flag, "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --max-dim and --max-deg must be at least 1\n"

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
