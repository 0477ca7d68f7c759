import json

import numpy as np
import pytest

import oracles
from rosenpencil import (
    DimensionError,
    MatrixPolynomial,
    ParseError,
    Pencil,
    Rsmp,
    all_decision_strings,
    assemble_s,
    emit_pencil,
    emit_rsmp,
    fiedler_pencil_rect,
    parse_pencil,
    parse_rsmp,
    square_fiedler_pencil,
)
from rosenpencil import serialization
from rosenpencil.sampling import random_rsmp
from rosenpencil.sigma import SigmaSeq

WORKED_EXAMPLE_DOC = {
    "n": 1,
    "p": 2,
    "m": 2,
    "d_A": 1,
    "d_D": 1,
    "A": [[[-1]], [[1]]],
    "B": [[-1, 0]],
    "C": [[-1], [0]],
    "D": [[[-2, 1], [1, 0]], [[1, 0], [0, 0]]],
}


class TestParse:
    def test_worked_example_reassembles_printed_matrix(self):
        r = parse_rsmp(json.dumps(WORKED_EXAMPLE_DOC))
        s = assemble_s(r)
        want = np.array([[-1, 1, 0], [-1, -2, 1], [0, 1, 0]], dtype=complex)
        assert np.array_equal(s.coeffs[0], want)
        assert np.array_equal(np.diag(s.coeffs[1]), [1, 1, 0])

    def test_complex_entries_as_pairs(self):
        doc = dict(WORKED_EXAMPLE_DOC)
        doc["B"] = [[[-1, 0.5], 0]]
        r = parse_rsmp(json.dumps(doc))
        assert r.B[0, 0] == -1 + 0.5j

    def test_mismatched_coupling_dims(self):
        doc = dict(WORKED_EXAMPLE_DOC)
        doc["B"] = [[-1, 0, 3]]
        with pytest.raises(ParseError):
            parse_rsmp(json.dumps(doc))

    def test_unknown_field_rejected(self):
        doc = dict(WORKED_EXAMPLE_DOC)
        doc["extra"] = 1
        with pytest.raises(ParseError, match="unknown fields"):
            parse_rsmp(json.dumps(doc))

    def test_wrong_coefficient_count(self):
        doc = dict(WORKED_EXAMPLE_DOC)
        doc["d_A"] = 2
        with pytest.raises(ParseError):
            parse_rsmp(json.dumps(doc))

    def test_bad_entry_diagnostic_names_the_field(self):
        doc = dict(WORKED_EXAMPLE_DOC)
        doc["C"] = [["x"], [0]]
        with pytest.raises(ParseError, match=r"C\[0\]\[0\]"):
            parse_rsmp(json.dumps(doc))

    def test_invalid_json(self):
        with pytest.raises(ParseError, match="line"):
            parse_rsmp("{not json")

    @pytest.mark.parametrize("entry", [True, False, [1.0, False], [True, 0.0]])
    def test_boolean_entry_rejected(self, entry):
        # Python counts true and false as ints; they once parsed as 1 and 0
        doc = dict(WORKED_EXAMPLE_DOC)
        doc["A"] = [[[-1]], [[entry]]]
        with pytest.raises(ParseError, match=r"A\[1\]\[0\]\[0\]"):
            parse_rsmp(json.dumps(doc))


    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_token_rejected(self, token):
        # json.loads accepts these tokens by default; they are not JSON numbers
        text = json.dumps(WORKED_EXAMPLE_DOC).replace("[[-1]], [[1]]]", f"[[-1]], [[{token}]]]", 1)
        assert token in text
        with pytest.raises(ParseError, match=rf"^instance: {token} is not a JSON number$"):
            parse_rsmp(text)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_token_rejected_in_pencil(self, rng, token):
        doc = json.loads(emit_pencil(fiedler_pencil_rect(random_rsmp(rng, 1, 1, 1, 2, 1), SigmaSeq("C"))))
        doc["tail"][0][0] = "TOKEN"
        text = json.dumps(doc).replace('"TOKEN"', token)
        with pytest.raises(ParseError, match=rf"^pencil: {token} is not a JSON number$"):
            parse_pencil(text)

    @pytest.mark.parametrize(
        "entry", [float("nan"), float("inf"), -float("inf"), [0.0, float("nan")], [float("inf"), 1.0]]
    )
    def test_non_finite_dict_entry_rejected(self, entry):
        # a dict skips json.loads, so Python's nan and inf once reached the instance
        doc = dict(WORKED_EXAMPLE_DOC)
        doc["D"] = [[[-2, 1], [1, 0]], [[1, 0], [0, entry]]]
        with pytest.raises(ParseError, match=r"^D\[1\]\[1\]\[1\]: expected a finite number, got "):
            parse_rsmp(doc)

    @pytest.mark.parametrize("entry", [float("nan"), float("inf"), -float("inf"), [float("nan"), 0.0]])
    def test_non_finite_dict_entry_rejected_in_pencil(self, entry):
        doc = {"kind": "pencil", "row_sizes": [1], "col_sizes": [1], "lead": [[1.0]], "tail": [[entry]]}
        with pytest.raises(ParseError, match=r"^tail\[0\]\[0\]: expected a finite number, got "):
            parse_pencil(doc)

    @pytest.mark.parametrize("text", ["1e400", "-1e400", "[0, 1e400]"])
    def test_overflowing_literal_rejected(self, text):
        # json.loads reads 1e400 as inf, without a token parse_constant could refuse
        doc = json.dumps(WORKED_EXAMPLE_DOC).replace("[[-1]], [[1]]]", f"[[-1]], [[{text}]]]", 1)
        with pytest.raises(ParseError, match=r"^A\[1\]\[0\]\[0\]: expected a finite number, got "):
            parse_rsmp(doc)

    def test_integer_beyond_float_range_rejected(self):
        doc = dict(WORKED_EXAMPLE_DOC)
        doc["B"] = [[10**400, 0]]
        with pytest.raises(ParseError, match=r"^B\[0\]\[0\]: entry is out of the floating-point range$"):
            parse_rsmp(doc)

    @pytest.mark.parametrize("size", [1.7, 1.0, True, "1", -1, None])
    def test_pencil_block_size_must_be_an_integer(self, rng, size):
        # int() once turned 1.7, true and "1" into the size 1
        pencil = fiedler_pencil_rect(random_rsmp(rng, 1, 1, 1, 2, 1), SigmaSeq("C"))
        for key in ("row_sizes", "col_sizes"):
            doc = json.loads(emit_pencil(pencil))
            doc[key][1] = size
            with pytest.raises(ParseError, match=rf"^{key}\[1\]: expected an integer >= 0, got "):
                parse_pencil(json.dumps(doc))

    @pytest.mark.parametrize("sizes", ["12", {"1": 1}, 3])
    def test_pencil_block_sizes_must_be_a_list(self, rng, sizes):
        doc = json.loads(emit_pencil(fiedler_pencil_rect(random_rsmp(rng, 1, 1, 1, 2, 1), SigmaSeq("C"))))
        doc["row_sizes"] = sizes
        with pytest.raises(ParseError, match=r"^row_sizes: expected a list of integers >= 0$"):
            parse_pencil(json.dumps(doc))


def _read(obj, rows, cols, fast):
    """``(matrix bytes, None)`` or ``(None, ParseError text)`` for one matrix read with or without the fast path."""
    try:
        return serialization._matrix(obj, rows, cols, "X", fast).tobytes(), None
    except ParseError as exc:
        return None, str(exc)


def _coefficient_lists(text, read):
    """``((A bytes, D bytes), None)`` or ``(None, ParseError text)`` for the coefficient lists of an instance text."""
    try:
        a, d = read(text)
        return (a.tobytes(), d.tobytes()), None
    except ParseError as exc:
        return None, str(exc)


def _stacked(text):
    r = parse_rsmp(text)
    return r.A.coeffs, r.D.coeffs


def _per_matrix(text):
    """A and D read one matrix at a time with the fast path, as ``parse_rsmp`` read them before the stacked read."""
    doc = json.loads(text)
    n, p, m = doc["n"], doc["p"], doc["m"]
    a = np.array([serialization._matrix(c, n, n, f"A[{k}]", True) for k, c in enumerate(doc["A"])])
    d = np.array([serialization._matrix(c, p, m, f"D[{k}]", True) for k, c in enumerate(doc["D"])])
    return a, d


def _set(path, value):
    def change(doc):
        *keys, last = path
        target = doc
        for key in keys:
            target = target[key]
        target[last] = value(target[last]) if callable(value) else value

    return change


class TestFastMatrixRead:
    """``parse_rsmp`` reads a matrix with one ``np.array`` and walks it entry by entry only to find what is wrong."""

    VALID = [
        [[1, -2], [3, 0]],
        [[1.5, -0.0], [2, 1e-310]],
        [[[1, 2], [3.5, -0.0]], [[0, 0], [-1e308, 4]]],
        [[[2**62 + 1, 0], [2**63, 1.5]], [[2**64 - 1, 0], [-(2**63), -(2**62 + 3)]]],
        [[2**63, 1], [2**64 - 1, -(2**63)]],
    ]

    @pytest.mark.parametrize("obj", VALID)
    def test_valid_matrices_read_as_the_walk_reads_them(self, obj):
        assert serialization._numbers(obj, 2, 2) is not None
        fast, walked = _read(obj, 2, 2, True), _read(obj, 2, 2, False)
        assert fast == walked and fast[0] is not None

    def test_numbers_beside_pairs_are_walked(self):
        obj = [[1, [2, -0.5]], [3, 4]]
        assert serialization._numbers(obj, 2, 2) is None
        fast, walked = _read(obj, 2, 2, True), _read(obj, 2, 2, False)
        assert fast == walked and fast[0] is not None

    def test_valid_documents_read_as_the_walk_reads_them(self, rng):
        # a dict is always walked; its text form takes the fast path
        for draw in (random_rsmp, oracles.spread_rsmp):
            for cell in [(1, 1, 1, 1, 1), (2, 3, 1, 3, 2), (3, 2, 2, 1, 4)]:
                text = emit_rsmp(draw(rng, *cell))
                fast, walked = parse_rsmp(text), parse_rsmp(json.loads(text))
                for x, y in [(fast.A.coeffs, walked.A.coeffs), (fast.B, walked.B), (fast.C, walked.C),
                             (fast.D.coeffs, walked.D.coeffs)]:
                    assert x.tobytes() == y.tobytes()

    REJECTED = {
        "too few rows": [[1, 2]],
        "not a list": {"a": 1},
        "short row": [[1, 2], [3]],
        "row not a list": [[1, 2], 3],
        "three-part entry": [[[1, 2, 3], [1, 2, 3]], [[1, 2, 3], [1, 2, 3]]],
        "string entry": [[1, "2"], [3, 4]],
        "null entry": [[1, None], [3, 4]],
        "overflowing literal": [[1, float("inf")], [3, 4]],
        "overflowing imaginary part": [[[1, 0], [0, -float("inf")]], [[3, 0], [4, 0]]],
        "int beyond float range": [[1, 10**400], [3, 4]],
        "pair with an int beyond float range": [[[1, 10**400], [0, 0]], [[3, 0], [4, 0]]],
    }

    @pytest.mark.parametrize("kind", REJECTED)
    def test_rejected_matrices_give_the_walks_error(self, kind):
        fast, walked = _read(self.REJECTED[kind], 2, 2, True), _read(self.REJECTED[kind], 2, 2, False)
        assert fast == walked and walked[1] is not None

    @pytest.mark.parametrize("entry", ["true", "false", "[1.0, false]", "[true, 0.0]"])
    def test_a_boolean_in_the_text_is_walked_and_rejected(self, entry):
        # np.array would read [1.5, true] as [1.5, 1.0]; a text that holds a boolean is walked
        text = json.dumps(WORKED_EXAMPLE_DOC).replace('"B": [[-1, 0]]', '"B": [[-1.5, "TOKEN"]]')
        text = text.replace('"TOKEN"', entry)
        with pytest.raises(ParseError) as fast:
            parse_rsmp(text)
        with pytest.raises(ParseError) as walked:
            parse_rsmp(json.loads(text))
        assert str(fast.value) == str(walked.value) == f"B[0][1]: expected a number or [re, im] pair, got {json.loads(entry)!r}"


    # parse_rsmp reads each of the A and D lists with one np.array; a list that
    # is not a well-formed stack of finite numbers is read matrix by matrix,
    # with the same values or error
    MALFORMED = {
        "ragged row": (_set(("A", 1, 0), lambda row: row[:1]), "A[1][0]: expected 2 entries"),
        "wrong shape at A[2]": (_set(("A", 2), lambda c: c[:1]), "A[2]: expected 2 rows"),
        "numbers beside pairs in D[1]": (_set(("D", 1, 0, 1), 2.5), None),
        "string entry": (_set(("A", 0, 1, 0), "2"), "A[0][1][0]: expected a number or [re, im] pair, got '2'"),
        "1e400": (_set(("D", 2, 1, 1), "TOKEN"), "D[2][1][1]: expected a finite number, got inf"),
        "plain A[0] beside pairs": (_set(("A", 0), lambda c: [[x[0] for x in row] for row in c]), None),
        "large ints beside floats": (_set(("A", 3), [[2**63, -(2**62 + 3)], [2**64 - 1, 7]]), None),
    }

    @pytest.mark.parametrize("kind", MALFORMED)
    def test_a_malformed_coefficient_reads_as_the_per_matrix_read(self, kind):
        change, error = self.MALFORMED[kind]
        doc = json.loads(emit_rsmp(random_rsmp(np.random.default_rng(2303), 2, 2, 2, 3, 3)))
        change(doc)
        text = json.dumps(doc).replace('"TOKEN"', "1e400")
        got, want = _coefficient_lists(text, _stacked), _coefficient_lists(text, _per_matrix)
        assert got == want
        assert got[1] == error and (error is not None or got[0] is not None)
        if error is not None:
            with pytest.raises(ParseError) as walked:
                parse_rsmp(json.loads(text))
            assert str(walked.value) == error

    def test_well_formed_lists_take_one_read(self, rng, monkeypatch):
        # two np.array reads per document for A and D, none per matrix of them
        text = emit_rsmp(random_rsmp(rng, 2, 3, 1, 4, 3))
        shapes, numbers = [], serialization._numbers

        def spy(obj, *shape):
            shapes.append(shape)
            return numbers(obj, *shape)

        monkeypatch.setattr(serialization, "_numbers", spy)
        got = _stacked(text)
        assert shapes == [(5, 2, 2), (4, 3, 1), (2, 1), (3, 2)]  # A, D, then B and C
        monkeypatch.setattr(serialization, "_numbers", numbers)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(got, _per_matrix(text)))


class TestShippedInstance:
    def test_demo_file_matches_the_worked_example(self, worked_example):
        import pathlib

        path = pathlib.Path(__file__).resolve().parent.parent / "demos" / "worked_example.json"
        r = parse_rsmp(path.read_text())
        assert emit_rsmp(r) == emit_rsmp(worked_example)


class TestRoundTrip:
    def test_corpus_normalization_fixed_point(self, rng):
        for _ in range(20):
            n, p, m = (int(rng.integers(1, 4)) for _ in range(3))
            da, dd = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            r = random_rsmp(rng, n, p, m, da, dd)
            text = emit_rsmp(r)
            again = emit_rsmp(parse_rsmp(text))
            assert text == again

    def test_pencil_round_trip(self, rng):
        r = random_rsmp(rng, 2, 1, 3, 3, 2)
        pencil = fiedler_pencil_rect(r, SigmaSeq("CI"))
        text = emit_pencil(pencil)
        back = parse_pencil(text)
        assert np.array_equal(back.lead, pencil.lead)
        assert np.array_equal(back.tail, pencil.tail)
        assert back.row_sizes == pencil.row_sizes
        assert emit_pencil(back) == text


def _pairs(m):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


def _dumped_rsmp(r):
    """The instance document as ``json.dumps(..., indent=1)`` writes it: the reference for ``emit_rsmp``."""
    doc = {
        "kind": "rsmp", "n": r.n, "p": r.p, "m": r.m, "d_A": r.d_a, "d_D": r.d_d,
        "A": [_pairs(c) for c in r.A.coeffs], "B": _pairs(r.B), "C": _pairs(r.C), "D": [_pairs(c) for c in r.D.coeffs],
    }
    return json.dumps(doc, indent=1) + "\n"


def _dumped_pencil(p):
    doc = {
        "kind": "pencil", "row_sizes": list(p.row_sizes), "col_sizes": list(p.col_sizes),
        "lead": _pairs(p.lead), "tail": _pairs(p.tail),
    }
    return json.dumps(doc, indent=1) + "\n"


class TestEmitterMatchesJsonDumps:
    """The direct emitters write what ``json.dumps(doc, indent=1)`` writes, byte for byte."""

    @pytest.mark.parametrize("draw", [random_rsmp, oracles.spread_rsmp])
    def test_instances_and_their_pencils(self, rng, draw):
        for cell in [(1, 1, 1, 1, 1), (3, 1, 2, 2, 5), (2, 3, 1, 4, 1), (3, 3, 3, 3, 3)]:
            r = draw(rng, *cell)
            assert emit_rsmp(r) == _dumped_rsmp(r)
            for s in all_decision_strings(r.degree):
                pencil = fiedler_pencil_rect(r, s)
                assert emit_pencil(pencil) == _dumped_pencil(pencil)

    def test_signed_zeros_and_extreme_magnitudes(self):
        values = np.array([[-0.0, 0.0, 1e-310, -1.5e300], [1 / 3, -2.0, 1e16, 123456789.0]])
        entries = values + 1j * values[::-1]
        a = MatrixPolynomial([entries[:, :2], -entries[:, 2:]])
        d = MatrixPolynomial([entries[:1], entries[1:]])
        r = Rsmp(a, entries[:, ::-1], -entries[:1, :2], d, check_regular=False)
        assert "-0.0" in emit_rsmp(r)
        assert emit_rsmp(r) == _dumped_rsmp(r)

    def test_square_product_pencil_and_empty_partitions(self, rng):
        r = random_rsmp(rng, 2, 2, 2, 3, 2)
        pencil = square_fiedler_pencil(r, (2, 1, 3))
        assert emit_pencil(pencil) == _dumped_pencil(pencil)
        empty = Pencil(np.zeros((0, 0)), np.zeros((0, 0)), (), ())
        assert emit_pencil(empty) == _dumped_pencil(empty)
        wide = Pencil(np.zeros((0, 3)), np.zeros((0, 3)), (), (3,))
        assert emit_pencil(wide) == _dumped_pencil(wide)
