"""Strict JSON text format for system instances and pencils.

One format serves both: an instance document carries the dimensions, the
two coefficient lists (low degree to high), and the constant couplings; a
pencil document carries two constant matrices plus its block partition, so
command outputs can be fed back in as inputs.  Complex entries are
two-element [re, im] arrays (plain numbers are accepted on input).
Unknown fields are rejected.
"""

from __future__ import annotations

import json
from functools import lru_cache

import numpy as np

from .blocks import Pencil
from .errors import DimensionError, ParseError
from .polycore import MatrixPolynomial
from .rsmp import Rsmp

__all__ = ["parse_rsmp", "emit_rsmp", "parse_pencil", "emit_pencil"]

_RSMP_FIELDS = {"kind", "n", "p", "m", "d_A", "d_D", "A", "B", "C", "D"}
_PENCIL_FIELDS = {"kind", "row_sizes", "col_sizes", "lead", "tail"}


def _is_number(x) -> bool:
    """A JSON number: true and false are not, though Python counts them as ints."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _entry(v, where: str) -> complex:
    try:
        if _is_number(v):
            return complex(v)
        if isinstance(v, list) and len(v) == 2 and all(_is_number(x) for x in v):
            return complex(v[0], v[1])
    except OverflowError:  # a Python int beyond the float range, from a dict
        raise ParseError(f"{where}: entry is out of the floating-point range") from None
    raise ParseError(f"{where}: expected a number or [re, im] pair, got {v!r}")


def _walk(obj, rows: int, cols: int, where: str) -> np.ndarray:
    """The matrix, read entry by entry; every malformed row or entry raises its own ParseError."""
    if not isinstance(obj, list) or len(obj) != rows:
        raise ParseError(f"{where}: expected {rows} rows")
    out = np.zeros((rows, cols), dtype=complex)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"{where}[{i}]: expected {cols} entries")
        for j, v in enumerate(row):
            out[i, j] = _entry(v, f"{where}[{i}][{j}]")
    return out


def _numbers(obj, *shape: int) -> np.ndarray | None:
    """The array, if one ``np.array`` reads it as numbers or [re, im] pairs of numbers of ``shape``; else None.

    ``shape`` is (rows, cols) for a matrix, (count, rows, cols) for a list
    of coefficient matrices.  A JSON boolean would read as 0 or 1 here, so
    only a document that holds none may come this way.  A Python int
    beyond the float range makes an object array, which is not read.
    """
    try:
        arr = np.array(obj)
    except (ValueError, OverflowError):  # rows of unequal shapes, or an int out of numpy's range
        return None
    if arr.dtype.kind not in "iuf":
        return None
    if arr.shape == shape:
        return arr.astype(complex)
    if arr.shape == shape + (2,):
        return np.ascontiguousarray(arr, dtype=float).view(complex)[..., 0]
    return None


def _matrix(obj, rows: int, cols: int, where: str, fast: bool = False) -> np.ndarray:
    """A rows x cols complex matrix from its JSON form.

    With ``fast`` (the document holds no boolean), a well-formed matrix
    is read by one ``np.array`` (``_numbers``); anything else, and every
    matrix without ``fast``, is walked entry by entry (``_walk``), which
    gives the same values and raises the error for the first bad row or
    entry.
    """
    out = _numbers(obj, rows, cols) if fast else None
    if out is None:
        out = _walk(obj, rows, cols, where)
    # Python's nan and inf in a dict, and overflowing literals such as 1e400
    # in text, pass the JSON token check
    if not np.isfinite(out).all():
        i, j = np.argwhere(~np.isfinite(out))[0]
        raise ParseError(f"{where}[{i}][{j}]: expected a finite number, got {obj[i][j]!r}")
    return out


def _coefficients(obj: list, rows: int, cols: int, where: str, fast: bool) -> np.ndarray:
    """The coefficient matrices of the list ``obj`` as one ``(len(obj), rows, cols)`` complex stack.

    With ``fast``, a list of well-formed matrices of finite numbers is
    read by one ``np.array`` and checked for finiteness once; anything
    else is read matrix by matrix (``_matrix``), which gives the same
    values and raises the error of the first bad matrix, named
    ``where[k]``.
    """
    out = _numbers(obj, len(obj), rows, cols) if fast else None
    if out is None or not np.isfinite(out).all():
        out = np.array([_matrix(c, rows, cols, f"{where}[{k}]", fast) for k, c in enumerate(obj)])
    return out


def _int(v, where: str, minimum: int) -> int:
    """A JSON integer >= minimum: true and false are not, nor are 1.0 and "1"."""
    if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
        raise ParseError(f"{where}: expected an integer >= {minimum}, got {v!r}")
    return v


def _int_field(doc, key: str, minimum: int = 1) -> int:
    if key not in doc:
        raise ParseError(f"missing field {key!r}")
    return _int(doc[key], key, minimum)


def _load(text_or_doc, where: str) -> dict:
    if isinstance(text_or_doc, dict):
        return text_or_doc

    def reject(token):
        raise ParseError(f"{where}: {token} is not a JSON number")

    try:
        doc = json.loads(text_or_doc, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: top level must be an object")
    return doc


def parse_rsmp(document) -> Rsmp:
    """Parse an instance document (JSON text or dict) into a validated Rsmp."""
    doc = _load(document, "instance")
    unknown = set(doc) - _RSMP_FIELDS
    if unknown:
        raise ParseError(f"unknown fields: {sorted(unknown)}")
    if doc.get("kind", "rsmp") != "rsmp":
        raise ParseError(f"kind: expected 'rsmp', got {doc.get('kind')!r}")
    n = _int_field(doc, "n")
    p = _int_field(doc, "p")
    m = _int_field(doc, "m")
    d_a = _int_field(doc, "d_A")
    d_d = _int_field(doc, "d_D")
    for key in ("A", "B", "C", "D"):
        if key not in doc:
            raise ParseError(f"missing field {key!r}")
    if not isinstance(doc["A"], list) or len(doc["A"]) != d_a + 1:
        raise ParseError(f"A: expected {d_a + 1} coefficient matrices")
    if not isinstance(doc["D"], list) or len(doc["D"]) != d_d + 1:
        raise ParseError(f"D: expected {d_d + 1} coefficient matrices")
    # JSON writes a boolean only as the token true or false
    fast = isinstance(document, str) and "true" not in document and "false" not in document
    a = MatrixPolynomial(_coefficients(doc["A"], n, n, "A", fast))
    d = MatrixPolynomial(_coefficients(doc["D"], p, m, "D", fast))
    b = _matrix(doc["B"], n, m, "B", fast)
    c = _matrix(doc["C"], p, n, "C", fast)
    try:
        return Rsmp(a, b, c, d)
    except DimensionError as exc:
        raise DimensionError(f"instance dimensions inconsistent: {exc}") from exc


# The emitters write what ``json.dumps(doc, indent=1)`` writes, byte for
# byte, without the pure-Python encoder that ``indent`` switches on: each
# matrix is one template of its shape and indentation, filled with its
# numbers as the C encoder writes them.


def _nl(level: int) -> str:
    return "\n" + " " * level


def _layout(items, level: int, brackets: str = "[]") -> str:
    """A list (or, with ``brackets="{}"``, an object) of written items, opened at ``level``."""
    if not items:
        return brackets
    inner = _nl(level + 1)
    return brackets[0] + inner + ("," + inner).join(items) + _nl(level) + brackets[1]


@lru_cache(maxsize=256)
def _matrix_template(rows: int, cols: int, level: int) -> str:
    """The layout of a rows x cols matrix of [re, im] pairs opened at ``level``, one ``%s`` per number."""
    pair = _layout(["%s", "%s"], level + 2)
    return _layout([_layout([pair] * cols, level + 1)] * rows, level)


def _encode_matrix(m: np.ndarray, level: int) -> str:
    a = np.ascontiguousarray(m, dtype=complex)
    numbers = json.dumps(a.view(float).ravel().tolist())[1:-1].split(", ") if a.size else []
    return _matrix_template(*a.shape, level) % tuple(numbers)


def _document(fields) -> str:
    return _layout([f"{json.dumps(key)}: {value}" for key, value in fields], 0, "{}") + "\n"


def emit_rsmp(r: Rsmp) -> str:
    """Canonical text form; emit(parse(x)) is a normalization fixed point."""
    return _document([
        ("kind", '"rsmp"'),
        ("n", r.n),
        ("p", r.p),
        ("m", r.m),
        ("d_A", r.d_a),
        ("d_D", r.d_d),
        ("A", _layout([_encode_matrix(c, 2) for c in r.A.coeffs], 1)),
        ("B", _encode_matrix(r.B, 1)),
        ("C", _encode_matrix(r.C, 1)),
        ("D", _layout([_encode_matrix(c, 2) for c in r.D.coeffs], 1)),
    ])


def parse_pencil(document) -> Pencil:
    """Parse a pencil document (two constant matrices plus the partition)."""
    doc = _load(document, "pencil")
    unknown = set(doc) - _PENCIL_FIELDS
    if unknown:
        raise ParseError(f"unknown fields: {sorted(unknown)}")
    if doc.get("kind") != "pencil":
        raise ParseError(f"kind: expected 'pencil', got {doc.get('kind')!r}")
    for key in ("row_sizes", "col_sizes", "lead", "tail"):
        if key not in doc:
            raise ParseError(f"missing field {key!r}")
    sizes = []
    for key in ("row_sizes", "col_sizes"):
        if not isinstance(doc[key], list):
            raise ParseError(f"{key}: expected a list of integers >= 0")
        sizes.append([_int(x, f"{key}[{k}]", 0) for k, x in enumerate(doc[key])])
    row_sizes, col_sizes = sizes
    rows, cols = sum(row_sizes), sum(col_sizes)
    lead = _matrix(doc["lead"], rows, cols, "lead")
    tail = _matrix(doc["tail"], rows, cols, "tail")
    return Pencil(lead, tail, row_sizes, col_sizes)


def emit_pencil(p: Pencil) -> str:
    return _document([
        ("kind", '"pencil"'),
        ("row_sizes", _layout([str(k) for k in p.row_sizes], 1)),
        ("col_sizes", _layout([str(k) for k in p.col_sizes], 1)),
        ("lead", _encode_matrix(p.lead, 1)),
        ("tail", _encode_matrix(p.tail, 1)),
    ])

