"""Checks on what each op printed, run after the timed region.

A verify op must exit 0 and print one record per decision string, in
enumeration order, each with ``verdict == "pass"`` and ``max_residual``
within the tolerance.  An eig op must exit 0, and its system-matrix
eigenvalues must match QZ on the first companion form at the printed
precision, cluster by cluster.  The worked example must also report the
one extra eigenvalue ``{1}`` that clearing the denominator creates.
"""

from __future__ import annotations

import itertools
import json
import re

import numpy as np
import scipy.linalg

import workloads
from rosenpencil.fiedler import companion_first
from rosenpencil.serialization import parse_rsmp
from rosenpencil.sigma import all_decision_strings

__all__ = ["check_verify", "check_eig", "parse_eig_output", "qz_eigenvalues", "same_report"]

# printed values carry 6 significant digits (half a unit: 5e-6 relative);
# the root route and QZ agree to about 1e-6 relative on top of that
MATCH_RTOL = 2e-5
# points of one multiple eigenvalue: the root route stops at residual 1e-12,
# so a 4-fold one spreads to about 1e-3
CLUSTER_RTOL = 1e-2
# beyond this modulus a QZ eigenvalue counts as infinite: a k-fold infinite
# eigenvalue splits into values of modulus about eps^(-1/k), 1e3 and more
# for k <= 5, while finite ones of these small-integer instances stay far below
INFINITE_MODULUS = 1e3

_NUM = r"(?:\d+(?:\.\d*)?(?:e[-+]\d+)?|inf|nan)"  # as printed by the :.6g format
_ITEM = re.compile(rf"^(?P<re>[-+]?{_NUM})(?:(?P<im>[-+]{_NUM})i)?(?: \(x(?P<k>\d+)\))?$")


def check_verify(path: str, stdout: str) -> str | None:
    """None if the report stream is right, else what is wrong with it."""
    r = parse_rsmp(_read(path))
    expected = [s.decisions for s in all_decision_strings(r.degree)]
    lines = stdout.splitlines()
    if len(lines) != len(expected):
        return f"{len(lines)} records for {len(expected)} decision strings"
    for want, line in zip(expected, lines):
        rec = json.loads(line)
        if rec["sigma"] != want:
            return f"record for {rec['sigma']!r} where {want!r} was due"
        if rec["verdict"] != "pass" or not rec["max_residual"] <= workloads.VERIFY_DEFAULTS.tol:
            return f"sigma {want!r}: verdict {rec['verdict']}, max_residual {rec['max_residual']:.3g}"
    return None


def parse_eig_output(stdout: str) -> dict[str, object]:
    """The eig report as data: eigenvalue lists as (value, multiplicity) pairs.

    The transfer-function verdicts and the extra eigenvalues stay as printed.
    """
    out: dict[str, object] = {"transfer": []}
    keys = {
        "system matrix eigenvalues": "s",
        "state polynomial eigenvalues (pole candidates)": "poles",
        "cleared-denominator eigenvalues": "cleared",
    }
    for line in stdout.splitlines():
        head, _, body = line.partition(": ")
        if head in keys:
            out[keys[head]] = _parse_set(body)
        elif head == "extra eigenvalues created by clearing":
            out["extra"] = body
        elif head.startswith("transfer function at "):
            out["transfer"].append(body)
    return out


def _parse_set(body: str) -> list[tuple[complex, int]]:
    inner = body.strip()[1:-1].strip()
    if not inner:
        return []
    items = []
    for tok in inner.split(", "):
        m = _ITEM.match(tok.strip())
        if m is None:
            raise ValueError(f"unreadable eigenvalue {tok!r}")
        im = float(m["im"]) if m["im"] else 0.0
        items.append((complex(float(m["re"]), im), int(m["k"] or 1)))
    return items


def qz_eigenvalues(r) -> np.ndarray:
    """Eigenvalues of S(lambda) by QZ on its first companion form, smallest modulus first.

    Infinite eigenvalues (beta = 0) come last as ``inf``.
    """
    pencil = companion_first(r)
    alpha, beta = scipy.linalg.eigvals(pencil.tail, pencil.lead, homogeneous_eigvals=True)
    finite = beta != 0
    values = np.full(alpha.shape, np.inf, dtype=complex)
    values[finite] = alpha[finite] / beta[finite]
    return values[np.argsort(np.abs(values), kind="stable")]


def _clusters(values) -> list[tuple[complex, int]]:
    """Single-linkage groups of points within CLUSTER_RTOL; (mean, size) each."""
    values = list(values)
    group = list(range(len(values)))
    for i, j in itertools.combinations(range(len(values)), 2):
        if abs(values[i] - values[j]) <= CLUSTER_RTOL * max(1.0, abs(values[i]), abs(values[j])):
            old, new = group[j], group[i]
            group = [new if g == old else g for g in group]
    members: dict[int, list[complex]] = {}
    for g, v in zip(group, values):
        members.setdefault(g, []).append(v)
    return [(complex(np.mean(vs)), len(vs)) for vs in members.values()]


def match_multiset(printed: list[tuple[complex, int]], qz: np.ndarray) -> str | None:
    """None if the printed eigenvalues and the finite QZ ones agree cluster by cluster.

    ``qz`` is sorted by modulus; as many values as were printed are
    compared, and every one left over must count as infinite.  The points
    of a k-fold eigenvalue spread like (residual)^(1/k), but their mean is
    as well conditioned as a simple eigenvalue; so both sides are grouped
    into clusters, and each cluster's size and mean must match.
    """
    expanded = [z for z, k in printed for _ in range(k)]
    n = len(expanded)
    if n > len(qz) or (n < len(qz) and abs(qz[n]) < INFINITE_MODULUS):
        finite = int(np.count_nonzero(np.abs(qz) < INFINITE_MODULUS))
        return f"{n} eigenvalues printed, QZ finds {finite}"
    left = _clusters(expanded)
    for c, k in _clusters(qz[:n]):
        hits = [i for i, (z, kz) in enumerate(left) if kz == k and abs(z - c) <= MATCH_RTOL * max(1.0, abs(c))]
        if not hits:
            return f"QZ finds {k} eigenvalue(s) at {c:.6g}, the printed ones do not"
        left.pop(hits[0])
    return None


def same_report(printed: dict[str, object], traced: dict[str, object]) -> str | None:
    """None if a traced eig op found what the untraced command printed."""
    for key in ("s", "poles", "cleared"):
        want, got = printed.get(key, []), traced[key]
        if len(want) != len(got) or any(
            k != kk or abs(z - zz) > MATCH_RTOL * max(1.0, abs(zz)) for (z, k), (zz, kk) in zip(want, got)
        ):
            return f"traced {key} eigenvalues differ from the printed ones"
    if printed["transfer"] != traced["transfer"]:
        return "traced transfer-function verdicts differ from the printed ones"
    return None


def check_eig(path: str, stdout: str, worked_example: bool) -> str | None:
    """None if the eig report agrees with QZ (and, for the worked example, shows {1})."""
    report = parse_eig_output(stdout)
    if "s" not in report or "extra" not in report:
        return "eig report is incomplete"
    problem = match_multiset(report["s"], qz_eigenvalues(parse_rsmp(_read(path))))
    if problem:
        return problem
    if worked_example and report["extra"] != "{1}":
        return f"worked example: extra eigenvalues {report['extra']}, expected {{1}}"
    return None


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()
