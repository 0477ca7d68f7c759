"""Consecution/inversion decision sequences.

The factor ordering of a Fiedler pencil is usually written as a bijection
sigma on {1..d}, but only the sequence of local comparisons matters: at
each i the ordering either has a consecution (sigma(i) < sigma(i+1)) or an
inversion (sigma(i) > sigma(i+1)).  Two orderings with the same decision
string produce bit-identical pencils, so the decision string is the
canonical identity here.  Text encodings: decision string ``"CCICI"`` or a
comma-separated permutation ``"1,2,4,3,6,5"``.
"""

from __future__ import annotations

from itertools import product

__all__ = ["SigmaSeq", "all_decision_strings", "parse_sigma"]

CONSECUTION = "C"
INVERSION = "I"
_FLIP = str.maketrans("CI", "IC")


class SigmaSeq:
    """Immutable decision sequence of length d-1 for a degree-d pencil."""

    __slots__ = ("decisions", "source")

    def __init__(self, decisions: str, source: tuple[int, ...] | None = None):
        decisions = str(decisions).upper()
        if any(ch not in "CI" for ch in decisions):
            raise ValueError(f"decision string may contain only C and I, got {decisions!r}")
        object.__setattr__(self, "decisions", decisions)
        object.__setattr__(self, "source", tuple(source) if source is not None else None)

    def __setattr__(self, name, value):
        raise AttributeError(f"SigmaSeq is immutable: cannot set {name!r}")

    @classmethod
    def from_bijection(cls, perm) -> "SigmaSeq":
        """Decision string of a bijection {0..d-1} -> {1..d}, retaining the source."""
        p = tuple(int(x) for x in perm)
        d = len(p)
        if d == 0 or sorted(p) != list(range(1, d + 1)):
            raise ValueError(f"{perm!r} is not a permutation of 1..{d}")
        decisions = "".join(
            CONSECUTION if p[i] < p[i + 1] else INVERSION for i in range(d - 1)
        )
        return cls(decisions, source=p)

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.decisions)

    def __eq__(self, other):
        return isinstance(other, SigmaSeq) and self.decisions == other.decisions

    def __hash__(self):
        return hash(self.decisions)

    def __repr__(self):
        return f"SigmaSeq({self.decisions!r})"

    @property
    def degree(self) -> int:
        """Pencil degree d implied by the sequence length."""
        return len(self.decisions) + 1

    def flipped(self) -> "SigmaSeq":
        """The decisions with every consecution and inversion swapped."""
        return SigmaSeq(self.decisions.translate(_FLIP))

    def has_consecution(self, i: int) -> bool:
        return self.decisions[i] == CONSECUTION

    def c_count(self, lo: int, hi: int) -> int:
        """Number of consecutions at positions lo..hi inclusive.

        The empty range hi == lo - 1 counts zero; anything else outside
        0..d-2 is an error.
        """
        self._check_range(lo, hi)
        return self.decisions[lo : hi + 1].count(CONSECUTION)

    def i_count(self, lo: int, hi: int) -> int:
        """Number of inversions at positions lo..hi inclusive."""
        self._check_range(lo, hi)
        return self.decisions[lo : hi + 1].count(INVERSION)

    def _check_range(self, lo: int, hi: int):
        if hi == lo - 1 and 0 <= lo <= len(self.decisions):
            return  # empty range
        if not (0 <= lo <= hi <= len(self.decisions) - 1):
            raise IndexError(f"range ({lo},{hi}) out of bounds for {len(self.decisions)} decisions")


def all_decision_strings(d: int):
    """All 2^(d-1) decision sequences for pencil degree d, in lexicographic order."""
    if d < 1:
        raise ValueError("pencil degree must be >= 1")
    for bits in product("CI", repeat=d - 1):
        yield SigmaSeq("".join(bits))


def parse_sigma(text: str, degree: int | None = None) -> SigmaSeq:
    """Parse either a decision string ("CCICI") or a permutation ("1,2,4,3,6,5").

    When ``degree`` is given the result is validated against it.
    """
    text = text.strip()
    if "," in text or text.isdigit():
        perm = [int(tok) for tok in text.split(",") if tok.strip() != ""]
        seq = SigmaSeq.from_bijection(perm)
    else:
        seq = SigmaSeq(text)
    if degree is not None and seq.degree != degree:
        raise ValueError(
            f"sigma implies pencil degree {seq.degree}, instance has degree {degree}"
        )
    return seq
