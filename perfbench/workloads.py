"""The three workloads: which instance files each op reads, in which order.

A workload is a list of blocks, and a block is a list of ops.  The cells
of every block (shape ``(n, p, m)`` and degree pair ``(d_A, d_D)``) are
fixed, and a round runs every block once, in a fixed order; the seed
only draws the coefficients and the order of ops within a block.  So a
run's cost does not hinge on which cells a seed happened to pick, nor,
when a run ends inside a round, on which blocks it reached, while every
op of a round reads a fresh instance.

Why these workloads (the same text is in ``BENCHMARK.json``):

- ``grid_verify``: a stratified third of the acceptance grid
  (``(n, p, m)`` in ``{1,2,3}^3``, ``(d_A, d_D)`` in ``{1..5}^2``), one
  ``verify --all`` per cell.  It is the ``fuzz`` and acceptance traffic:
  many tiny matrices, so per-call overhead dominates.  Each block pairs
  all 25 degree pairs with 25 different shapes; the 9 blocks of a round
  hold 225 cells, every degree pair with 9 shapes.
- ``deep_verify``: ``verify --all`` at pencil degree 7 (64 decision
  strings per op) on eight cells with ``d_A > d_D``, ``d_A < d_D`` and
  ``d_A = d_D``, so mixed, state-only and feed-only recursion steps all
  run, on pencils up to 39x39.  The only workload where decision-string
  prefix sharing can show.
- ``spectra``: ``eig`` on square instances, ``n, p = m`` in ``{1,2,3}`` and
  ``(d_A, d_D)`` in ``{1..5}^2``, plus ``demos/worked_example.json`` once
  per block.  No pencil or witness recursion runs; the determinant and
  root routes take nearly all the time.  It is the control for changes
  to verification and recursion.  The twelve cells with
  ``n = p = m = 3`` and ``n * d_A + d_D >= 13`` are left out
  (``SPECTRA_LEFT_OUT``): there the cleared polynomial, of degree
  ``n * d_A + d_D``, has a determinant of degree 39 or more, and the root
  iteration of ``spectral.poly_roots`` raises ``NonConvergence`` on some
  instances (11 of 20 at ``(3,3,3,5,5)``, 2 of 150 at ``(3,3,3,3,5)``,
  as measured), while a benchmark workload must be one on which no op
  fails.  That defect is not measured here.  Instances whose system
  matrix is singular are drawn again (see ``_draw``).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rosenpencil import cli, spectral
from rosenpencil.polycore import is_regular
from rosenpencil.sampling import random_rsmp
from rosenpencil.serialization import emit_rsmp
from rosenpencil.sigma import all_decision_strings

__all__ = ["Op", "WORKLOADS", "VERIFY_DEFAULTS", "EIG_TOL", "plan", "write_instances"]

# what an op runs with: the CLI's defaults for ``verify FILE --all``
# (``trials``, ``tol``, ``seed``), and the tolerance ``cmd_eig`` leaves
# ``discrepancy_report`` at; read from the package, so they follow it
VERIFY_DEFAULTS = cli._build_parser().parse_args(["verify", "FILE", "--all"])
EIG_TOL = inspect.signature(spectral.discrepancy_report).parameters["tol"].default

DEGREE_PAIRS = [(d_a, d_d) for d_a in range(1, 6) for d_d in range(1, 6)]
GRID_SHAPES = [(n, p, m) for n in (1, 2, 3) for p in (1, 2, 3) for m in (1, 2, 3)]
SQUARE_SHAPES = [(n, p, p) for n in (1, 2, 3) for p in (1, 2, 3)]
# degree 7 throughout; three cells each with d_A > d_D and d_A < d_D, two with d_A = d_D
DEEP_CELLS = [
    (3, 3, 3, 7, 7),
    (2, 2, 2, 7, 7),
    (3, 2, 1, 7, 3),
    (3, 1, 2, 7, 5),
    (1, 2, 3, 7, 1),
    (2, 3, 1, 2, 7),
    (2, 3, 3, 4, 7),
    (1, 3, 3, 1, 7),
]
WORKED_EXAMPLE = Path("demos") / "worked_example.json"
# square cells where eig raises NonConvergence on a share of instances (see above)
SPECTRA_LEFT_OUT = {(3, 3, 3, d_a, d_d) for d_a, d_d in DEGREE_PAIRS if 3 * d_a + d_d >= 13}


@dataclass(frozen=True)
class Op:
    """One CLI call: ``verify FILE --all`` or ``eig FILE``."""

    command: str
    path: str
    cell: tuple[int, int, int, int, int] | None  # None for the shipped worked example

    @property
    def argv(self) -> list[str]:
        if self.command == "verify":
            return ["verify", self.path, "--all"]
        return ["eig", self.path]

    @property
    def warmup_argv(self) -> list[str]:
        """A cheap call down the same code path: one decision string, not all."""
        if self.command == "verify":
            first = next(all_decision_strings(max(self.cell[3:])))
            return ["verify", self.path, "--sigma", first.decisions]
        return self.argv


def _latin_blocks(shapes, step: int = 1) -> list[list[tuple]]:
    """Block b pairs degree pair j with shape (b + j) mod len(shapes).

    With ``step`` 1 the blocks hold every (shape, degree pair) cell exactly
    once; a larger step keeps every step-th block, a stratified subset in
    which each degree pair still meets len(shapes) / step shapes.
    """
    return [
        [shapes[(b + j) % len(shapes)] + pair for j, pair in enumerate(DEGREE_PAIRS)]
        for b in range(0, len(shapes), step)
    ]


# name -> (command, cell blocks of one round, rounds, add the worked example to each block)
WORKLOADS = {
    "grid_verify": ("verify", _latin_blocks(GRID_SHAPES, 3), 3, False),
    "deep_verify": ("verify", [list(DEEP_CELLS)], 4, False),
    "spectra": (
        "eig",
        [[cell for cell in block if cell not in SPECTRA_LEFT_OUT] for block in _latin_blocks(SQUARE_SHAPES)],
        4,
        True,
    ),
}


def _rng(name: str, seed: int, stream: int) -> np.random.Generator:
    """Stream 0 draws the order of ops, stream 1 the coefficients."""
    return np.random.default_rng([seed, sorted(WORKLOADS).index(name), stream])


def plan(name: str, seed: int, root: Path, work_dir: Path) -> tuple[list[list[Op]], list[tuple]]:
    """Blocks of ops for one run, and the cells whose instances must be written.

    Each round runs every block of the workload once, in the same order,
    on instances of its own.  Returns ``(blocks, cells)``;
    ``cells[k]`` is the instance behind ``work_dir / f"{k:04d}.json"``,
    whose coefficients ``write_instances`` draws.
    """
    command, cell_blocks, rounds, with_example = WORKLOADS[name]
    rng = _rng(name, seed, 0)
    blocks: list[list[Op]] = []
    cells: list[tuple] = []
    for b in [b for _ in range(rounds) for b in range(len(cell_blocks))]:
        block_cells = cell_blocks[b]
        ops = []
        for j in rng.permutation(len(block_cells)):
            path = work_dir / f"{len(cells):04d}.json"
            cells.append(block_cells[j])
            ops.append(Op(command, str(path), block_cells[j]))
        if with_example:
            ops.insert(int(rng.integers(len(ops) + 1)), Op(command, str(root / WORKED_EXAMPLE), None))
        blocks.append(ops)
    return blocks, cells


def _draw(rng: np.random.Generator, cell: tuple, command: str):
    """A random instance of the cell; for ``eig``, one with a regular system matrix.

    ``eig`` rejects a singular system matrix, which has no discrete
    spectrum, with exit code 2, as it should; about one ``spectra`` seed
    in twenty draws such an instance (cells with p = m = 1, low degrees).
    """
    while True:
        r = random_rsmp(rng, *cell)
        if command != "eig" or is_regular(r.assemble_s()):
            return r


def write_instances(name: str, seed: int, cells: list[tuple], work_dir: Path) -> None:
    """Draw every instance from the seed and write it where ``plan`` points."""
    command = WORKLOADS[name][0]
    rng = _rng(name, seed, 1)
    work_dir.mkdir(parents=True, exist_ok=True)
    for k, cell in enumerate(cells):
        (work_dir / f"{k:04d}.json").write_text(emit_rsmp(_draw(rng, cell, command)), encoding="utf-8")
