"""Fiedler pencil linearizations of rectangular Rosenbrock system matrix polynomials.

The package builds companion forms and decision-sequence Fiedler pencils
for systems S(lambda) = [[A(lambda), -B], [C, D(lambda)]], constructs the
unimodular witnesses that certify them as linearizations, and verifies the
equivalences and the eigenvalue/pole relationships numerically.
"""

from .blocks import BlockMatrix, Pencil, PolyBlockMatrix
from .equivalence import (
    EquivalenceReport,
    build_h_sequence,
    build_n_sequence,
    linearization_with_witnesses,
    unimodular_pair,
    verify_theorem,
)
from .errors import (
    AllSamplesSingular,
    DimensionError,
    HoldoutResidual,
    InterpolationResidual,
    IrregularWarning,
    NonConvergence,
    NumericalFailure,
    ParseError,
    PoleError,
    SingularInput,
)
from .fiedler import (
    StructureReport,
    build_w_sequence,
    check_block_structure,
    companion_first,
    companion_second,
    expected_size,
    fiedler_pencil_rect,
    square_fiedler_matrix,
    square_fiedler_pencil,
)
from .polycore import MatrixPolynomial, is_regular
from .rsmp import Rsmp, assemble_s, clear_denominator, transfer_eval, transfer_eval_stack
from .sampling import random_rsmp
from .serialization import emit_pencil, emit_rsmp, parse_pencil, parse_rsmp
from .sigma import SigmaSeq, all_decision_strings, parse_sigma
from .spectral import (
    DiscrepancyReport,
    Spectrum,
    det_poly,
    discrepancy_report,
    eigenvalues_square,
    is_eigenvalue,
    normal_rank,
    poly_roots,
    rank_at,
)

__version__ = "0.1.0"

__all__ = [
    "BlockMatrix",
    "Pencil",
    "PolyBlockMatrix",
    "MatrixPolynomial",
    "Rsmp",
    "SigmaSeq",
    "Spectrum",
    "StructureReport",
    "EquivalenceReport",
    "DiscrepancyReport",
    "assemble_s",
    "transfer_eval",
    "transfer_eval_stack",
    "clear_denominator",
    "companion_first",
    "companion_second",
    "square_fiedler_matrix",
    "square_fiedler_pencil",
    "build_w_sequence",
    "fiedler_pencil_rect",
    "expected_size",
    "check_block_structure",
    "build_n_sequence",
    "build_h_sequence",
    "unimodular_pair",
    "linearization_with_witnesses",
    "verify_theorem",
    "det_poly",
    "poly_roots",
    "eigenvalues_square",
    "rank_at",
    "normal_rank",
    "is_eigenvalue",
    "discrepancy_report",
    "is_regular",
    "all_decision_strings",
    "parse_sigma",
    "random_rsmp",
    "parse_rsmp",
    "emit_rsmp",
    "parse_pencil",
    "emit_pencil",
    "PoleError",
    "SingularInput",
    "InterpolationResidual",
    "HoldoutResidual",
    "NonConvergence",
    "AllSamplesSingular",
    "NumericalFailure",
    "ParseError",
    "DimensionError",
    "IrregularWarning",
]
