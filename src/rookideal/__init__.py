"""Exact invariants of rook-placement (chessboard) monomial ideals."""

from .boards import (
    Board,
    board_symmetries,
    chessboard_complex,
    facet_ideal,
    fixture_ideal,
    minimal_primes_formula,
    prime_profile,
    stanley_reisner_ideal,
    subcomplex_a,
    subcomplex_b,
    subcomplex_d,
)
from .betti import (
    BettiTable,
    HilbertSeries,
    InvariantReport,
    betti_table,
    betti_table_hochster,
    betti_table_koszul,
    colon_sequence_reg_bound,
    hilbert_series,
    invariant_report,
    sum_formula_predict,
    terai_check,
)
from .complexes import (
    SimplicialComplex,
    facet_ideal_of_complex,
    induced_matching_bound,
    minimal_vertex_covers,
)
from .homology import (
    DEFAULT_FIELD,
    GF2,
    FieldSpec,
    reduced_betti,
)
from .monomials import (
    AmbientMismatch,
    IdealParseError,
    Monomial,
    MonomialIdeal,
    VariableSet,
    ideal_from_text,
    min_gens,
    path_ideal,
)

__all__ = [name for name in dir() if not name.startswith("_")]
