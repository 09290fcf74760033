"""Rook-placement (chessboard) constructions on an m x n board with m <= n.

Cells are variables in row-major order; a facet of the board complex is a
placement of m non-attacking rooks, one per row. Includes the closed-form
minimal-prime family (delete s rows and m-1-s columns and keep the rest),
the bottom-row subcomplex families used in the colon identities, and three
named fixture ideals with known regularity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .complexes import SimplicialComplex, facet_ideal_of_complex
from .monomials import Monomial, MonomialIdeal, VariableSet, min_gens


def _board_vars(m: int, n: int) -> VariableSet:
    if m <= 9 and n <= 9:
        labels = tuple(f"x{i}{j}" for i in range(1, m + 1) for j in range(1, n + 1))
    else:
        labels = tuple(f"x[{i},{j}]" for i in range(1, m + 1) for j in range(1, n + 1))
    return VariableSet(labels)


@dataclass(frozen=True)
class Board:
    """An m x n board, rows at most columns; vars are row-major."""

    m: int
    n: int

    def __post_init__(self):
        if not 1 <= self.m <= self.n:
            raise ValueError("need 1 <= m <= n (transpose wider-than-tall boards first)")

    @property
    def vars(self) -> VariableSet:
        return _board_vars(self.m, self.n)

    def cell(self, i: int, j: int) -> int:
        """Flat variable index of the cell in row i, column j (1-based)."""
        if not (1 <= i <= self.m and 1 <= j <= self.n):
            raise ValueError(f"cell ({i},{j}) outside the {self.m}x{self.n} board")
        return (i - 1) * self.n + (j - 1)


def _placements(board: Board, columns, rows, keep=None) -> SimplicialComplex:
    """The complex, on the board's cells, whose facets are the placements of
    one rook in each of ``rows`` in pairwise distinct ``columns`` (1-based),
    the rook of rows[k] in column cols[k], kept where keep(cols) holds."""
    facets = [
        [board.cell(i, j) for i, j in zip(rows, cols)]
        for cols in itertools.permutations(columns, len(rows))
        if keep is None or keep(cols)
    ]
    return SimplicialComplex.from_facets(board.vars, facets)


def chessboard_complex(board: Board) -> SimplicialComplex:
    """Facets are all placements of one rook per row in pairwise distinct columns."""
    return _placements(board, range(1, board.n + 1), range(1, board.m + 1))


def facet_ideal(board: Board) -> MonomialIdeal:
    return facet_ideal_of_complex(chessboard_complex(board))


def stanley_reisner_ideal(board: Board) -> MonomialIdeal:
    """Generated by the same-row and same-column quadrics, the minimal non-faces
    of the board complex."""
    vs = board.vars
    gens = []
    for i in range(1, board.m + 1):
        for j, k in itertools.combinations(range(1, board.n + 1), 2):
            gens.append(Monomial.from_support(vs, [board.cell(i, j), board.cell(i, k)]))
    for j in range(1, board.n + 1):
        for i, l in itertools.combinations(range(1, board.m + 1), 2):
            gens.append(Monomial.from_support(vs, [board.cell(i, j), board.cell(l, j)]))
    return min_gens(gens, vs)


def minimal_primes_formula(board: Board) -> tuple[tuple[int, ...], ...]:
    """Closed-form minimal primes: all cells left after deleting s rows and
    m-1-s columns, for every s and every choice of rows and columns."""
    m, n = board.m, board.n
    primes = set()
    for s in range(m):
        for rows in itertools.combinations(range(1, m + 1), s):
            for cols in itertools.combinations(range(1, n + 1), m - 1 - s):
                cells = tuple(
                    board.cell(i, j)
                    for i in range(1, m + 1)
                    if i not in rows
                    for j in range(1, n + 1)
                    if j not in cols
                )
                primes.add(cells)
    return tuple(sorted(primes))


def prime_profile(board: Board) -> tuple[int, int, int]:
    """(height, dim, bight) of the facet ideal, from the sizes of the
    closed-form minimal primes: the least size, m n less it, the largest."""
    sizes = [len(p) for p in minimal_primes_formula(board)]
    return min(sizes), board.m * board.n - min(sizes), max(sizes)


def subcomplex_a(board: Board, i: int) -> SimplicialComplex:
    """Facets of the board complex whose bottom-row rook sits right of column i
    (void for i = n)."""
    if not 1 <= i <= board.n:
        raise ValueError("column index out of range")
    columns, rows = range(1, board.n + 1), range(1, board.m + 1)
    return _placements(board, columns, rows, lambda cols: cols[-1] > i)


def subcomplex_b(board: Board, i: int) -> SimplicialComplex:
    """Board complex of the board with the bottom row and column i removed,
    embedded in the original vertex set."""
    if not 1 <= i <= board.n:
        raise ValueError("column index out of range")
    return _placements(board, [j for j in range(1, board.n + 1) if j != i], range(1, board.m))


def subcomplex_d(board: Board, cols) -> SimplicialComplex:
    """Board complex on the m x m board formed by the chosen columns, embedded
    in the original vertex set."""
    cols = tuple(cols)
    if len(cols) != board.m or list(cols) != sorted(set(cols)):
        raise ValueError("need m strictly increasing column indices")
    if not all(1 <= j <= board.n for j in cols):
        raise ValueError("column index out of range")
    return _placements(board, cols, range(1, board.m + 1))


def board_symmetries(board: Board) -> list[tuple[int, ...]]:
    """Generators of the group of variable permutations fixing the board
    ideals, row permutations times column permutations, plus the transpose
    on square boards: a swap and a cycle of the rows (one permutation when
    m = 2, none when m = 1), the same for the columns, and the transpose
    when m = n > 1. The Betti sweeps grow the group from them."""
    m, n = board.m, board.n

    def moving(rows, cols):
        # the permutation sending cell (i, j) to (rows[i], cols[j]), 0-based
        return tuple(rows[i] * n + cols[j] for i in range(m) for j in range(n))

    def swap_and_cycle(k):
        return [(1, 0, *range(2, k)), (*range(1, k), 0)] if k > 1 else []

    perms = [moving(rho, range(n)) for rho in swap_and_cycle(m)]
    perms += [moving(range(m), gamma) for gamma in swap_and_cycle(n)]
    if m == n > 1:
        perms.append(tuple(j * n + i for i in range(m) for j in range(n)))
    return list(dict.fromkeys(perms))


# ---------------------------------------------------------------------------
# fixture ideals with known regularity


def _row_product(vs: VariableSet, n: int, row: int, omit=()) -> Monomial:
    cols = [j for j in range(1, n + 1) if j not in omit]
    return Monomial.from_support(vs, [(row - 1) * n + (j - 1) for j in cols])


def fixture_ideal(name: str, n: int | None = None) -> MonomialIdeal:
    """The three fixture ideals: 'L_six' (nine quadrics on six variables,
    reg 3), 'L_2n3' (reg 2n-3, n >= 3) and 'L_2n5' (reg 2n-5, n >= 4)."""
    if name == "L_six":
        vs = VariableSet.generic(6)
        pairs = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)]
        return min_gens([Monomial.from_support(vs, p) for p in pairs], vs)
    if name == "L_2n3":
        if n is None or n < 3:
            raise ValueError("L_2n3 needs n >= 3")
        vs = _board_vars(2, n)
        gens = [_row_product(vs, n, 1), _row_product(vs, n, 2)]
        for i, j in itertools.combinations(range(1, n + 1), 2):
            gens.append(_row_product(vs, n, 1, (i, j)) * _row_product(vs, n, 2, (i, j)))
        return min_gens(gens, vs)
    if name == "L_2n5":
        if n is None or n < 4:
            raise ValueError("L_2n5 needs n >= 4")
        vs = _board_vars(2, n)
        gens = []
        for j in range(1, n + 1):
            gens.append(_row_product(vs, n, 1, (j,)))
            gens.append(_row_product(vs, n, 2, (j,)))
        # second family lives on the first n-1 columns only
        for i, j in itertools.combinations(range(1, n), 2):
            gens.append(
                _row_product(vs, n, 1, (i, j, n)) * _row_product(vs, n, 2, (i, j, n))
            )
        return min_gens(gens, vs)
    raise ValueError(f"unknown fixture {name!r}")
