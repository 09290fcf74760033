"""Exact reduced simplicial homology over prime fields.

Boundary matrices use the augmented chain complex, so the empty face is a row
of the 0-th boundary map and the irrelevant complex has one unit of homology
in dimension -1. Every rank, over every prime, comes from one sparse column
reduction with exact Python integers, each column reduced on its largest row.
Rows and columns are keyed by face mask. The Betti sweep walks the dimensions
top down: the pivot rows of the d+1 map are d-faces whose columns in the d map
reduce to zero (clearing, Chen and Kerber 2011), so they get no column. The
largest row of the column of a d-face m is m ^ (m & -m), the face without the
lowest vertex, with coefficient +1, so its pivot is known before the column is
built: a face whose pivot row is still free is recorded by its mask alone (an
apparent pair, as in Bauer's Ripser), and its column is built only if a later
reduction needs it. Only columns whose pivot collides are built and reduced.
The Betti sweeps hand in strong cores (see rookideal.betti): of each job's
complex, or on the restriction route of its Alexander dual when that is
smaller, so the faces enumerated here are those of the cores.
"""

from __future__ import annotations

from dataclasses import dataclass

from .monomials import _bits


# Miller-Rabin with the first thirteen primes as bases has no strong
# pseudoprime below this bound (Sorenson and Webster, Math. Comp. 2017), so
# the test is exact for every modulus FieldSpec accepts.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A prime field GF(p)."""

    characteristic: int

    def __post_init__(self):
        if self.characteristic >= PRIME_TEST_BOUND:
            raise ValueError(
                f"characteristic {self.characteristic} is not below {PRIME_TEST_BOUND}, "
                "the bound up to which primality is checked exactly"
            )
        if not _is_prime(self.characteristic):
            raise ValueError(f"{self.characteristic} is not prime")


GF2 = FieldSpec(2)
DEFAULT_FIELD = FieldSpec(32003)  # large-prime stand-in for characteristic 0


@dataclass(frozen=True)
class SparseMatrix:
    rows: int
    cols: int
    entries: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        seen = set()
        for r, c, v in self.entries:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError("entry position out of range")
            if v == 0:
                raise ValueError("stored zero entry")
            if (r, c) in seen:
                raise ValueError("duplicate entry position")
            seen.add((r, c))


def _reduce_column(col: dict[int, int], pivots: dict, p: int) -> None:
    """Reduce the sparse column {row: value mod p} in place on its pivot (its
    largest nonzero row) against ``pivots``, which maps each pivot row to its
    column or, for a boundary column not built yet, to its face mask; such a
    column is built the first time it is needed. A column that does not reduce
    to zero is normalised to pivot value 1 and recorded as a new pivot."""
    while col:
        low = max(col)
        other = pivots.get(low)
        if other is None:
            if col[low] != 1:
                inv = pow(col[low], -1, p)
                col = {r: v * inv % p for r, v in col.items()}
            pivots[low] = col
            return
        if type(other) is int:
            other = pivots[low] = _boundary_column(other, p)
        f = col[low]
        for r, v in other.items():
            w = (col.get(r, 0) - f * v) % p
            if w:
                col[r] = w
            else:
                del col[r]


def rank(matrix: SparseMatrix, field: FieldSpec) -> int:
    """Exact rank of a sparse matrix over GF(p)."""
    p = field.characteristic
    columns: list[dict[int, int]] = [{} for _ in range(matrix.cols)]
    for r, c, v in matrix.entries:
        if v % p:
            columns[c][r] = v % p
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        _reduce_column(col, pivots, p)
    return len(pivots)


# ---------------------------------------------------------------------------
# face enumeration (bitmask internals shared with the Betti sweeps)


def _submasks(mask: int) -> list[int]:
    # every subset, doubled one vertex at a time
    subs = [0]
    while mask:
        low = mask & -mask
        subs += [s | low for s in subs]
        mask ^= low
    return subs


def faces_by_dim_masks(facet_masks) -> dict[int, list[int]]:
    """All faces of the complex generated by the given masks, grouped by
    dimension (popcount - 1) and sorted; the empty face sits at dimension -1."""
    faces: set[int] = set()
    for f in facet_masks:
        faces.update(_submasks(f))
    out: dict[int, list[int]] = {}
    for m in sorted(faces):
        out.setdefault(m.bit_count() - 1, []).append(m)
    return out


def faces_of_dim(cx, d: int) -> list[tuple[int, ...]]:
    """Ordered list of d-faces; d = -1 gives the empty face of a non-void complex."""
    if d < -1:
        raise ValueError("dimension must be at least -1")
    return [tuple(_bits(m)) for m in faces_by_dim_masks(cx.facet_masks()).get(d, [])]


def _boundary_column(m: int, p: int) -> dict[int, int]:
    """The d-face mask m as a sparse column {(d-1)-face mask: +-1 mod p}; the
    sign is (-1)^position, so the largest row, m without its lowest vertex,
    has +1."""
    col = {}
    rest, sign = m, 1
    while rest:
        low = rest & -rest
        col[m ^ low] = sign % p
        rest ^= low
        sign = -sign
    return col


def boundary_matrix(cx, d: int, field: FieldSpec) -> SparseMatrix:
    """The d-th boundary map of the augmented chain complex, rows indexed by
    (d-1)-faces and columns by d-faces, entries (-1)^position mod p."""
    if d < 0:
        raise ValueError("boundary dimension must be at least 0")
    by_dim = faces_by_dim_masks(cx.facet_masks())
    rows, cols = by_dim.get(d - 1, []), by_dim.get(d, [])
    row_index = {m: i for i, m in enumerate(rows)}
    entries = tuple(
        (row_index[r], j, v)
        for j, m in enumerate(cols)
        for r, v in _boundary_column(m, field.characteristic).items()
    )
    return SparseMatrix(len(rows), len(cols), entries)


def _boundary_ranks(by_dim: dict[int, list[int]], field: FieldSpec) -> dict[int, int]:
    # top down; a d-face that is a pivot row of the d+1 map is cleared, and a
    # face whose largest row is free stays an unbuilt column (its mask)
    p = field.characteristic
    ranks: dict[int, int] = {}
    above: dict = {}
    for d in range(max(by_dim), -1, -1):
        pivots: dict = {}
        for m in by_dim.get(d, []):
            if m in above:
                continue
            low = m ^ (m & -m)
            if low in pivots:
                _reduce_column(_boundary_column(m, p), pivots, p)
            else:
                pivots[low] = m
        ranks[d] = len(pivots)
        above = pivots
    return ranks


def betti_of_face_masks(by_dim: dict[int, list[int]], field: FieldSpec) -> dict[int, int]:
    """Reduced Betti numbers of a complex given as faces-by-dimension masks."""
    if not by_dim:
        return {}
    ranks = _boundary_ranks(by_dim, field)
    out: dict[int, int] = {}
    for d in range(-1, max(by_dim) + 1):
        out[d] = len(by_dim.get(d, [])) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        if out[d] < 0:
            # the maps into and out of the d-chains have at most f_d rank together
            raise ArithmeticError(
                f"boundary ranks exceed the {d}-face count; the rank kernel is wrong"
            )
    return out


def reduced_betti(cx, field: FieldSpec) -> dict[int, int]:
    """Reduced Betti numbers b~_d for d = -1 .. dim; {} for the void complex."""
    return betti_of_face_masks(faces_by_dim_masks(cx.facet_masks()), field)
