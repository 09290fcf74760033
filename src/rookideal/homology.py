"""Exact reduced simplicial homology over prime fields.

Boundary matrices use the augmented chain complex, so the empty face is a row
of the 0-th boundary map and the irrelevant complex has one unit of homology
in dimension -1. Every rank, over every prime, comes from one sparse column
reduction with exact Python integers. The Betti sweep walks the dimensions top
down: the pivot rows of the d+1 map are d-faces whose columns in the d map
reduce to zero (clearing), so only the other d-faces are built as columns.
The Betti sweeps hand in complexes already shrunk to their strong cores (see
rookideal.betti), so the faces enumerated here are those of the cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from weakref import WeakKeyDictionary


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


def _reduce_columns(columns: list[dict[int, int]], p: int) -> set[int]:
    """Reduce sparse columns {row: value mod p} in place, left to right, each
    on its pivot (largest nonzero row), with exact integers; the pivot rows
    found are returned, so their count is the rank."""
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        while col:
            low = max(col)
            other = pivots.get(low)
            if other is None:
                if col[low] != 1:
                    inv = pow(col[low], -1, p)
                    col = {r: v * inv % p for r, v in col.items()}
                pivots[low] = col
                break
            f = col[low]
            for r, v in other.items():
                w = (col.get(r, 0) - f * v) % p
                if w:
                    col[r] = w
                else:
                    del col[r]
    return set(pivots)


def rank(matrix: SparseMatrix, field: FieldSpec) -> int:
    """Exact rank of a sparse matrix over GF(p)."""
    p = field.characteristic
    columns: list[dict[int, int]] = [{} for _ in range(matrix.cols)]
    for r, c, v in matrix.entries:
        if v % p:
            columns[c][r] = v % p
    return len(_reduce_columns(columns, p))


# ---------------------------------------------------------------------------
# face enumeration (bitmask internals shared with the Betti sweeps)

_FACE_CACHE: "WeakKeyDictionary" = WeakKeyDictionary()


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


def _complex_faces(cx) -> dict[int, list[int]]:
    cached = _FACE_CACHE.get(cx)
    if cached is None:
        cached = faces_by_dim_masks(cx.facet_masks()) if not cx.is_void else {}
        _FACE_CACHE[cx] = cached
    return cached


def faces_of_dim(cx, d: int) -> list[tuple[int, ...]]:
    """Ordered list of d-faces; d = -1 gives the empty face of a non-void complex."""
    if d < -1:
        raise ValueError("dimension must be at least -1")
    masks = _complex_faces(cx).get(d, [])
    out = []
    for m in masks:
        face = []
        while m:
            low = m & -m
            face.append(low.bit_length() - 1)
            m ^= low
        out.append(tuple(face))
    return out


def _boundary_columns(rows: list[int], cols: list[int], p: int) -> list[dict[int, int]]:
    """Each d-face mask in ``cols`` as a sparse column {row index: +-1 mod p}
    over the (d-1)-face masks ``rows``; the sign is (-1)^position."""
    row_index = {m: i for i, m in enumerate(rows)}
    out = []
    for m in cols:
        col = {}
        rest, sign = m, 1
        while rest:
            low = rest & -rest
            col[row_index[m ^ low]] = sign % p
            rest ^= low
            sign = -sign
        out.append(col)
    return out


def boundary_matrix(cx, d: int, field: FieldSpec) -> SparseMatrix:
    """The d-th boundary map of the augmented chain complex, rows indexed by
    (d-1)-faces and columns by d-faces, entries (-1)^position mod p."""
    if d < 0:
        raise ValueError("boundary dimension must be at least 0")
    by_dim = _complex_faces(cx)
    rows = by_dim.get(d - 1, [])
    cols = _boundary_columns(rows, by_dim.get(d, []), field.characteristic)
    entries = tuple((r, j, v) for j, col in enumerate(cols) for r, v in col.items())
    return SparseMatrix(len(rows), len(cols), entries)


def _boundary_ranks(by_dim: dict[int, list[int]], field: FieldSpec) -> dict[int, int]:
    # top down: the pivot rows of the d+1 map are d-faces whose columns in the
    # d map reduce to zero (clearing), so only the other d-faces get a column
    p = field.characteristic
    ranks: dict[int, int] = {}
    cleared: set[int] = set()
    for d in range(max(by_dim), -1, -1):
        kept = [m for j, m in enumerate(by_dim.get(d, [])) if j not in cleared]
        cleared = _reduce_columns(_boundary_columns(by_dim.get(d - 1, []), kept, p), p)
        ranks[d] = len(cleared)
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
    if cx.is_void:
        return {}
    return betti_of_face_masks(_complex_faces(cx), field)
