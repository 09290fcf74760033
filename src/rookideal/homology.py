"""Exact reduced simplicial homology over prime fields.

Boundary matrices use the augmented chain complex, so the empty face is a row
of the 0-th boundary map and the irrelevant complex has one unit of homology
in dimension -1. Rows and columns are keyed by face mask.

Faces are held as bitmaps. The n vertices of a complex are relabelled to bits
0..n-1 in order, which keeps mask order, and the faces with k vertices are one
2^n-bit int, bit s set when mask s is a face. Level k is the facets with k
vertices and the shadow of level k + 1: (level & H_i) >> 2^i over every vertex
i, where H_i is the bitmap of the masks holding i, built by doubling for each
complex. Face counts are popcounts. (Taking subsets bit-parallel is the
subset-sum transform of Yates, as in Bjoerklund, Husfeldt, Kaski and Koivisto,
STOC 2007.) A level costs 2^n bits however few faces it has, so a complex
whose 2^n masks outnumber its sum 2^|facet| subsets more than
_BITMAP_FACTOR times (many vertices under small facets) is held as one set of
masks per dimension instead, and swept the same way; both layers give the
same faces and ranks.

The ranks come from one sparse column reduction, top down, each column reduced
on its largest row. The pivot rows of the d+1 map are d-faces whose columns in
the d map reduce to zero (clearing, Chen and Kerber 2011), so they get no
column. The largest row of the column of a face m is m without its lowest
vertex, with value +1. Peeling a level's columns by lowest vertex v, the rows
(F_v >> 2^v) that no lower v claimed are apparent pairs (Bauer, Ripser, 2021):
true pivot pairs, found for the whole level with a few big-int operations.
Only the faces whose row was already claimed become Python ints; they are
reduced in mask order, and a claimer's column is built only when a reduction
first needs it.

That reduction runs once, over the integers. When every new pivot value is
+-1, the column operations are unimodular and the echelon columns lead with
units at every prime, so the ranks, and the clearing, are the same over every
prime field: the complex has no torsion, and one pass serves 32003 and GF(2)
alike. The ranks are kept on the complex's faces object, so the second field
costs nothing. A complex that meets any other pivot value is reduced again
modulo each prime asked for, so torsion still shows. On either path a
boundary rank larger than the face count it leaves raises ArithmeticError.
The Betti sweeps hand in strong cores (see rookideal.betti): of each job's
complex, or on the restriction route of its Alexander dual when that is
smaller.
"""

from __future__ import annotations

import functools
import itertools
import operator
import sys
from array import array
from collections.abc import Mapping
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


# ---------------------------------------------------------------------------
# the face layer: one 2^n-bit int, or one set of masks, per dimension


def _vertex_planes(n: int) -> list[int]:
    """H_i for i < n: the 2^n-bit bitmap of the masks that hold vertex i, its
    period-2^(i+1) block doubled up to length."""
    size, planes = 1 << n, []
    for i in range(n):
        half = 1 << i
        plane, width = ((1 << half) - 1) << half, half << 1
        while width < size:
            plane |= plane << width
            width <<= 1
        planes.append(plane)
    return planes


def _members(bitmap: int) -> list[int]:
    """The positions of the set bits of ``bitmap``, ascending: its nonzero
    64-bit words are picked out at C speed, then their bits one by one."""
    words = array("Q", bitmap.to_bytes(((bitmap.bit_length() + 63) >> 6) << 3, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    out: list[int] = []
    for at in itertools.compress(range(len(words)), words):
        word, base = words[at], at << 6
        while word:
            low = word & -word
            out.append(base + low.bit_length() - 1)
            word ^= low
    return out


class _Faces(Mapping):
    """The faces of a complex by dimension (popcount - 1; the empty face at
    -1), each dimension sized by its face count: counts[k] is the number of
    faces with k vertices. ranks keeps the boundary ranks found so far, by
    modulus (0 for the integers)."""

    __slots__ = ("levels", "counts", "ranks")

    def __getitem__(self, d: int) -> range:
        if not 0 <= d + 1 < len(self.counts):
            raise KeyError(d)
        return range(self.counts[d + 1])

    def __iter__(self):
        return iter(range(-1, len(self.counts) - 1))

    def __len__(self) -> int:
        return len(self.counts)


class FaceBitmaps(_Faces):
    """The faces of the complex generated by some facet masks, for its n
    vertices relabelled to bits 0..n-1 in order, which keeps mask order.
    planes holds H_i, the bitmap of the masks that hold vertex i, for every i.
    levels[k] holds the faces with k vertices as one 2^n-bit int, bit s set
    when the relabelled mask s is a face: the facets with k vertices, and the
    shadow of levels[k + 1], (levels[k + 1] & H_i) >> 2^i over every vertex i."""

    __slots__ = ("vertices", "planes")

    def __init__(self, facet_masks):
        originals = set(facet_masks)
        support = functools.reduce(operator.or_, originals, 0)
        self.vertices = vertices = [1 << v for v in _bits(support)]
        n = len(vertices)
        facets = set()
        for f in originals:
            # the relabelled mask: vertex j of the complex -> bit j
            m, bit = 0, 1
            for vertex in vertices:
                if f & vertex:
                    m |= bit
                bit <<= 1
            facets.add(m)
        # the facets' bitmap by size, set bit by bit in one buffer each
        by_size: dict[int, bytearray] = {}
        for f in facets:
            k = f.bit_count()
            if k not in by_size:
                by_size[k] = bytearray(((1 << n) + 7) >> 3)
            by_size[k][f >> 3] |= 1 << (f & 7)
        self.planes = _vertex_planes(n)
        self.levels = levels = []
        if facets:
            top = max(by_size)
            levels.append(int.from_bytes(by_size[top], "little"))
            for k in range(top - 1, 0, -1):
                shadow = int.from_bytes(by_size[k], "little") if k in by_size else 0
                for i, plane in enumerate(self.planes):
                    shadow |= (levels[-1] & plane) >> (1 << i)
                levels.append(shadow)
            if top:
                levels.append(1)  # the empty face
            levels.reverse()
        self.counts = [level.bit_count() for level in levels]
        self.ranks: dict[int, dict[int, int] | None] = {}

    def sweep(self, p: int) -> dict[int, int] | None:
        """The rank of every boundary map, d -> rank of the map out of the
        d-chains, over GF(p), or over the integers when p is 0; None when the
        integer reduction meets a pivot value other than +-1.

        The maps are walked top down. The columns of level k are its faces
        that are not pivot rows of the map above (cleared, Chen and Kerber
        2011). The largest row of the column of a face m is m without its
        lowest vertex, with value +1, so peeling the columns by lowest vertex
        v (rows F_v >> 2^v) gives every row its first claimer in mask order;
        that pair is apparent (the row is the face's largest facet, and the
        face the row's least cofacet among the columns, as in Bauer's
        Ripser), so it is a pivot pair whatever the other columns reduce to.
        Only the faces that meet a row already claimed become Python ints and
        are reduced, in mask order; a claimer's column is built only if such
        a reduction needs it."""
        levels = self.levels
        planes = list(enumerate(self.planes))
        size = ((1 << len(self.vertices)) + 7) >> 3
        ranks: dict[int, int] = {}
        above = 0  # the pivot rows of the map above, faces of this level
        for k in range(len(levels) - 1, 1, -1):
            columns = rest = levels[k] ^ above
            claimed = colliding = 0
            for v, plane in planes:
                if not rest:
                    break
                peeled = rest & plane
                if peeled:
                    rest ^= peeled
                    rows = peeled >> (1 << v)
                    hit = rows & claimed
                    if hit:
                        colliding |= hit << (1 << v)
                    claimed |= rows
            if colliding:
                pivot_rows = bytearray(claimed.to_bytes(size, "little"))
                column_bits = columns.to_bytes(size, "little")

                def claimer(row):
                    if not pivot_rows[row >> 3] >> (row & 7) & 1:
                        return None
                    for v in range((row & -row).bit_length() - 1):
                        m = row | 1 << v
                        if column_bits[m >> 3] >> (m & 7) & 1:
                            return m

                pivots: dict = {}
                for m in _members(colliding):
                    if not _reduce_column(_boundary_column(m), pivots, p, claimer):
                        return None
                for row in pivots:
                    pivot_rows[row >> 3] |= 1 << (row & 7)
                claimed = int.from_bytes(pivot_rows, "little")
            ranks[k - 1] = claimed.bit_count()
            above = claimed
        if len(levels) > 1:
            # every vertex maps onto the empty face, and the edge map's rank
            # is below the vertex count, so some vertex is left uncleared
            ranks[0] = 1
        return ranks


class FaceSets(_Faces):
    """The faces of the complex generated by some facet masks, levels[k] the
    set of its faces with k vertices: the facets with k vertices and every
    face of levels[k + 1] less one vertex. For complexes whose 2^n masks far
    outnumber their subsets (see faces_by_dim_masks)."""

    __slots__ = ()

    def __init__(self, facet_masks):
        by_size: dict[int, set[int]] = {}
        for f in facet_masks:
            by_size.setdefault(f.bit_count(), set()).add(f)
        self.levels = levels = []
        if by_size:
            top = max(by_size)
            levels.append(by_size[top])
            for k in range(top - 1, 0, -1):
                shadow = by_size.get(k, set())
                for f in levels[-1]:
                    rest = f
                    while rest:
                        low = rest & -rest
                        shadow.add(f ^ low)
                        rest ^= low
                levels.append(shadow)
            if top:
                levels.append({0})  # the empty face
            levels.reverse()
        self.counts = [len(level) for level in levels]
        self.ranks: dict[int, dict[int, int] | None] = {}

    def sweep(self, p: int) -> dict[int, int] | None:
        """FaceBitmaps.sweep on sets of masks: a level's columns in mask order
        each claim their largest row, m without its lowest vertex, unless an
        earlier column has; only the columns that find their row claimed are
        reduced."""
        levels = self.levels
        ranks: dict[int, int] = {}
        above: set[int] = set()
        for k in range(len(levels) - 1, 1, -1):
            claimers: dict[int, int] = {}  # each apparent pivot row -> its face
            colliding = []
            for m in sorted(levels[k] - above):
                row = m & (m - 1)
                if row in claimers:
                    colliding.append(m)
                else:
                    claimers[row] = m
            pivots: dict = {}
            for m in colliding:
                if not _reduce_column(_boundary_column(m), pivots, p, claimers.get):
                    return None
            above = claimers.keys() | pivots.keys()
            ranks[k - 1] = len(above)
        if len(levels) > 1:
            # every vertex maps onto the empty face, and the edge map's rank
            # is below the vertex count, so some vertex is left uncleared
            ranks[0] = 1
        return ranks


def _subsets(facets) -> int:
    """sum 2^|facet|, counting each face once per facet that holds it: the
    measure of a complex's cost, which bounds it whatever the vertex count n,
    since a complex is held as bitmaps of 2^n bits only while 2^n is within
    _BITMAP_FACTOR of it (see rookideal.betti._POOL_MIN_SUBSETS for its use
    in the sweeps)."""
    return sum(1 << f.bit_count() for f in facets)


# A bitmap level costs 2^n bits however few of the masks are faces, and each
# shadow and each peel takes one big-int operation per vertex; a set costs a
# Python int per face. Face building plus the integer reduction, best of
# three on a shared 2-vCPU guest: the 4x6 board plan's core of largest ratio
# 2^n / sum 2^|facet| (24 vertices, 1.97M subsets, ratio 8.5) took 1.46 s as
# bitmaps and 2.90 s as sets, at a peak of 144 and 134 MB; on random
# complexes of 14-22 vertices, sets took 0.9-1.4 times the bitmaps' time at
# ratio 8 and 0.2-0.8 times at ratio 64; the 272 cores of a seed-1
# squarefree-boards pass took 40.6 ms all as bitmaps, 38.2 ms with sets from
# ratio 16 and 36.9 ms from ratio 8. Ratio 16 keeps every core of the 4x5,
# 4x6 and 5x5 board plans on bitmaps, and holds a bitmap complex's levels and
# planes, 2n ints of 2^n bits, to 4n bytes a subset.
_BITMAP_FACTOR = 16


def faces_by_dim_masks(facet_masks) -> FaceBitmaps | FaceSets:
    """All faces of the complex generated by the given masks, grouped by
    dimension (the empty face at -1), each dimension sized by its face count:
    as bitmaps when the 2^n masks on its n vertices are at most
    _BITMAP_FACTOR times its sum 2^|facet| subsets, else as sets of masks
    (40 isolated points would need 2^40-bit levels)."""
    facets = set(facet_masks)
    support = functools.reduce(operator.or_, facets, 0)
    if 1 << support.bit_count() <= _BITMAP_FACTOR * _subsets(facets):
        return FaceBitmaps(facets)
    return FaceSets(facets)


# ---------------------------------------------------------------------------
# the rank kernel


def _boundary_column(m: int) -> dict[int, int]:
    """The face mask m as a sparse column {facet mask: +-1}; the sign is
    (-1)^position, so the largest row, m without its lowest vertex, has +1."""
    col = {}
    rest, sign = m, 1
    while rest:
        low = rest & -rest
        col[m ^ low] = sign
        rest ^= low
        sign = -sign
    return col


def _reduce_column(col: dict[int, int], pivots: dict, p: int, claimer) -> bool:
    """Reduce the sparse column {row: value} in place on its pivot (its
    largest nonzero row) against ``pivots``, which maps each pivot row to its
    column, over GF(p), or over the integers when p is 0. A pivot row missing
    from ``pivots`` is an apparent pair's: claimer(row) gives the face whose
    column has it, built the first time it is needed, and None for a free
    row. A column that does not reduce to zero is recorded as a new pivot,
    normalised to pivot value 1 over GF(p); over the integers its pivot value
    must be +-1, its own inverse, and False is returned for any other."""
    while col:
        low = max(col)
        other = pivots.get(low)
        if other is None:
            owner = claimer(low)
            if owner is None:
                lead = col[low]
                if p and lead != 1:
                    inv = pow(lead, -1, p)
                    col = {r: v * inv % p for r, v in col.items()}
                elif not p and lead not in (1, -1):
                    return False
                pivots[low] = col
                return True
            other = pivots[low] = _boundary_column(owner)
        f = col[low] * other[low]
        for r, v in other.items():
            w = col.get(r, 0) - f * v
            if p:
                w %= p
            if w:
                col[r] = w
            else:
                del col[r]
    return True


def _boundary_ranks(faces: _Faces, field: FieldSpec) -> dict[int, int]:
    # One integer reduction serves every prime when each of its pivots is
    # +-1: the column operations are unimodular and the echelon columns lead
    # with units at every prime, so the ranks and the clearing are the same
    # over every field, and no prime sees torsion. A complex that meets
    # another pivot value is reduced again at each prime asked for.
    found = faces.ranks
    if 0 not in found:
        found[0] = faces.sweep(0)
    if found[0] is not None:
        return found[0]
    p = field.characteristic
    if p not in found:
        found[p] = faces.sweep(p)
    return found[p]


def betti_of_face_masks(by_dim: _Faces, field: FieldSpec) -> dict[int, int]:
    """Reduced Betti numbers of a complex given by faces_by_dim_masks."""
    if not by_dim:
        return {}
    ranks = _boundary_ranks(by_dim, field)
    out: dict[int, int] = {}
    for d, count in enumerate(by_dim.counts, -1):
        out[d] = count - ranks.get(d, 0) - ranks.get(d + 1, 0)
        if out[d] < 0:
            # the maps into and out of the d-chains have at most f_d rank together
            raise ArithmeticError(
                f"boundary ranks exceed the {d}-face count; the rank kernel is wrong"
            )
    return out


def reduced_betti(cx, field: FieldSpec) -> dict[int, int]:
    """Reduced Betti numbers b~_d for d = -1 .. dim; {} for the void complex."""
    return betti_of_face_masks(faces_by_dim_masks(cx.facet_masks()), field)
