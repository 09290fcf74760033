"""Graded Betti tables of monomial ideals and the invariants derived from them.

Two independent routes produce the table of an ideal:

* the squarefree route sums reduced homology of restrictions of the
  monomial-free complex over the union-closure of the generator supports;
* the general route walks the join-closure (lcm lattice) of the generator
  exponent vectors and takes reduced homology of the upper Koszul subcomplex
  at each lattice point.

Both sweeps accept optional symmetries: variable permutations fixing the
generator set. The sweep grows the group they generate once, by Dimino's
method, so a generating set is enough and repeats do no harm; orbits of that
group then share one homology computation.

A table is a sweep plan evaluated at a prime. The plan is the part that does
not depend on the field: the symmetry group and its check, the lattice
points (exponent vectors packed into one int each, joined by a SWAR max),
one job per orbit and each orbit's complex, degree and size. Without
symmetries the lattice is closed a generator at a time and every point is a
job. With symmetries the lattice is never closed or sorted: the sweep starts
from the generators' orbits and joins each new orbit representative with
every generator, one level at a time (the level of a point counts its
fields whose top value bit is set; it is the same on a whole orbit, and no
join lowers it), so it keeps only the current level's points to tell a new
orbit from an old one. A point is mapped through every member of the group by
per-chunk image tables (the images of every 4-bit chunk value under every
member, built once). Both inner loops apply one point to a fixed list, so
the list is packed once into 64-bit lanes of one int (wider lanes for points
past 64 bits): a representative is joined with every generator, and a point
mapped through every member, by a few big-int operations and one unpack.
The symmetry check tests only the permutations that Dimino's method takes as
generators. On the lattice route a point's degree is read off its bit
planes (bit j of every field), and a facet's variable mask off the guard
bits of b - g. Each complex
is cut to its strong core: dominated vertices (another vertex lies in every
facet through them) are deleted one at a time, which keeps the homotopy type
and so the reduced homology over every field, and a job whose core is a point
is dropped; with two maximal facets the core is read off at once (a point
when they meet, else their two highest vertices). The jobs are then grouped
by core, with the (degree, orbit size) of each job that has it, and each
distinct core is tested once. A core that is a join of simplex boundaries is
a sphere, with one copy of the field in a dimension its vertex and part
counts give; the plan adds its jobs to the table in closed form, the same
for every field. Every other core is kept once. On the restriction route a core K is an induced subcomplex (a strong
collapse only deletes vertices), so its minimal non-faces are the generator
supports inside its vertex set V, and its Alexander dual on V takes one pass
over the generators. H~_e of the dual is H~_{|V|-e-3} of K over every field
(combinatorial Alexander duality, Bjoerner and Tancer 2009), so K is dropped
when the dual's strong core is a point, and that core is swept in K's place
when it has fewer subsets (sum 2^|facet|). The lattice route keeps its
cores, so the two routes stay independent computations. One sweep serves
every field asked for at once: it enumerates each distinct core's faces
once and reduces them at each prime while they are in hand, so only one
core's faces are held at a time. Nothing but the finished
tables is kept; clear_table_cache() drops them. A cross-checked report
sweeps once for its two fields, 32003 and GF(2), and finds the minimal
primes once (their complements are the facets of the squarefree route's
complex; their sizes give the report's height, dim and bight), by Berge's
sequential transversal method, handing them to the plan. A report reads the
Hilbert series, and so the a-invariant, off the quotient table, and checks
that the pole order of the series is the dim the primes give. A plan big
enough to pay for a process pool has its distinct cores swept by one process
per CPU the process may run on (taskset keeps it to one), dealt largest
first; the reduction is a plain sum, so the result is schedule independent.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import sys
import time
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

from .homology import DEFAULT_FIELD, GF2, FieldSpec, betti_of_face_masks, faces_by_dim_masks
from .monomials import MonomialIdeal, _mask_of, min_gens

_TABLE_CACHE: dict[tuple, "BettiTable"] = {}


def clear_table_cache():
    """Forget every cached table."""
    _TABLE_CACHE.clear()


class BettiTable:
    """Mapping (homological index, total degree) -> multiplicity."""

    __slots__ = ("subject", "ambient", "field", "entries")

    def __init__(self, subject: str, ambient: int, field: FieldSpec, entries):
        if subject not in ("ideal", "quotient"):
            raise ValueError("subject must be 'ideal' or 'quotient'")
        self.subject = subject
        self.ambient = ambient
        self.field = field
        self.entries = {k: v for k, v in dict(entries).items() if v}

    def beta(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def reg(self) -> int:
        return max(j - i for i, j in self.entries)

    def pd(self) -> int:
        return max(i for i, _ in self.entries)

    def quotient(self) -> "BettiTable":
        if self.subject != "ideal":
            raise ValueError("already a quotient table")
        entries = {(i + 1, j): b for (i, j), b in self.entries.items()}
        entries[(0, 0)] = 1
        return BettiTable("quotient", self.ambient, self.field, entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BettiTable)
            and self.subject == other.subject
            and self.ambient == other.ambient
            and self.field == other.field
            and self.entries == other.entries
        )

    def to_json_dict(self) -> dict:
        return {
            "subject": self.subject,
            "field": self.field.characteristic,
            "ambient": self.ambient,
            "entries": [[i, j, b] for (i, j), b in sorted(self.entries.items())],
            "reg": self.reg(),
            "pd": self.pd(),
        }

    def to_text(self) -> str:
        """Aligned triangle, rows indexed by j - i and columns by i."""
        pd = self.pd()
        reg = self.reg()
        low = min(j - i for i, j in self.entries)
        cols = list(range(pd + 1))
        grid = []
        for r in range(low, reg + 1):
            grid.append([self.beta(i, i + r) for i in cols])
        totals = [sum(row[i] for row in grid) for i in range(len(cols))]
        widths = [max(len(str(totals[i])), len(str(cols[i]))) for i in range(len(cols))]
        label_w = max(len("total:"), *(len(f"{r}:") for r in range(low, reg + 1)))
        lines = [
            " ".join([" " * label_w] + [f"{c:>{w}}" for c, w in zip(cols, widths)]),
            " ".join(["total:".rjust(label_w)] + [f"{t:>{w}}" for t, w in zip(totals, widths)]),
        ]
        for r, row in zip(range(low, reg + 1), grid):
            cells = [str(v) if v else "." for v in row]
            lines.append(" ".join([f"{r}:".rjust(label_w)] + [f"{c:>{w}}" for c, w in zip(cells, widths)]))
        return "\n".join(lines)

    def __str__(self):
        return self.to_text()


# ---------------------------------------------------------------------------
# lattices, symmetry orbits, sweep plans and the sweep worker


# Both lattices hold packed points: one int per point, variable i in a field
# of w bits. A squarefree support is a bitmask (w = 1, variable i at bit i).
# An exponent vector has the first variable in the most significant field, so
# that integer order is tuple order, and w = (largest exponent).bit_length()
# + 1: the top bit of every field is a guard bit, clear in a packed vector.
# A join function joins(g, points) returns the set {g v b : b in points}.


def _field_width(vectors) -> int:
    return max(map(max, vectors)).bit_length() + 1


def _vector_offsets(width: int, count: int) -> list[int]:
    return [width * (count - 1 - i) for i in range(count)]


def _pack(vector, width: int) -> int:
    out = 0
    for e in vector:
        out = (out << width) | e
    return out


def _unions(g: int, points) -> set[int]:
    return {g | b for b in points}


def _swar_constants(width: int, count: int) -> tuple[int, int]:
    """(guards, shift) of the SWAR max: the top bit of every field, and w - 1."""
    return sum(1 << (at + width - 1) for at in _vector_offsets(width, count)), width - 1


def _swar_joins(width: int, count: int):
    """The join of packed exponent vectors, a SWAR max: b - g with every
    guard bit of b set keeps a guard bit exactly where b >= g, and
    d - (d >> (w-1)) widens those guards into masks of the fields that b wins."""
    guards, shift = _swar_constants(width, count)

    def joins(g: int, points) -> set[int]:
        return {
            g ^ ((b ^ g) & ((d := ((b | guards) - g) & guards) - (d >> shift))) for b in points
        }

    return joins


# A lane join packs a fixed list of points once into lanes of one int, lane k
# holding point k (SWAR across lanes: Fisher and Dietz 1998). A lane is 8
# bytes, or 8 * ceil(bits / 64) bytes for a point wider than 64 bits. r * ones
# copies a point r into every lane, so one big-int operation applies r to the
# whole list, and one unpack gives the results in list order. A lane builder
# lanes(gens) returns join_all(r) = [r v g for g in gens].


def _lane_bytes(bits: int) -> int:
    return 8 * max(1, -(-bits // 64))


def _pack_lanes(values, size: int) -> int:
    if size == 8:
        return int.from_bytes(array("Q", values).tobytes(), sys.byteorder)
    return int.from_bytes(b"".join(v.to_bytes(size, sys.byteorder) for v in values), sys.byteorder)


def _unpack_lanes(packed: int, count: int, size: int) -> list[int]:
    raw = packed.to_bytes(count * size, sys.byteorder)
    if size == 8:
        return memoryview(raw).cast("Q").tolist()
    return [int.from_bytes(raw[at : at + size], sys.byteorder) for at in range(0, len(raw), size)]


def _lane_unions(gens):
    """The lane join of bitmasks: a union is one OR. A union of the masks is
    no wider than the widest of them, so that width sizes the lanes."""
    gens = list(gens)
    size = _lane_bytes(max(gens).bit_length())
    packed = _pack_lanes(gens, size)
    ones = _pack_lanes([1] * len(gens), size)

    def join_all(r: int) -> list[int]:
        return _unpack_lanes(packed | r * ones, len(gens), size)

    return join_all


def _lane_swar_joins(width: int, count: int):
    """The lane join of packed exponent vectors: the SWAR max of _swar_joins
    with every lane at once. Per field, (b | guards) - r is never negative,
    so no borrow crosses a field, and none crosses a lane."""
    guards, shift = _swar_constants(width, count)
    size = _lane_bytes(width * count)

    def lanes(gens):
        gens = list(gens)
        ones = _pack_lanes([1] * len(gens), size)
        packed = _pack_lanes(gens, size)
        lifted = packed | guards * ones
        all_guards = guards * ones

        def join_all(r: int) -> list[int]:
            r *= ones
            d = (lifted - r) & all_guards
            return _unpack_lanes(r ^ ((packed ^ r) & (d - (d >> shift))), len(gens), size)

        return join_all

    return lanes


def _closure(gens, joins) -> list[int]:
    """The closure of the generators under the join, sorted. Adding one
    generator g to the closure L of the ones before it adds {g v b : b in L}.

    The join stays scalar, one point at a time: L changes on every step, so
    lanes would be packed afresh for every generator, and on many small
    lattices (the benchmark's random-ideals workload) that packing made the
    sweep slower, not faster."""
    lattice: set[int] = set()
    for g in sorted(set(gens)):
        lattice |= joins(g, lattice)
        lattice.add(g)
    return sorted(lattice)


def _image_tables(perms, width: int, offsets: list[int]):
    """images(x): the images of the packed point x under every permutation
    (variable i moves to perm[i]), in the order of ``perms``.

    A permutation moves whole fields, so it moves bit j of variable i's field
    to bit j of field perm[i]: it is a permutation of bits, and the image of
    x is the OR of the images of its 4-bit chunks. For each chunk position
    and each chunk value, the images under every permutation are built once
    into one int, lane k holding the image under perms[k] (see _pack_lanes);
    images(x) ORs one such int per nonzero chunk of x and unpacks once. When
    the point's width is not a multiple of 4, the top chunk is shorter and
    has fewer values, but it is still there."""
    bits = width * len(offsets)
    size = _lane_bytes(bits)
    moved = [0] * bits  # bit -> its images under every permutation, in lanes
    for i, at in enumerate(offsets):
        for j in range(width):
            moved[at + j] = _pack_lanes([1 << (offsets[perm[i]] + j) for perm in perms], size)
    tables = []
    for low in range(0, bits, 4):
        table = [0]
        for value in range(1, 1 << min(4, bits - low)):
            bit = low + (value & -value).bit_length() - 1
            table.append(table[value & (value - 1)] | moved[bit])
        tables.append(table)
    count = len(perms)

    def images(x: int) -> list[int]:
        out = 0
        for table in tables:
            if not x:
                break
            if x & 15:
                out |= table[x & 15]
            x >>= 4
        return _unpack_lanes(out, count, size)

    return images


def _symmetry_images(gens: list[int], perms, width: int, offsets: list[int]):
    """The image tables (see _image_tables) of the group that the
    permutations in ``perms`` generate; None without permutations. Raises
    ValueError unless every permutation that _group takes as a generator is
    a permutation of the variables that fixes the generating set. Every
    member is a product of those generators, so they alone show that every
    member is a permutation and fixes the set. The sweep weighs each orbit
    representative by the size of its image set, which is its orbit because
    the tables cover the whole group."""
    if not perms:
        return None
    count = len(offsets)
    fixed = set(gens)

    def admit(s):
        if sorted(s) != list(range(count)):
            raise ValueError("symmetry is not a permutation of the variables")
        image = _image_tables([s], width, offsets)
        for g in fixed:
            if image(g)[0] not in fixed:
                raise ValueError("symmetry does not fix the generating set")

    return _image_tables(_group(perms, count, admit), width, offsets)


def _group(perms, count: int, admit) -> list[tuple[int, ...]]:
    """The group the permutations generate, each member once, grown by
    Dimino's method: a permutation not reached yet becomes a generator, is
    passed to admit (which may raise) before anything is composed with it,
    and adds the right cosets of the group so far, found by multiplying each
    coset representative by every generator, so growing the group takes
    O(|group| * |generators|) compositions."""
    identity = tuple(range(count))
    group = [identity]
    reached = {identity}

    def add_coset(subgroup, x):
        # the right coset {h x : h in subgroup}, x first (h = identity);
        # (h x)[i] = h[x[i]]
        coset = list(map(operator.itemgetter(*x), subgroup))
        group.extend(coset)
        reached.update(coset)

    gens = []  # itemgetters: times_t(r) = r t
    for s in map(tuple, perms):
        if s in reached:
            continue
        admit(s)
        gens.append(operator.itemgetter(*s))
        subgroup = group[:]
        add_coset(subgroup, s)
        # the group so far is closed once every coset representative times
        # every generator lands in a coset already added
        rep = len(subgroup)
        while rep < len(group):
            for times_t in gens:
                x = times_t(group[rep])
                if x not in reached:
                    add_coset(subgroup, x)
            rep += len(subgroup)
    return group


def _level_plane(width: int, count: int) -> int:
    """P, the top value bit of each of ``count`` fields of ``width`` bits: the
    bit under the guard, or the field's one bit when it has no guard (width 1,
    bitmasks). A point y lies on level popcount(y & P), the number of its
    fields whose top value bit is set; on bitmasks that is the degree."""
    top = max(width - 2, 0)
    return sum(1 << (at + top) for at in _vector_offsets(width, count))


def _levels(points, plane: int):
    """The level (see _level_plane) of each point, in order."""
    return map(int.bit_count, map(operator.and_, points, itertools.repeat(plane)))


def _orbit_jobs(gens, join, images, plane: int) -> list[tuple[int, int]]:
    """The closure of the generators under the join as (representative,
    orbit size) jobs, sorted; a representative is the least point of its
    orbit. Without symmetries ``join`` is a scalar join (see _closure) and
    every point of the closure is its own job.

    With symmetries ``join`` is a lane builder (see _lane_unions), and the
    closure is never built: the sweep starts from the generators' orbits and
    joins each new representative r with every generator, through the lanes
    it packs once. This reaches every orbit: the closure is made of joins
    x v g with x in it, and if x = pi(r) then x v g = pi(r v pi^-1(g)),
    where pi^-1(g) is again a generator.

    The sweep goes one level (see _level_plane; ``plane`` is P) at a time,
    lowest first. A symmetry moves whole fields, so every orbit lies in one
    level, and a field whose top value bit is set keeps it under a join, so
    r v g never lies below r's level. So a level gets no new candidate once
    it is done, and only the current level's points are kept to tell a new
    orbit from an old one; the joins bound for a later level wait in that
    level's set. On packed vectors a join can stay on r's level; it is
    swept in the next round of the same level."""
    if images is None:
        return [(x, 1) for x in _closure(gens, join)]
    gens = set(gens)
    join_all = join(gens)
    ahead: dict[int, set[int]] = {}  # level -> joins waiting for it

    def defer(points):
        # C-level maps and one compress pass per level present, so no
        # Python-level step per point
        points = list(points)
        levels = list(_levels(points, plane))
        for level in set(levels):
            ahead.setdefault(level, set()).update(
                itertools.compress(points, map(operator.eq, levels, itertools.repeat(level)))
            )

    defer(gens)
    jobs = []
    while ahead:
        level = min(ahead)
        pending = ahead.pop(level)
        seen: set[int] = set()
        while pending:
            joined: set[int] = set()
            for x in pending:
                if x in seen:
                    continue
                orbit = set(images(x))  # holds x: _group lists the identity first
                seen |= orbit
                rep = min(orbit)
                jobs.append((rep, len(orbit)))
                joined.update(join_all(rep))
            defer(joined - seen)
            pending = ahead.pop(level, ())
    jobs.sort()
    return jobs


def _strong_core(facets) -> tuple[int, ...] | None:
    """The facet masks of the strong core of the complex the masks generate,
    or None when that core is a point. A vertex v is dominated when another
    vertex lies in every facet through v; deleting v from every facet is a
    strong collapse, which keeps the homotopy type (Barmak and Minian 2012),
    so reduced homology over every field is unchanged. Dominated vertices are
    deleted one at a time until none is left, or until one nonempty facet is
    left: a simplex collapses to a point. Deleting v changes only facets
    through v, so only the vertices that shared a facet with v are checked
    again. A point is contractible, so all its reduced Betti numbers are 0;
    the irrelevant complex (0,) has no vertex and is its own core.

    Two maximal facets need no loop. If they meet, a vertex they share lies
    in every facet, so every other vertex is dominated, and a deletion keeps
    the two facets meeting: the loop ends at one simplex, a point. If they
    are disjoint, a vertex is dominated exactly while its facet has another
    vertex left, so deleting from the lowest up leaves the highest of each."""
    core: list[int] = []
    for f in sorted(set(facets), key=int.bit_count, reverse=True):
        for g in core:
            if f & g == f:
                break
        else:
            core.append(f)
    if len(core) == 2:
        f, g = core
        if f & g:
            return None
        return tuple(sorted((1 << f.bit_length() - 1, 1 << g.bit_length() - 1)))
    todo = functools.reduce(operator.or_, core, 0)
    while todo and len(core) > 1:
        bit = todo & -todo
        todo ^= bit
        common = -1  # the vertices of every facet through v
        for f in core:
            if f & bit:
                common &= f
                if common == bit:
                    break
        else:
            # v is dominated and leaves every facet; a shrunk facet can only
            # fall inside a facet that did not hold v
            kept = [f for f in core if not f & bit]
            shrunk = []
            touched = 0
            for f in core:
                if f & bit:
                    touched |= f
                    f ^= bit
                    for g in kept:
                        if f | g == g:
                            break
                    else:
                        shrunk.append(f)
            core = kept + shrunk
            todo |= touched ^ bit
    if len(core) == 1 and core[0]:
        return None
    return tuple(sorted(core))


def _sphere_dimension(facets) -> int | None:
    """d when the complex the facet masks generate is a join of r simplex
    boundaries on a vertex set V, d = |V| - r - 1; else None. Such a join is
    a d-sphere (Bjoerner 1995), so its reduced homology is one copy of the
    field in dimension d, over every field; r = 0 is the irrelevant complex
    (0,) and r = 1 the boundary of one simplex.

    The complements C = {V ^ f} of the facets of the join of the boundaries
    of simplices on the parts of a partition of V are the transversals of
    the partition: each takes one vertex from every part. Any c0 in C shows
    the parts: the part of v in c0 is v with every u outside c0 for which
    c0 ^ v | u is in C. The facets are those of a join exactly when these
    parts cover V, each c in C meets each part once (so the parts are
    disjoint), and |C| is the product of the part sizes."""
    vertices = functools.reduce(operator.or_, facets)
    complements = {vertices ^ f for f in facets}
    c0 = min(complements)
    outside = vertices ^ c0
    parts = []
    rest = c0
    while rest:
        v = rest & -rest
        rest ^= v
        part, base, others = v, c0 ^ v, outside
        while others:
            u = others & -others
            others ^= u
            if base | u in complements:
                part |= u
        parts.append(part)
    if functools.reduce(operator.or_, parts, 0) != vertices:
        return None
    if math.prod(part.bit_count() for part in parts) != len(complements):
        return None
    for c in complements:
        for part in parts:
            if (c & part).bit_count() != 1:
                return None
    return vertices.bit_count() - len(parts) - 1


def _homological_index(route: str, degree: int, d: int) -> int:
    """Where H~_d of a job's complex counts: in homological degree
    |sigma| - d - 2 for the restriction to sigma (Hochster's formula), in
    d + 1 for the upper Koszul complex at b."""
    return degree - d - 2 if route == "hochster" else d + 1


def _subsets(facets) -> int:
    """sum 2^|facet|: the subsets a face enumeration builds, the measure of a
    core's cost."""
    return sum(1 << f.bit_count() for f in facets)


def _dual_core(core, supports) -> tuple[int, ...] | None:
    """The strong core of the Alexander dual, on the core's vertex set V, of
    a restriction core (see _strong_core for None). A strong collapse only
    deletes vertices, so the core is the induced subcomplex of the
    monomial-free complex on V, and its minimal non-faces are the generator
    supports inside V; the dual's facets are their complements in V."""
    vertices = functools.reduce(operator.or_, core)
    return _strong_core({vertices ^ g for g in supports if g & vertices == g})


class _SweepPlan(NamedTuple):
    """The field-independent part of a table. ``spheres`` holds the table
    entries, {(i, degree): multiplicity}, of the jobs whose strong core is a
    join of simplex boundaries, the same over every field; ``cores`` lists
    every other complex to sweep once, as (facet masks, [(degree, orbit
    size), ...] of the jobs it stands for). A placement (degree, orbit size,
    n) stands for a core on n vertices whose Alexander dual is swept."""

    spheres: dict[tuple[int, int], int]
    cores: list[tuple[tuple[int, ...], list[tuple[int, ...]]]]


def _gather(route: str, jobs, supports=None) -> _SweepPlan:
    """The plan of a route's (facet masks, degree, orbit size) jobs: each
    complex is cut to its strong core, a point adds nothing, and the other
    jobs are grouped by core, in the order each core first appears. Each
    distinct core is then tested once: a sphere adds its closed form at every
    placement, and every other core is kept, in that order, with all its
    placements. With the generator ``supports`` (the restriction route),
    each kept core K on n vertices is weighed, once, against the strong core
    of its Alexander dual: H~_e of the dual is H~_{n-e-3} of K over every
    field (Bjoerner and Tancer 2009), so K is dropped when that core is a
    point, and the dual is swept instead when it has fewer subsets."""
    placed: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for facets, degree, weight in jobs:
        core = _strong_core(facets)
        if core is not None:
            placed.setdefault(core, []).append((degree, weight))
    spheres: dict[tuple[int, int], int] = {}
    cores = []
    for core, placements in placed.items():
        d = _sphere_dimension(core)
        if d is None:
            cores.append((core, placements))
            continue
        for degree, weight in placements:
            i = _homological_index(route, degree, d)
            if i >= 0:
                spheres[(i, degree)] = spheres.get((i, degree), 0) + weight
    if supports is None:
        return _SweepPlan(spheres, cores)
    swept: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for core, placements in cores:
        dual = _dual_core(core, supports)
        if dual is None:
            continue
        if _subsets(dual) < _subsets(core):
            n = functools.reduce(operator.or_, core).bit_count()
            core, placements = dual, [(degree, weight, n) for degree, weight in placements]
        swept.setdefault(core, []).extend(placements)
    return _SweepPlan(spheres, list(swept.items()))


def _hochster_plan(ideal: MonomialIdeal, symmetries, primes=None) -> _SweepPlan:
    """The restriction sweep's plan; ``primes``, the ideal's minimal primes,
    are found here unless the caller has them already."""
    count = ideal.ambient.count
    full = (1 << count) - 1
    if primes is None:
        primes = ideal.minimal_primes()
    delta_facets = {full & ~_mask_of(p) for p in primes}
    gens = [g.support_mask() for g in ideal.gens]
    images = _symmetry_images(gens, symmetries, 1, list(range(count)))
    return _gather(
        "hochster",
        (
            ({f & sigma for f in delta_facets}, sigma.bit_count(), weight)
            for sigma, weight in _orbit_jobs(
                gens, _unions if images is None else _lane_unions, images, _level_plane(1, count)
            )
        ),
        gens,
    )


def _koszul_plan(ideal: MonomialIdeal, symmetries) -> _SweepPlan:
    count = ideal.ambient.count
    vectors = [g.exponents for g in ideal.gens]
    width = _field_width(vectors)
    offsets = _vector_offsets(width, count)
    guards, shift = _swar_constants(width, count)
    ones = guards >> shift
    gens = [_pack(v, width) for v in vectors]
    images = _symmetry_images(gens, symmetries, width, offsets)
    # bit plane j: bit j of every field, so b's degree is sum 2^j |b & plane j|
    planes = [ones << j for j in range(width - 1)]
    # the guard bit of variable i's field -> bit i, and the guard bits of the
    # nonzero fields of b - g -> the mask of those variables
    variable_bit = {1 << (at + width - 1): 1 << i for i, at in enumerate(offsets)}
    masks: dict[int, int] = {}
    jobs = []
    join = _swar_joins(width, count) if images is None else _lane_swar_joins(width, count)
    for b, weight in _orbit_jobs(gens, join, images, _level_plane(width, count)):
        bg = b | guards
        facets = []
        # the upper Koszul complex at b has a facet {i : b_i > g_i} for each g | b
        divisors = [g for g in gens if (bg - g) & guards == guards]
        for nonzero in {(((b - g) | guards) - ones) & guards for g in divisors}:
            mask = masks.get(nonzero)
            if mask is None:
                mask, rest = 0, nonzero
                while rest:
                    guard = rest & -rest
                    rest ^= guard
                    mask |= variable_bit[guard]
                masks[nonzero] = mask
            facets.append(mask)
        degree = sum((b & plane).bit_count() << j for j, plane in enumerate(planes))
        jobs.append((facets, degree, weight))
    return _gather("koszul", jobs)


def _sweep_plan(route: str, ideal: MonomialIdeal, symmetries, primes=None) -> _SweepPlan:
    if route == "hochster":
        return _hochster_plan(ideal, symmetries, primes)
    return _koszul_plan(ideal, symmetries)


def _sweep_chunk(route: str, cores, fields) -> list[dict]:
    """The table entries of some of a plan's distinct cores, one dict for each
    field in ``fields``: each core's faces are enumerated once and reduced
    over every field while they are in hand, and each reduced Betti
    number v counts v * orbit size at every placement (degree, orbit size) of
    the core, in the homological degree _homological_index gives. At a
    placement (degree, orbit size, n), the complex swept is the dual of a
    core on n vertices, and its H~_e counts as that core's H~_{n-e-3}."""
    outs: list[dict[tuple[int, int], int]] = [{} for _ in fields]
    for facets, placements in cores:
        by_dim = faces_by_dim_masks(facets)
        for field, out in zip(fields, outs):
            for e, v in betti_of_face_masks(by_dim, field).items():
                if not v:
                    continue
                for degree, weight, *dual in placements:
                    d = dual[0] - e - 3 if dual else e
                    i = _homological_index(route, degree, d)
                    if i >= 0:
                        key = (i, degree)
                        out[key] = out.get(key, 0) + v * weight
    return outs


# the names the two routes look the worker up under, so that either can be
# replaced on its own
_hochster_chunk = _koszul_chunk = _sweep_chunk


# A pool pays for its start-up and for pickling the cores only on big plans.
# The sweep's work grows with the subsets of the cores' facets, sum 2^|facet|
# over the distinct cores. Measured on a shared 2-vCPU guest, both fields,
# the sweep alone, two series of medians of 7: the 4x4 board plan (30 cores,
# 155k subsets) took 0.058-0.080 s in one process and 0.064-0.078 s in two, a
# loss as often as a gain; the 4x5 plan (232 cores, 4.0M subsets) took
# 1.80-1.93 s in one and 0.92-0.98 s in two (1.11-1.20 s with the cores dealt
# round robin in plan order). Below about 1M subsets a second process is not
# worth its memory.
_POOL_MIN_SUBSETS = 1 << 20


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity mask, so that taskset
    or a cgroup cpuset keeps the sweep in one process."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _map_chunks(worker, static, cores, fields) -> list[dict]:
    """worker(static, chunk, fields) over chunks of a plan's distinct cores,
    its dicts summed per field. The chunks go to one process per usable CPU
    when there is more than one and the cores hold at least
    _POOL_MIN_SUBSETS subsets; otherwise the worker takes every core here."""
    subsets = sum(_subsets(facets) for facets, _ in cores)
    workers = min(_cpu_count(), len(cores)) if subsets >= _POOL_MIN_SUBSETS else 1
    if workers <= 1:
        parts = [worker(static, cores, fields)]
    else:
        # largest cores first (Graham's LPT rule), dealt round robin, so the
        # chunks that start first hold the biggest cores
        cores = sorted(cores, key=lambda core: _subsets(core[0]), reverse=True)
        nchunks = workers * 4
        chunks = [cores[k::nchunks] for k in range(nchunks)]
        chunks = [c for c in chunks if c]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(worker, itertools.repeat(static), chunks, itertools.repeat(fields))
            )
    totals: list[dict[tuple[int, int], int]] = [{} for _ in fields]
    for part in parts:
        for total, entries in zip(totals, part):
            for key, v in entries.items():
                total[key] = total.get(key, 0) + v
    return totals


# ---------------------------------------------------------------------------
# table construction


def betti_table_hochster(
    ideal: MonomialIdeal,
    field: FieldSpec = DEFAULT_FIELD,
    symmetries=None,
) -> BettiTable:
    """Betti table of a squarefree ideal via restrictions of its monomial-free
    complex, swept over the union closure of the generator supports."""
    return _planned_tables("hochster", ideal, [field], symmetries)[0]


def betti_table_koszul(
    ideal: MonomialIdeal,
    field: FieldSpec = DEFAULT_FIELD,
    symmetries=None,
) -> BettiTable:
    """Betti table of any monomial ideal via upper Koszul subcomplexes over the
    lcm lattice of the generators."""
    return _planned_tables("koszul", ideal, [field], symmetries)[0]


def _planned_tables(route: str, ideal: MonomialIdeal, fields, symmetries, primes=None):
    """The route's tables of the ideal over each of ``fields``, in order. The
    ones not cached yet come from one sweep of one plan, and are cached;
    ``primes`` are the ideal's minimal primes, if the caller has them (only
    the restriction sweep uses them)."""
    if route == "hochster" and not ideal.is_squarefree:
        raise ValueError("the restriction sweep requires a squarefree ideal")
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("need a nonzero proper ideal")
    keys = [_cache_key(ideal, field, route, symmetries) for field in fields]
    missing = {key: field for key, field in zip(keys, fields) if key not in _TABLE_CACHE}
    if missing:
        plan = _sweep_plan(route, ideal, symmetries, primes)
        worker = _hochster_chunk if route == "hochster" else _koszul_chunk
        parts = _map_chunks(worker, route, plan.cores, list(missing.values()))
        for (key, field), entries in zip(missing.items(), parts):
            for entry, v in plan.spheres.items():
                entries[entry] = entries.get(entry, 0) + v
            _TABLE_CACHE[key] = BettiTable("ideal", ideal.ambient.count, field, entries)
    return [_TABLE_CACHE[key] for key in keys]


def betti_table(
    ideal: MonomialIdeal,
    field: FieldSpec = DEFAULT_FIELD,
    symmetries=None,
) -> BettiTable:
    """Betti table of any monomial ideal: by the restriction sweep when it is
    squarefree, by the lattice sweep otherwise."""
    build = betti_table_hochster if ideal.is_squarefree else betti_table_koszul
    return build(ideal, field, symmetries)


def _cache_key(ideal: MonomialIdeal, field: FieldSpec, route: str, symmetries):
    # the symmetry list is part of the key: a table cached without it would
    # skip the check that every symmetry fixes the generating set
    return (
        ideal.ambient.labels,
        tuple(g.exponents for g in ideal.gens),
        field.characteristic,
        route,
        tuple(map(tuple, symmetries or ())),
    )


# ---------------------------------------------------------------------------
# Hilbert series and a-invariant (any quotient, from its Betti table)


@dataclass(frozen=True)
class HilbertSeries:
    """Series of a quotient as numerator over (1 - t)^denominator_power, in
    lowest terms."""

    numerator: tuple[int, ...]
    denominator_power: int

    @property
    def a_invariant(self) -> int:
        return len(self.numerator) - 1 - self.denominator_power


def _poly_div_one_minus_t(a: list[int]) -> list[int]:
    # a(t) = (1 - t) q(t); prefix sums give q, divisibility means a(1) = 0
    if sum(a) != 0:
        raise ValueError("polynomial is not divisible by 1 - t")
    q = []
    acc = 0
    for coeff in a[:-1]:
        acc += coeff
        q.append(acc)
    return q if q else [0]


def hilbert_series(quotient: BettiTable, ambient_count: int | None = None) -> HilbertSeries:
    """Hilbert series of S/I read off its quotient table: the numerator
    sum (-1)^i beta_{i,j} t^j over (1 - t)^n, n the ambient count (Bruns and
    Herzog, Cohen-Macaulay Rings, 4.1), reduced to lowest terms."""
    if quotient.subject != "quotient":
        raise ValueError("the Hilbert series is read off the quotient table")
    numerator = [0] * (max(j for _, j in quotient.entries) + 1)
    for (i, j), b in quotient.entries.items():
        numerator[j] += -b if i % 2 else b
    denom = quotient.ambient if ambient_count is None else ambient_count
    while denom > 0 and sum(numerator) == 0:
        numerator = _poly_div_one_minus_t(numerator)
        denom -= 1
    while len(numerator) > 1 and numerator[-1] == 0:
        numerator.pop()
    return HilbertSeries(tuple(numerator), denom)


# ---------------------------------------------------------------------------
# invariant report


@dataclass
class InvariantReport:
    """Quotient-level invariants: reg(S/I), pd(S/I), depth, dim, prime sizes."""

    reg: int
    pd: int
    depth: int
    dim: int
    height: int
    bight: int
    a_invariant: int
    field_characteristic: int
    torsion_warning: bool
    ambient: int
    wall_ms: float = dc_field(default=0.0)

    def to_dict(self) -> dict:
        return {
            "reg": self.reg,
            "pd": self.pd,
            "depth": self.depth,
            "dim": self.dim,
            "height": self.height,
            "bight": self.bight,
            "a_invariant": self.a_invariant,
            "field": self.field_characteristic,
            "torsion_warning": self.torsion_warning,
            "ambient": self.ambient,
            "wall_ms": round(self.wall_ms, 3),
        }


def invariant_report(
    ideal: MonomialIdeal,
    ambient_count: int | None = None,
    field: FieldSpec = DEFAULT_FIELD,
    symmetries=None,
    cross_check: bool = False,
) -> InvariantReport:
    """Full invariant report of S/I. Variables beyond the ideal's own set raise
    depth and dim by their count; reg and pd do not move."""
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("need a nonzero proper ideal")
    if ambient_count is None:
        ambient_count = ideal.ambient.count
    if ambient_count < len(ideal.support()):
        raise ValueError("declared ambient is smaller than the support")
    start = time.perf_counter()
    route = "hochster" if ideal.is_squarefree else "koszul"
    primes = ideal.radical().minimal_primes()
    fields = [field]
    if cross_check:
        fields.append(GF2 if field.characteristic != 2 else DEFAULT_FIELD)
    # one sweep for every field; the table calls below find the tables cached
    _planned_tables(route, ideal, fields, symmetries, primes)
    table = betti_table(ideal, field, symmetries)
    quotient = table.quotient()
    reg = quotient.reg()
    pd = quotient.pd()
    depth = ambient_count - pd
    sizes = [len(p) for p in primes]
    height = min(sizes)
    bight = max(sizes)
    dim = ambient_count - height
    if depth > dim:
        raise ArithmeticError(
            f"depth {depth} exceeds dim {dim}; the table or the primes are wrong"
        )
    series = hilbert_series(quotient, ambient_count)
    if series.denominator_power != dim:
        raise ArithmeticError(
            f"the Hilbert series has a pole of order {series.denominator_power} at t = 1"
            f" but dim is {dim}; the table or the primes are wrong"
        )
    warning = False
    if cross_check:
        other_table = betti_table(ideal, fields[1], symmetries)
        warning = other_table.entries != table.entries
    return InvariantReport(
        reg=reg,
        pd=pd,
        depth=depth,
        dim=dim,
        height=height,
        bight=bight,
        a_invariant=series.a_invariant,
        field_characteristic=field.characteristic,
        torsion_warning=warning,
        ambient=ambient_count,
        wall_ms=(time.perf_counter() - start) * 1000.0,
    )


# ---------------------------------------------------------------------------
# duality and closed-form cross checks


def terai_check(
    ideal: MonomialIdeal,
    field: FieldSpec = DEFAULT_FIELD,
    symmetries=None,
) -> bool:
    """pd(S/I) == reg of the Alexander dual, both sides computed from scratch
    through the lattice route."""
    ideal._require_squarefree_proper()
    pd_quotient = betti_table_koszul(ideal, field, symmetries).quotient().pd()
    reg_dual = betti_table_koszul(ideal.alexander_dual(), field, symmetries).reg()
    return pd_quotient == reg_dual


# ---------------------------------------------------------------------------
# colon-sequence regularity bounds


@dataclass(frozen=True)
class ColonStep:
    index: int
    monomial: str
    degree: int
    colon_reg: int | None
    term: int | None
    note: str = ""


def _reg_for_bound(ideal: MonomialIdeal, field: FieldSpec) -> int | None:
    """Ideal-level regularity with the conventions the colon recursion needs:
    the unit ideal drops out (None), the zero ideal counts as reg(S) + 1."""
    if ideal.is_unit:
        return None
    if ideal.is_zero:
        return 1
    return betti_table(ideal, field).reg()


def colon_sequence_reg_bound(
    ideal: MonomialIdeal,
    order,
    field: FieldSpec = DEFAULT_FIELD,
) -> tuple[int, tuple[ColonStep, ...]]:
    """Replay a colon recursion and return the max-formula regularity bound.

    The monomials of ``order`` are adjoined one at a time, each step
    contributing reg(J : f) + deg f, and the ideal they end at contributes
    its own regularity. The returned bound always dominates reg(I).
    """
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("need a nonzero proper ideal")
    order = list(order)
    for f in order:
        if f.ambient != ideal.ambient:
            raise ValueError("order monomial over a different variable set")
    trace: list[ColonStep] = []
    terms: list[int] = []
    current = ideal
    for idx, f in enumerate(order, start=1):
        colon = current.colon(f)
        creg = _reg_for_bound(colon, field)
        term = None if creg is None else creg + f.degree
        trace.append(ColonStep(idx, str(f), f.degree, creg, term))
        if term is not None:
            terms.append(term)
        current = current + min_gens([f], ideal.ambient)
    tail = _reg_for_bound(current, field)
    if tail is not None:
        terms.append(tail)
        trace.append(ColonStep(0, "(tail)", 0, tail, tail, note="remaining ideal"))
    if not terms:
        raise ValueError("recursion produced no usable terms")
    return max(terms), tuple(trace)


# ---------------------------------------------------------------------------
# disjoint-sum power predictions


def sum_formula_predict(powers1, powers2, t: int) -> tuple[int, int]:
    """Predict (reg, depth) of S/(I+J)^t for ideals on disjoint variable sets
    from the quotient-level (reg, depth) of the component powers up to t."""
    powers1 = list(powers1)
    powers2 = list(powers2)
    if t < 1:
        raise ValueError("t must be positive")
    if len(powers1) < t or len(powers2) < t:
        raise ValueError("component tables are incomplete up to t")
    r1 = [None] + [rd[0] for rd in powers1]
    d1 = [None] + [rd[1] for rd in powers1]
    r2 = [None] + [rd[0] for rd in powers2]
    d2 = [None] + [rd[1] for rd in powers2]
    reg_candidates = []
    depth_candidates = []
    for i in range(1, t):
        reg_candidates.append(r1[t - i] + r2[i] + 1)
        depth_candidates.append(d1[t - i] + d2[i] + 1)
    for j in range(1, t + 1):
        reg_candidates.append(r1[t - j + 1] + r2[j])
        depth_candidates.append(d1[t - j + 1] + d2[j])
    return max(reg_candidates), min(depth_candidates)
