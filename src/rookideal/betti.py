"""Graded Betti tables of monomial ideals and the invariants derived from them.

Two independent routes produce the table of an ideal:

* the squarefree route sums reduced homology of restrictions of the
  monomial-free complex over the union-closure of the generator supports;
* the general route walks the join-closure (lcm lattice) of the generator
  exponent vectors and takes reduced homology of the upper Koszul subcomplex
  at each lattice point.

Both sweeps accept an optional symmetry group (variable permutations fixing
the generator set, closed under composition; repeats are allowed); orbits
then share one homology computation. A list that is not closed under
composition raises ValueError: its image sets are not orbits, so their
sizes would weigh the jobs wrongly.

A table is a sweep plan evaluated at a prime. The plan is the part that does
not depend on the field: the symmetry check, the lattice points (exponent
vectors packed into one int each, joined by a SWAR max), one job per orbit
and each orbit's complex, degree and size. Without symmetries the lattice is
closed a generator at a time and every point is a job. With symmetries the
lattice is never closed or sorted: the sweep starts from the generators'
orbits and joins each new orbit representative with every generator, and a
point is mapped through every permutation by per-chunk image tables (the
images of every 4-bit chunk value under every permutation, built once). Both
inner loops apply one point to a fixed list, so the list is packed once into
64-bit lanes of one int (wider lanes for points past 64 bits): a
representative is joined with every generator, and a point mapped through
every permutation, by a few big-int operations and one unpack. The symmetry
check tests only the permutations that generate the group. Each complex
is cut to its strong core: dominated vertices (another vertex lies in every
facet through them) are deleted one at a time, which keeps the homotopy type
and so the reduced homology over every field, and a job whose core is a point
is dropped. A core that is a join of simplex boundaries is a sphere, with one
copy of the field in a dimension its vertex and part counts give; the plan
adds such jobs to the table in closed form, the same for every field. Every
other core is kept once, with the (degree, orbit size) of each job that has
it, and is reduced once per field. The last plan built is kept, so a report
cross-checked at 32003 and GF(2) builds it once; clear_table_cache() drops it
with the cached tables. The minimal primes (their complements are the facets
of the squarefree route's complex; their sizes give a report's height, dim
and bight) are not kept: each call finds them afresh by Berge's sequential
transversal method. The distinct cores can be fanned out over processes; the
reduction is a plain sum, so the result is schedule independent.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
import time
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

from .complexes import sr_complex_of_ideal
from .homology import DEFAULT_FIELD, GF2, FieldSpec, betti_of_face_masks, faces_by_dim_masks
from .monomials import MonomialIdeal, _mask_of, min_gens

_TABLE_CACHE: dict[tuple, "BettiTable"] = {}


def clear_table_cache():
    """Forget every cached table and the kept sweep plan."""
    _TABLE_CACHE.clear()
    _PLAN_MEMO.clear()


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

    def depth(self, ambient: int | None = None) -> int:
        if self.subject != "quotient":
            raise ValueError("depth is read off the quotient table")
        return (ambient if ambient is not None else self.ambient) - self.pd()

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

    def __hash__(self):
        return hash((self.subject, self.ambient, self.field, tuple(sorted(self.entries.items()))))

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


def _unpack(packed: int, width: int, count: int) -> tuple[int, ...]:
    low = (1 << width) - 1
    return tuple((packed >> at) & low for at in _vector_offsets(width, count))


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


def _join_closure(gens: list[int], width: int, count: int) -> list[int]:
    """The lcm lattice of packed exponent vectors: their closure under
    coordinatewise max, sorted."""
    return _closure(gens, _swar_joins(width, count))


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
    """The image tables of the distinct permutations in ``perms`` (see
    _image_tables); None without permutations. Raises ValueError unless the
    permutations are closed under composition and every generator of the
    group they form (see _require_group) is a permutation of the variables
    that fixes the generating set: the sweep weighs each orbit
    representative by the size of its image set, which counts the orbit only
    when the permutations form a group. Every member is a product of those
    generators, so the generators alone show that every member is a
    permutation and fixes the set."""
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

    _require_group(perms, count, admit)
    return _image_tables(list(dict.fromkeys(map(tuple, perms))), width, offsets)


def _require_group(perms, count: int, admit) -> None:
    """Raise ValueError unless the permutations (repeats allowed) are closed
    under composition. The group they generate is grown by Dimino's method:
    a permutation not reached yet becomes a generator, is passed to admit
    (which may raise) before anything is composed with it, and adds the
    right cosets of the group so far, found by multiplying each coset
    representative by every generator, so growing the group takes
    O(|group| * |generators|) compositions. The first product outside the
    list raises; so does a list without the identity."""
    members = set(map(tuple, perms))
    identity = tuple(range(count))
    group = [identity]
    reached = {identity}

    def add_coset(subgroup, x):
        # the right coset {h x : h in subgroup}, x first (h = identity);
        # (h x)[i] = h[x[i]]
        after_x = operator.itemgetter(*x)
        for h in subgroup:
            y = after_x(h)
            if y not in members:
                raise ValueError("symmetries are not closed under composition")
            group.append(y)
            reached.add(y)

    gens = []  # itemgetters: times_t(r) = r t
    for s in members:
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
    if identity not in members:
        raise ValueError("symmetries are not closed under composition: the identity is missing")


def _orbit_jobs(gens, join, images) -> list[tuple[int, int]]:
    """The closure of the generators under the join as (representative,
    orbit size) jobs, sorted; a representative is the least point of its
    orbit. Without symmetries ``join`` is a scalar join (see _closure) and
    every point of the closure is its own job.

    With symmetries ``join`` is a lane builder (see _lane_unions), and the
    closure is never built: the sweep starts from the generators' orbits and
    joins each new representative r with every generator, through the lanes
    it packs once; a point not yet seen starts a new orbit. This reaches every orbit: the closure is made
    of joins x v g with x in it, and if x = pi(r) then x v g =
    pi(r v pi^-1(g)), where pi^-1(g) is again a generator."""
    if images is None:
        return [(x, 1) for x in _closure(gens, join)]
    gens = set(gens)
    join_all = join(gens)
    seen: set[int] = set()
    jobs = []
    pending = list(gens)
    while pending:
        x = pending.pop()
        if x in seen:
            continue
        orbit = set(images(x))
        orbit.add(x)
        seen |= orbit
        rep = min(orbit)
        jobs.append((rep, len(orbit)))
        pending.extend(set(join_all(rep)) - seen)
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
    the irrelevant complex (0,) has no vertex and is its own core."""
    core: list[int] = []
    for f in sorted(set(facets), key=int.bit_count, reverse=True):
        for g in core:
            if f & g == f:
                break
        else:
            core.append(f)
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


class _SweepPlan(NamedTuple):
    """The field-independent part of a table. ``spheres`` holds the table
    entries, {(i, degree): multiplicity}, of the jobs whose strong core is a
    join of simplex boundaries, the same over every field; ``cores`` lists
    every other distinct core once, as (core facet masks, [(degree, orbit
    size), ...] of the jobs that have that core)."""

    spheres: dict[tuple[int, int], int]
    cores: list[tuple[tuple[int, ...], list[tuple[int, int]]]]


def _gather(route: str, jobs) -> _SweepPlan:
    """The plan of a route's (facet masks, degree, orbit size) jobs: each
    complex is cut to its strong core; a point adds nothing, a sphere adds
    its closed form, and every other core is kept once with all its
    placements."""
    spheres: dict[tuple[int, int], int] = {}
    cores: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for facets, degree, weight in jobs:
        core = _strong_core(facets)
        if core is None:
            continue
        d = _sphere_dimension(core)
        if d is None:
            cores.setdefault(core, []).append((degree, weight))
            continue
        i = _homological_index(route, degree, d)
        if i >= 0:
            spheres[(i, degree)] = spheres.get((i, degree), 0) + weight
    return _SweepPlan(spheres, list(cores.items()))


# The last plan built is kept, so that the second field of a cross-checked
# report reuses it. Only the core facets are kept; their faces are
# enumerated again per field, so a plan stays small.
_PLAN_MEMO: dict[tuple, _SweepPlan] = {}


def _hochster_plan(ideal: MonomialIdeal, symmetries) -> _SweepPlan:
    count = ideal.ambient.count
    full = (1 << count) - 1
    delta_facets = {full & ~_mask_of(p) for p in ideal.minimal_primes()}
    gens = [g.support_mask() for g in ideal.gens]
    images = _symmetry_images(gens, symmetries, 1, list(range(count)))
    return _gather(
        "hochster",
        (
            ({f & sigma for f in delta_facets}, sigma.bit_count(), weight)
            for sigma, weight in _orbit_jobs(gens, _unions if images is None else _lane_unions, images)
        ),
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
    # the guard bits of the nonzero fields of b - g -> the mask of those variables
    masks: dict[int, int] = {}
    jobs = []
    join = _swar_joins(width, count) if images is None else _lane_swar_joins(width, count)
    for b, weight in _orbit_jobs(gens, join, images):
        bg = b | guards
        facets = []
        # the upper Koszul complex at b has a facet {i : b_i > g_i} for each g | b
        divisors = [g for g in gens if (bg - g) & guards == guards]
        for nonzero in {(((b - g) | guards) - ones) & guards for g in divisors}:
            mask = masks.get(nonzero)
            if mask is None:
                mask = masks[nonzero] = sum(
                    1 << i for i, at in enumerate(offsets) if (nonzero >> (at + width - 1)) & 1
                )
            facets.append(mask)
        jobs.append((facets, sum(_unpack(b, width, count)), weight))
    return _gather("koszul", jobs)


def _sweep_plan(route: str, ideal: MonomialIdeal, symmetries) -> _SweepPlan:
    key = (
        route,
        ideal.ambient.labels,
        tuple(g.exponents for g in ideal.gens),
        tuple(map(tuple, symmetries or ())),
    )
    plan = _PLAN_MEMO.get(key)
    if plan is None:
        build = _hochster_plan if route == "hochster" else _koszul_plan
        plan = build(ideal, symmetries)
        _PLAN_MEMO.clear()
        _PLAN_MEMO[key] = plan
    return plan


def _sweep_chunk(route: str, cores, p: int) -> dict:
    """The table entries over GF(p) of some of a plan's distinct cores: each
    core is reduced once, and each of its reduced Betti numbers v counts
    v * orbit size at every placement (degree, orbit size) of the core, in
    the homological degree _homological_index gives."""
    field = FieldSpec(p)
    out: dict[tuple[int, int], int] = {}
    for facets, placements in cores:
        for d, v in betti_of_face_masks(faces_by_dim_masks(facets), field).items():
            if not v:
                continue
            for degree, weight in placements:
                i = _homological_index(route, degree, d)
                if i >= 0:
                    key = (i, degree)
                    out[key] = out.get(key, 0) + v * weight
    return out


# the names the two routes look the worker up under, so that either can be
# replaced on its own
_hochster_chunk = _koszul_chunk = _sweep_chunk


def _map_chunks(worker, static, jobs, p: int, threads: int) -> dict:
    if threads <= 1 or len(jobs) < 8 * threads:
        parts = [worker(static, jobs, p)]
    else:
        nchunks = threads * 4
        chunks = [jobs[k::nchunks] for k in range(nchunks)]
        chunks = [c for c in chunks if c]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(
                pool.map(worker, itertools.repeat(static), chunks, itertools.repeat(p))
            )
    total: dict[tuple[int, int], int] = {}
    for part in parts:
        for key, v in part.items():
            total[key] = total.get(key, 0) + v
    return total


# ---------------------------------------------------------------------------
# table construction


def betti_table_hochster(
    ideal: MonomialIdeal,
    field: FieldSpec = DEFAULT_FIELD,
    symmetries=None,
    threads: int = 1,
) -> BettiTable:
    """Betti table of a squarefree ideal via restrictions of its monomial-free
    complex, swept over the union closure of the generator supports."""
    if not ideal.is_squarefree:
        raise ValueError("the restriction sweep requires a squarefree ideal")
    return _planned_table("hochster", ideal, field, symmetries, threads)


def betti_table_koszul(
    ideal: MonomialIdeal,
    field: FieldSpec = DEFAULT_FIELD,
    symmetries=None,
    threads: int = 1,
) -> BettiTable:
    """Betti table of any monomial ideal via upper Koszul subcomplexes over the
    lcm lattice of the generators."""
    return _planned_table("koszul", ideal, field, symmetries, threads)


def _planned_table(route: str, ideal: MonomialIdeal, field: FieldSpec, symmetries, threads: int):
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("need a nonzero proper ideal")
    key = _cache_key(ideal, field, route, symmetries)
    if key in _TABLE_CACHE:
        return _TABLE_CACHE[key]
    plan = _sweep_plan(route, ideal, symmetries)
    worker = _hochster_chunk if route == "hochster" else _koszul_chunk
    entries = _map_chunks(worker, route, plan.cores, field.characteristic, threads)
    for entry, v in plan.spheres.items():
        entries[entry] = entries.get(entry, 0) + v
    table = BettiTable("ideal", ideal.ambient.count, field, entries)
    _TABLE_CACHE[key] = table
    return table


def betti_table(
    ideal: MonomialIdeal,
    field: FieldSpec = DEFAULT_FIELD,
    route: str = "auto",
    symmetries=None,
    threads: int = 1,
) -> BettiTable:
    if route == "auto":
        route = "hochster" if ideal.is_squarefree else "koszul"
    if route == "hochster":
        return betti_table_hochster(ideal, field, symmetries, threads)
    if route == "koszul":
        return betti_table_koszul(ideal, field, symmetries, threads)
    raise ValueError(f"unknown route {route!r}")


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
# Hilbert series and a-invariant (squarefree quotients, via the f-vector)


@dataclass(frozen=True)
class HilbertSeries:
    """Series of a quotient as numerator over (1 - t)^denominator_power, in
    lowest terms."""

    numerator: tuple[int, ...]
    denominator_power: int

    @property
    def a_invariant(self) -> int:
        return len(self.numerator) - 1 - self.denominator_power

    def __str__(self):
        terms = []
        for k, c in enumerate(self.numerator):
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                coeff = "" if c == 1 else ("-" if c == -1 else str(c))
                terms.append(f"{coeff}t" + (f"^{k}" if k > 1 else ""))
        num = " + ".join(terms).replace("+ -", "- ") if terms else "0"
        if self.denominator_power == 0:
            return num
        return f"({num})/(1 - t)^{self.denominator_power}"


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


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


def hilbert_series(ideal: MonomialIdeal, ambient_count: int | None = None) -> HilbertSeries:
    """Hilbert series of the squarefree quotient from the f-vector of its
    monomial-free complex; extra ambient variables only extend the denominator."""
    if not ideal.is_squarefree:
        raise ValueError("Hilbert series route requires a squarefree ideal")
    if ideal.is_unit:
        raise ValueError("the unit ideal has no Hilbert series here")
    if ambient_count is None:
        ambient_count = ideal.ambient.count
    extra = ambient_count - ideal.ambient.count
    if extra < 0:
        raise ValueError("declared ambient smaller than the ideal's variable set")
    cx = sr_complex_of_ideal(ideal)
    by_dim = faces_by_dim_masks(cx.facet_masks())
    top = max(by_dim) + 1  # largest face size = Krull dimension of the quotient
    numerator = [0] * (top + 1)
    for d, faces in by_dim.items():
        s = d + 1
        term = _poly_mul([0] * s + [len(faces)], _poly_power_one_minus_t(top - s))
        for k, c in enumerate(term):
            numerator[k] += c
    denom = top + extra
    while len(numerator) > 1 and numerator[-1] == 0:
        numerator = numerator[:-1]
    while denom > 0 and sum(numerator) == 0:
        numerator = _poly_div_one_minus_t(numerator)
        denom -= 1
        while len(numerator) > 1 and numerator[-1] == 0:
            numerator = numerator[:-1]
    return HilbertSeries(tuple(numerator), denom)


def _poly_power_one_minus_t(k: int) -> list[int]:
    out = [1]
    for _ in range(k):
        out = _poly_mul(out, [1, -1])
    return out


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
    a_invariant: int | None
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
    route: str = "auto",
    symmetries=None,
    threads: int = 1,
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
    table = betti_table(ideal, field, route, symmetries, threads)
    quotient = table.quotient()
    reg = quotient.reg()
    pd = quotient.pd()
    depth = ambient_count - pd
    primes = ideal.radical().minimal_primes()
    sizes = [len(p) for p in primes]
    height = min(sizes)
    bight = max(sizes)
    dim = ambient_count - height
    if depth > dim:
        raise ArithmeticError(
            f"depth {depth} exceeds dim {dim}; the table or the primes are wrong"
        )
    a_inv = None
    if ideal.is_squarefree:
        a_inv = hilbert_series(ideal, ambient_count).a_invariant
    warning = False
    if cross_check:
        other = GF2 if field.characteristic != 2 else DEFAULT_FIELD
        other_table = betti_table(ideal, other, route, symmetries, threads)
        warning = other_table.entries != table.entries
    return InvariantReport(
        reg=reg,
        pd=pd,
        depth=depth,
        dim=dim,
        height=height,
        bight=bight,
        a_invariant=a_inv,
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
    threads: int = 1,
) -> bool:
    """pd(S/I) == reg of the Alexander dual, both sides computed from scratch
    through the lattice route."""
    ideal._require_squarefree_proper()
    pd_quotient = betti_table_koszul(ideal, field, symmetries, threads).quotient().pd()
    reg_dual = betti_table_koszul(ideal.alexander_dual(), field, symmetries, threads).reg()
    return pd_quotient == reg_dual


def private_variable_reg(ideal: MonomialIdeal) -> int | None:
    """|support| - |generators| + 1 when every generator of a squarefree ideal
    owns a variable dividing no other generator; None otherwise."""
    if ideal.is_zero or ideal.is_unit or not ideal.is_squarefree:
        return None
    for g in ideal.gens:
        others = [h for h in ideal.gens if h is not g]
        if not any(all(v not in h.support() for h in others) for v in g.support()):
            return None
    return len(ideal.support()) - len(ideal.gens) + 1


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


def _reg_for_bound(ideal: MonomialIdeal, field: FieldSpec, threads: int) -> int | None:
    """Ideal-level regularity with the conventions the recursions need:
    the unit ideal drops out (None), the zero ideal counts as reg(S) + 1."""
    if ideal.is_unit:
        return None
    if ideal.is_zero:
        return 1
    return betti_table(ideal, field, "auto", None, threads).reg()


def colon_sequence_reg_bound(
    ideal: MonomialIdeal,
    order,
    mode: str,
    field: FieldSpec = DEFAULT_FIELD,
    threads: int = 1,
) -> tuple[int, tuple[ColonStep, ...]]:
    """Replay a colon recursion and return the max-formula regularity bound.

    mode='add' adjoins the monomials one at a time, each step contributing
    reg(J : f) + deg f; mode='peel' removes the generators of the ideal in the
    given order, each step contributing reg(J : u) + deg u - 1. The returned
    bound always dominates reg(I).
    """
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("need a nonzero proper ideal")
    order = list(order)
    for f in order:
        if f.ambient != ideal.ambient:
            raise ValueError("order monomial over a different variable set")
    trace: list[ColonStep] = []
    terms: list[int] = []
    if mode == "add":
        current = ideal
        for idx, f in enumerate(order, start=1):
            colon = current.colon(f)
            creg = _reg_for_bound(colon, field, threads)
            term = None if creg is None else creg + f.degree
            trace.append(ColonStep(idx, str(f), f.degree, creg, term))
            if term is not None:
                terms.append(term)
            current = current + min_gens([f], ideal.ambient)
        tail = _reg_for_bound(current, field, threads)
    elif mode == "peel":
        if sorted(m.exponents for m in order) != sorted(g.exponents for g in ideal.gens):
            raise ValueError("peel order must list the minimal generators exactly")
        for idx, u in enumerate(order, start=1):
            rest = min_gens(order[idx:], ideal.ambient)
            colon = rest.colon(u)
            creg = _reg_for_bound(colon, field, threads)
            term = None if creg is None else creg + u.degree - 1
            trace.append(ColonStep(idx, str(u), u.degree, creg, term))
            if term is not None:
                terms.append(term)
        tail = _reg_for_bound(MonomialIdeal.zero(ideal.ambient), field, threads)
    else:
        raise ValueError(f"unknown mode {mode!r}")
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
