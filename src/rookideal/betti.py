"""Graded Betti tables of monomial ideals and the invariants derived from them.

Two independent routes produce the table of an ideal:

* the squarefree route sums reduced homology of restrictions of the
  monomial-free complex over the union-closure of the generator supports;
* the general route walks the join-closure (lcm lattice) of the generator
  exponent vectors and takes reduced homology of the upper Koszul subcomplex
  at each lattice point.

Both sweeps accept an optional symmetry group (variable permutations fixing
the generator set); orbits then share one homology computation. Multidegree
jobs can be fanned out over processes; the reduction is a plain sum, so the
result is schedule independent.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field

from .complexes import sr_complex_of_ideal
from .homology import DEFAULT_FIELD, GF2, FieldSpec, betti_of_face_masks, faces_by_dim_masks
from .monomials import MonomialIdeal, min_gens

_TABLE_CACHE: dict[tuple, "BettiTable"] = {}


def clear_table_cache():
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
# lattices, symmetry orbits, sweep workers


def _union_closure(masks) -> list[int]:
    masks = sorted(set(masks))
    lattice = set(masks)
    frontier = list(masks)
    while frontier:
        fresh = []
        for b in frontier:
            for g in masks:
                j = b | g
                if j not in lattice:
                    lattice.add(j)
                    fresh.append(j)
        frontier = fresh
    return sorted(lattice)


def _join_closure(vectors) -> list[tuple[int, ...]]:
    vectors = sorted(set(vectors))
    lattice = set(vectors)
    frontier = list(vectors)
    while frontier:
        fresh = []
        for b in frontier:
            for g in vectors:
                j = tuple(map(max, b, g))
                if j not in lattice:
                    lattice.add(j)
                    fresh.append(j)
        frontier = fresh
    return sorted(lattice)


def _apply_perm_mask(perm, mask: int) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def _apply_perm_vec(perm, vec) -> tuple[int, ...]:
    out = [0] * len(vec)
    for i, e in enumerate(vec):
        if e:
            out[perm[i]] = e
    return tuple(out)


def _check_symmetries(items: set, perms, apply) -> None:
    for perm in perms:
        if {apply(perm, x) for x in items} != items:
            raise ValueError("symmetry does not fix the generating set")


def _orbit_jobs(lattice, perms, apply) -> list[tuple[object, int]]:
    """Collapse the lattice into (representative, orbit size) jobs."""
    if not perms:
        return [(x, 1) for x in lattice]
    seen: set = set()
    jobs = []
    for x in lattice:
        if x in seen:
            continue
        orbit = {apply(p, x) for p in perms}
        orbit.add(x)
        jobs.append((x, len(orbit)))
        seen |= orbit
    return jobs


def _hochster_chunk(delta_facets, jobs, p: int) -> dict:
    field = FieldSpec(p)
    out: dict[tuple[int, int], int] = {}
    for sigma, weight in jobs:
        size = bin(sigma).count("1")
        restricted = {f & sigma for f in delta_facets}
        for d, v in betti_of_face_masks(faces_by_dim_masks(restricted), field).items():
            if not v:
                continue
            i = size - d - 2
            if i >= 0:
                key = (i, size)
                out[key] = out.get(key, 0) + v * weight
    return out


def _koszul_chunk(gen_vectors, jobs, p: int) -> dict:
    field = FieldSpec(p)
    out: dict[tuple[int, int], int] = {}
    for b, weight in jobs:
        facets = set()
        for g in gen_vectors:
            if all(ge <= be for ge, be in zip(g, b)):
                mask = 0
                for idx, (ge, be) in enumerate(zip(g, b)):
                    if be > ge:
                        mask |= 1 << idx
                facets.add(mask)
        if not facets:
            continue
        deg = sum(b)
        for d, v in betti_of_face_masks(faces_by_dim_masks(facets), field).items():
            if v:
                key = (d + 1, deg)
                out[key] = out.get(key, 0) + v * weight
    return out


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
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("need a nonzero proper ideal")
    key = _cache_key(ideal, field, "hochster")
    if key in _TABLE_CACHE:
        return _TABLE_CACHE[key]
    full = (1 << ideal.ambient.count) - 1
    delta_facets = tuple(
        full & ~_mask_of_indices(p) for p in ideal.minimal_primes()
    )
    gen_masks = [g.support_mask() for g in ideal.gens]
    if symmetries:
        _check_symmetries(set(gen_masks), symmetries, _apply_perm_mask)
    lattice = _union_closure(gen_masks)
    jobs = _orbit_jobs(lattice, symmetries, _apply_perm_mask)
    entries = _map_chunks(_hochster_chunk, delta_facets, jobs, field.characteristic, threads)
    table = BettiTable("ideal", ideal.ambient.count, field, entries)
    _TABLE_CACHE[key] = table
    return table


def betti_table_koszul(
    ideal: MonomialIdeal,
    field: FieldSpec = DEFAULT_FIELD,
    symmetries=None,
    threads: int = 1,
) -> BettiTable:
    """Betti table of any monomial ideal via upper Koszul subcomplexes over the
    lcm lattice of the generators."""
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("need a nonzero proper ideal")
    key = _cache_key(ideal, field, "koszul")
    if key in _TABLE_CACHE:
        return _TABLE_CACHE[key]
    gen_vectors = tuple(g.exponents for g in ideal.gens)
    if symmetries:
        _check_symmetries(set(gen_vectors), symmetries, _apply_perm_vec)
    lattice = _join_closure(gen_vectors)
    jobs = _orbit_jobs(lattice, symmetries, _apply_perm_vec)
    entries = _map_chunks(_koszul_chunk, gen_vectors, jobs, field.characteristic, threads)
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


def _cache_key(ideal: MonomialIdeal, field: FieldSpec, route: str):
    return (
        ideal.ambient.labels,
        tuple(g.exponents for g in ideal.gens),
        field.characteristic,
        route,
    )


def _mask_of_indices(indices) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


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
