"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the library's production code paths:
covers come from full subset enumeration, Betti numbers of two-generator
ideals from the short Taylor resolution, powers from naive product
expansion, lcm lattices from pairwise joins of plain tuples, strong cores
from deleting the lowest dominated vertex of plain sets, Hilbert series
from the f-vector of the Stanley-Reisner complex (of the polarization, for an
ideal that is not squarefree) rather than from a Betti table, boundary ranks
from dense Gaussian elimination of each boundary map alone, and so on. The
Stanley-Reisner complex of an ideal is read off the library's minimal primes,
which the cover tests check against subset enumeration.
"""

import itertools

from rookideal import Monomial, SimplicialComplex, VariableSet, min_gens


def _mask(face):
    return sum(1 << v for v in face)


def faces(facets, d):
    """The d-faces (vertex tuples) of the complex with the given facets, in
    increasing mask order; d = -1 gives the empty face of a non-void complex."""
    found = {c for f in facets for c in itertools.combinations(sorted(f), d + 1)}
    return sorted(found, key=_mask)


def face_masks(by_dim, d):
    """The d-face masks held by a rookideal.homology face layer, ascending:
    a FaceSets level is a set of masks, and bit s of a FaceBitmaps level is
    the mask with vertex j of the complex wherever s has bit j."""
    if d not in by_dim:
        return []
    level = by_dim.levels[d + 1]
    if isinstance(level, set):
        return sorted(level)
    return [
        sum(v for j, v in enumerate(by_dim.vertices) if s >> j & 1)
        for s in range(level.bit_length())
        if level >> s & 1
    ]


def boundary_matrix(facets, d, field):
    """The d-th boundary map of the augmented chain complex as dense rows mod
    p: rows the (d-1)-faces, columns the d-faces, both in the order of
    ``faces``, and the entry of a d-face at the face without its k-th vertex
    (counted from 0, lowest first) is (-1)^k."""
    p = field.characteristic
    rows = {face: i for i, face in enumerate(faces(facets, d - 1))}
    cols = faces(facets, d)
    out = [[0] * len(cols) for _ in rows]
    for j, face in enumerate(cols):
        for k in range(len(face)):
            out[rows[face[:k] + face[k + 1 :]]][j] = (-1) ** k % p
    return out


def rank(rows, field):
    """Rank of a dense matrix over GF(p) by Gaussian elimination."""
    p = field.characteristic
    rows = [[v % p for v in row] for row in rows]
    found = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(found, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[found], rows[pivot] = rows[pivot], rows[found]
        top = rows[found]
        inv = pow(top[c], -1, p)
        support = [k for k in range(c, len(top)) if top[k]]  # zeros change nothing
        for row in rows[found + 1 :]:
            if row[c]:
                f = row[c] * inv % p
                for k in support:
                    row[k] = (row[k] - f * top[k]) % p
        found += 1
    return found


def plain_betti(facets, field):
    """Reduced Betti numbers b~_d = f_d - r_d - r_{d+1}, d = -1 .. dim, from
    the rank of each boundary map alone ({} for the void complex)."""
    if not facets:
        return {}
    top = max(len(f) for f in facets) - 1
    ranks = {d: rank(boundary_matrix(facets, d, field), field) for d in range(top + 1)}
    return {
        d: len(faces(facets, d)) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        for d in range(-1, top + 1)
    }


def induced(cx, subset):
    """The induced subcomplex on a vertex subset: the faces inside it."""
    if cx.is_void:
        return cx
    inside = set(subset)
    return SimplicialComplex.from_facets(cx.vertices, [set(f) & inside for f in cx.facets])


def stanley_reisner_complex(ideal):
    """The complex of the monomial-free vertex sets of a squarefree ideal:
    its facets are the complements of the minimal primes (the whole vertex
    set for the zero ideal)."""
    everything = set(range(ideal.ambient.count))
    if ideal.is_zero:
        return SimplicialComplex.from_facets(ideal.ambient, [everything])
    return SimplicialComplex.from_facets(
        ideal.ambient, [everything - set(p) for p in ideal.minimal_primes()]
    )


def nonface_ideal(cx):
    """The Stanley-Reisner ideal of a complex, from brute-force non-faces."""
    n = cx.vertices.count
    return min_gens(
        [Monomial.from_support(cx.vertices, nf) for nf in brute_minimal_nonfaces(cx.facets, n)],
        cx.vertices,
    )


def brute_force_minimal_covers(facets, nverts):
    """All inclusion-minimal transversals by exhaustive subset enumeration."""
    facet_sets = [frozenset(f) for f in facets]
    covers = []
    for size in range(nverts + 1):
        for combo in itertools.combinations(range(nverts), size):
            chosen = set(combo)
            if all(chosen & f for f in facet_sets):
                if not any(set(c) <= chosen for c in covers):
                    covers.append(tuple(sorted(combo)))
    return sorted(covers)


def naive_min_gens(monomials):
    """Quadratic divisibility pruning, written independently."""
    uniq = []
    for m in monomials:
        if all(m.exponents != u.exponents for u in uniq):
            uniq.append(m)
    kept = []
    for m in uniq:
        if not any(u.exponents != m.exponents and u.divides(m) for u in uniq):
            kept.append(m)
    return sorted(kept, key=lambda m: m.sort_key())


def naive_power(ideal, t):
    """All degree-t products of generators, then pruning."""
    prods = [
        _product(combo, ideal.ambient)
        for combo in itertools.combinations_with_replacement(ideal.gens, t)
    ]
    return min_gens(naive_min_gens(prods), ideal.ambient)


def _product(monomials, ambient):
    out = Monomial.unit(ambient)
    for m in monomials:
        out = out * m
    return out


def lcm(u, v):
    """The least common multiple of two monomials over one variable set."""
    assert u.ambient == v.ambient
    return Monomial(u.ambient, tuple(max(a, b) for a, b in zip(u.exponents, v.exponents)))


def taylor_two_generators(ideal):
    """Betti table of a two-generator ideal from its Taylor resolution,
    which is minimal whenever the generators form an antichain:
    0 -> S(-lcm) -> S(-u) + S(-v) -> I -> 0."""
    u, v = ideal.gens
    entries = {}
    for g in (u, v):
        entries[(0, g.degree)] = entries.get((0, g.degree), 0) + 1
    top = lcm(u, v).degree
    entries[(1, top)] = entries.get((1, top), 0) + 1
    return entries


def contains(ideal, m):
    """Whether the monomial ideal holds the monomial: some generator divides
    it, exponent by exponent."""
    assert m.ambient == ideal.ambient
    return any(all(a <= b for a, b in zip(g.exponents, m.exponents)) for g in ideal.gens)


def membership_faces(ideal, subset):
    """Faces of the monomial-free complex inside a vertex subset, from the
    definition: a set is a face iff its squarefree product avoids the ideal."""
    out = []
    for size in range(len(subset) + 1):
        for combo in itertools.combinations(sorted(subset), size):
            if not contains(ideal, Monomial.from_support(ideal.ambient, combo)):
                out.append(combo)
    return out


def brute_minimal_nonfaces(complex_facets, nverts):
    """Minimal subsets not contained in any facet, by subset sweep."""
    facet_sets = [frozenset(f) for f in complex_facets]
    nonfaces = []
    for size in range(nverts + 1):
        for combo in itertools.combinations(range(nverts), size):
            chosen = set(combo)
            if any(chosen <= f for f in facet_sets):
                continue
            if not any(set(nf) <= chosen for nf in nonfaces):
                nonfaces.append(combo)
    return sorted(nonfaces)


def full_subset_hochster(ideal, field):
    """Betti entries of a squarefree ideal by summing restriction homology
    over every vertex subset, with no lattice filtering."""
    from rookideal.homology import reduced_betti

    delta = stanley_reisner_complex(ideal)
    n = ideal.ambient.count
    entries = {}
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            betti = reduced_betti(induced(delta, combo), field)
            for d, value in betti.items():
                i = size - d - 2
                if value and i >= 0:
                    key = (i, size)
                    entries[key] = entries.get(key, 0) + value
    return entries


def tuple_join_closure(vectors):
    """The lcm lattice of exponent tuples: join every pair of points with a
    coordinatewise max until nothing new appears; sorted."""
    lattice = set(vectors)
    while True:
        fresh = {tuple(map(max, a, b)) for a in lattice for b in lattice} - lattice
        if not fresh:
            return sorted(lattice)
        lattice |= fresh


def unpack(packed, width, count):
    """The exponent tuple of a packed point: count fields of width bits, the
    first variable in the most significant one."""
    out = []
    for _ in range(count):
        out.append(packed % (1 << width))
        packed //= 1 << width
    return tuple(reversed(out))


def strong_core(facets):
    """The strong core by the definition: while more than one facet is left,
    delete the lowest dominated vertex (one for which another vertex lies in
    every facet through it) and keep the maximal faces. None when the core is
    one nonempty facet, a point; else the sorted facet masks."""
    faces = {frozenset(v for v in range(m.bit_length()) if m >> v & 1) for m in facets}
    while True:
        faces = {f for f in faces if not any(f < g for g in faces)}
        if len(faces) <= 1:
            break
        for v in sorted(set().union(*faces)):
            if frozenset.intersection(*(f for f in faces if v in f)) - {v}:
                break
        else:
            break
        faces = {f - {v} for f in faces}
    if len(faces) == 1 and next(iter(faces)):
        return None
    return tuple(sorted(sum(1 << v for v in f) for f in faces))


def permute_packed(point, perm, width, offsets):
    """One permutation applied to one packed point, field by field: the w-bit
    field of variable i sits at bit offsets[i] and moves to offsets[perm[i]]."""
    out = 0
    for i, at in enumerate(offsets):
        value = (point >> at) % (1 << width)
        out += value * (1 << offsets[perm[i]])
    return out


def f_vector_series(ideal, ambient_count=None):
    """Hilbert series of a squarefree quotient from the f-vector of its
    Stanley-Reisner complex: sum over faces of size s of t^s (1 - t)^(D - s)
    over (1 - t)^D, D the largest face size, with one more power of 1 - t per
    variable outside the ideal's set. Returns (numerator, denominator power)
    in lowest terms."""
    from rookideal.homology import faces_by_dim_masks

    if ambient_count is None:
        ambient_count = ideal.ambient.count
    by_dim = faces_by_dim_masks(stanley_reisner_complex(ideal).facet_masks())
    top = max(by_dim) + 1
    numerator = [0] * (top + 1)
    for d, faces in by_dim.items():
        term = [0] * (d + 1) + [len(faces)]
        for _ in range(top - d - 1):
            term = [a - b for a, b in zip(term + [0], [0] + term)]  # times 1 - t
        for k, c in enumerate(term):
            numerator[k] += c
    denom = top + ambient_count - ideal.ambient.count
    # divide out 1 - t while t = 1 is a root: synthetic division at 1
    while denom > 0 and sum(numerator) == 0:
        numerator = list(itertools.accumulate(numerator[:-1]))
        denom -= 1
    while len(numerator) > 1 and numerator[-1] == 0:
        numerator.pop()
    return tuple(numerator), denom


def polarization(ideal):
    """Squarefree polarization: variable i with largest exponent e among the
    generators becomes e variables (at least one), and x_i^a becomes the
    product of the first a of them. Returns (polarized ideal, number of
    added variables); S/I and its polarization have the same Betti table,
    and their Hilbert series differ by (1 - t)^(added) in the denominator."""
    n = ideal.ambient.count
    tops = [max([g.exponents[i] for g in ideal.gens] + [1]) for i in range(n)]
    starts = list(itertools.accumulate([0] + tops[:-1]))
    ambient = VariableSet.generic(sum(tops))
    gens = [
        Monomial.from_support(
            ambient, [starts[i] + k for i, e in enumerate(g.exponents) for k in range(e)]
        )
        for g in ideal.gens
    ]
    return min_gens(gens, ambient), sum(tops) - n
