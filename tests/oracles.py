"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the library's production code paths:
covers come from full subset enumeration, Betti numbers of two-generator
ideals from the short Taylor resolution, powers from naive product
expansion, lcm lattices from pairwise joins of plain tuples, and so on.
"""

import itertools

from rookideal import Monomial, MonomialIdeal, min_gens


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


def taylor_two_generators(ideal):
    """Betti table of a two-generator ideal from its Taylor resolution,
    which is minimal whenever the generators form an antichain:
    0 -> S(-lcm) -> S(-u) + S(-v) -> I -> 0."""
    u, v = ideal.gens
    entries = {}
    for g in (u, v):
        entries[(0, g.degree)] = entries.get((0, g.degree), 0) + 1
    entries[(1, u.lcm(v).degree)] = entries.get((1, u.lcm(v).degree), 0) + 1
    return entries


def membership_faces(ideal, subset):
    """Faces of the monomial-free complex inside a vertex subset, from the
    definition: a set is a face iff its squarefree product avoids the ideal."""
    out = []
    for size in range(len(subset) + 1):
        for combo in itertools.combinations(sorted(subset), size):
            if not ideal.contains(Monomial.from_support(ideal.ambient, combo)):
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
    from rookideal import sr_complex_of_ideal
    from rookideal.homology import reduced_betti

    delta = sr_complex_of_ideal(ideal)
    n = ideal.ambient.count
    entries = {}
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            betti = reduced_betti(delta.induced(combo), field)
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


def permute_packed(point, perm, width, offsets):
    """One permutation applied to one packed point, field by field: the w-bit
    field of variable i sits at bit offsets[i] and moves to offsets[perm[i]]."""
    out = 0
    for i, at in enumerate(offsets):
        value = (point >> at) % (1 << width)
        out += value * (1 << offsets[perm[i]])
    return out
