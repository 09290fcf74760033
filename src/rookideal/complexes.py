"""Simplicial complexes as facet antichains.

Covers the facet ideal of a complex, exact minimal-vertex-cover enumeration
(Berge's sequential transversals) and the induced-matching regularity lower
bound. The cover search takes facet masks and returns the covers as masks,
which the Betti plan uses as they are; MonomialIdeal.minimal_primes() is
their sorted tuple view.

The void complex (no facets at all) and the irrelevant complex (only facet
the empty set) are distinct and both representable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .monomials import Monomial, MonomialIdeal, VariableSet, _bits, _mask_of, _maximal_masks, min_gens


@dataclass(frozen=True)
class SimplicialComplex:
    """Facet antichain over an ordered vertex set."""

    vertices: VariableSet
    facets: tuple[tuple[int, ...], ...]

    @classmethod
    def from_facets(cls, vertices: VariableSet, sets) -> "SimplicialComplex":
        """Canonicalize: dedupe, drop faces contained in other faces, sort."""
        masks = [_mask_of(s) for s in sets]
        if any(m >> vertices.count for m in masks):
            raise ValueError("facet vertex out of range")
        facets = sorted((tuple(_bits(m)) for m in _maximal_masks(masks)), key=lambda f: (len(f), f))
        return cls(vertices, tuple(facets))

    def facet_masks(self) -> tuple[int, ...]:
        return tuple(_mask_of(f) for f in self.facets)


def facet_ideal_of_complex(cx: SimplicialComplex) -> MonomialIdeal:
    """Squarefree ideal generated by the facet products (void -> zero ideal,
    irrelevant -> unit ideal)."""
    return min_gens([Monomial.from_support(cx.vertices, f) for f in cx.facets], cx.vertices)


def minimal_vertex_covers(facet_masks) -> list[int]:
    """All inclusion-minimal vertex sets meeting every facet mask, as masks.

    Berge's sequential method: start from the empty set and add the facets
    one at a time. A transversal that meets the new facet f is kept; one that
    misses it is grown by each vertex of f, and a grown set is kept unless
    some kept set lies inside it. No two grown sets contain one another, so
    nothing else needs checking. Facets go in increasing mask order, which
    keeps the intermediate families small (taking the 4x6 board's facets in
    set order instead is ten times slower). Any family will do: its covers
    are those of its inclusion-minimal members.
    """
    if not facet_masks:
        raise ValueError("the void complex has no facets to cover")
    transversals = [0]
    for f in sorted(set(facet_masks)):
        hit = [t for t in transversals if t & f]
        grown = []
        for t in transversals:
            if not t & f:
                # plain loops: with any() over a generator expression and
                # _bits, the benchmark's 120 random searches took 2.5x as long
                rest = f
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    u = t | bit
                    for h in hit:
                        if h & u == h:
                            break
                    else:
                        grown.append(u)
        transversals = hit + grown
    return transversals


def induced_matching_bound(
    cx: SimplicialComplex, k_max: int = 3
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Best value of |union of facets| - k over induced matchings of size <= k_max.

    An induced matching is a set of pairwise disjoint facets such that no other
    facet of the complex fits inside their union (the facet set of the complex
    restricted to the union is the matching itself). Returns the maximum and
    one witness; (0, ()) when the complex has no facets.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    masks = cx.facet_masks()
    best = 0
    witness: tuple[tuple[int, ...], ...] = ()
    for k in range(1, k_max + 1):
        for combo in itertools.combinations(range(len(masks)), k):
            union = 0
            ok = True
            for idx in combo:
                if union & masks[idx]:
                    ok = False
                    break
                union |= masks[idx]
            if not ok:
                continue
            value = union.bit_count() - k
            if value <= best:
                continue
            chosen = {masks[idx] for idx in combo}
            if all(f & union != f or f in chosen for f in masks):
                best = value
                witness = tuple(cx.facets[idx] for idx in combo)
    return best, witness
