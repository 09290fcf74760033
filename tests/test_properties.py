"""Structural invariants checked on randomized inputs."""

import functools
import itertools
import operator

import hypothesis.strategies as st
from hypothesis import example, given, settings

import oracles
from rookideal import betti
from rookideal.monomials import _bits, _mask_of
from rookideal import (
    GF2,
    DEFAULT_FIELD,
    FieldSpec,
    Monomial,
    SimplicialComplex,
    VariableSet,
    betti_table,
    betti_table_hochster,
    betti_table_koszul,
    hilbert_series,
    ideal_from_text,
    induced_matching_bound,
    min_gens,
    minimal_vertex_covers,
    reduced_betti,
)


@st.composite
def monomials(draw, ambient, max_exp=2, allow_unit=False):
    exps = draw(
        st.lists(
            st.integers(0, max_exp), min_size=ambient.count, max_size=ambient.count
        )
    )
    if not allow_unit and not any(exps):
        exps[draw(st.integers(0, ambient.count - 1))] = 1
    return Monomial(ambient, tuple(exps))


@st.composite
def ideals(draw, max_vars=5, max_gens=4, max_exp=2):
    ambient = VariableSet.generic(draw(st.integers(1, max_vars)))
    gens = draw(st.lists(monomials(ambient, max_exp), min_size=1, max_size=max_gens))
    return min_gens(gens, ambient)


@st.composite
def squarefree_ideals(draw, max_vars=5, max_gens=4):
    return draw(ideals(max_vars, max_gens, max_exp=1))


@st.composite
def complexes(draw, max_vars=6, max_facets=5):
    ambient = VariableSet.generic(draw(st.integers(1, max_vars)))
    facets = draw(
        st.lists(
            st.sets(st.integers(0, ambient.count - 1), max_size=ambient.count),
            min_size=0,
            max_size=max_facets,
        )
    )
    return SimplicialComplex.from_facets(ambient, facets)


@given(ideals())
def test_canonicalization_idempotent(ideal):
    assert min_gens(ideal.gens, ideal.ambient) == ideal


@given(ideals())
def test_gens_form_antichain(ideal):
    for a in ideal.gens:
        for b in ideal.gens:
            if a is not b:
                assert not a.divides(b)


@given(ideals(), ideals())
def test_colon_distributes_over_sum(left, right):
    if left.ambient.count != right.ambient.count:
        return
    right = min_gens(
        [Monomial(left.ambient, g.exponents) for g in right.gens], left.ambient
    )
    f = Monomial(left.ambient, tuple([1] + [0] * (left.ambient.count - 1)))
    assert (left + right).colon(f) == left.colon(f) + right.colon(f)


@given(ideals(max_vars=4, max_gens=3), st.integers(1, 2), st.integers(1, 2))
def test_power_additivity(ideal, a, b):
    if ideal.is_unit:
        return
    assert ideal ** (a + b) == (ideal**a) * (ideal**b)


@given(squarefree_ideals())
def test_dual_involution(ideal):
    if ideal.is_zero or ideal.is_unit:
        return
    assert ideal.alexander_dual().alexander_dual() == ideal


@given(ideals())
def test_text_round_trip(ideal):
    assert ideal_from_text(ideal.to_text()) == ideal


@given(ideals(max_vars=4), st.permutations(range(4)))
def test_permuted_construction_matches(ideal, perm):
    perm = tuple(perm[: ideal.ambient.count])
    if sorted(perm) != list(range(ideal.ambient.count)):
        return
    raw = []
    for g in ideal.gens:
        exps = [0] * ideal.ambient.count
        for i, e in enumerate(g.exponents):
            exps[perm[i]] = e
        raw.append(Monomial(ideal.ambient, tuple(exps)))
    assert min_gens(raw, ideal.ambient) == ideal.permuted(perm)


@st.composite
def exponent_vectors(draw):
    """1 to 6 vectors on 1 to 5 variables whose largest entry sits on either
    side of a step of the packed field width."""
    top = draw(st.sampled_from([1, 2, 3, 4, 7, 8, 15, 16]))
    count = draw(st.integers(1, 5))
    vectors = draw(
        st.lists(
            st.lists(st.integers(0, top), min_size=count, max_size=count).map(tuple),
            min_size=1,
            max_size=6,
        )
    )
    k, i = draw(st.integers(0, len(vectors) - 1)), draw(st.integers(0, count - 1))
    vectors[k] = vectors[k][:i] + (top,) + vectors[k][i + 1:]
    return vectors


@settings(max_examples=150, deadline=None)
@given(exponent_vectors())
def test_packed_join_closure_matches_tuple_closure(vectors):
    count = len(vectors[0])
    width = betti._field_width(vectors)
    packed = betti._closure([betti._pack(v, width) for v in vectors], betti._swar_joins(width, count))
    assert [oracles.unpack(x, width, count) for x in packed] == oracles.tuple_join_closure(vectors)


@st.composite
def packed_points_and_perms(draw):
    """Points of 1 to 7 fields of 1 to 5 bits (so the point's width is often
    not a multiple of 4), or of 9 to 12 fields of 6 to 11 bits (54 to 132
    bits, so lanes of 8, 16 and 24 bytes), laid out first field high
    (exponent vectors) or low (support masks), with 1 to 6 permutations,
    repeats allowed."""
    if draw(st.booleans()):
        width, count = draw(st.integers(1, 5)), draw(st.integers(1, 7))
    else:
        width, count = draw(st.integers(6, 11)), draw(st.integers(9, 12))
    offsets = betti._vector_offsets(width, count)
    if draw(st.booleans()):
        offsets.reverse()
    perms = draw(st.lists(st.permutations(range(count)).map(tuple), min_size=1, max_size=6))
    top = (1 << (width * count)) - 1
    points = draw(st.lists(st.integers(0, top), min_size=1, max_size=8)) + [top]
    return width, offsets, perms, points


@settings(max_examples=300, deadline=None)
@given(packed_points_and_perms())
@example((3, [12, 9, 6, 3, 0], [(4, 0, 1, 2, 3)], [1 << 14]))  # 15 bits: a 3-bit top chunk
@example((1, [0, 1, 2, 3, 4, 5], [(5, 4, 3, 2, 1, 0)], [0b110000]))  # 6 bits: a 2-bit top chunk
@example((11, betti._vector_offsets(11, 12), [tuple(range(11, -1, -1))], [1 << 131, 1 << 64]))  # 24-byte lanes
@example((6, list(range(0, 66, 6)), [tuple(range(1, 11)) + (0,)], [(1 << 66) - 1, 1 << 63]))  # 16-byte lanes
def test_image_tables_match_one_permutation_at_a_time(case):
    width, offsets, perms, points = case
    images = betti._image_tables(perms, width, offsets)
    for x in points:
        expected = [oracles.permute_packed(x, perm, width, offsets) for perm in perms]
        assert images(x) == expected


@st.composite
def wide_vectors(draw):
    """A point r and 1 to 8 generators: exponent vectors of 9 to 12 entries
    below 2^(w-1), for a field width w of 6 to 11 bits."""
    width = draw(st.integers(6, 11))
    count = draw(st.integers(9, 12))
    vector = st.lists(st.integers(0, (1 << (width - 1)) - 1), min_size=count, max_size=count).map(tuple)
    return width, draw(vector), draw(st.lists(vector, min_size=1, max_size=8))


@settings(max_examples=150, deadline=None)
@given(wide_vectors())
@example((11, (1023,) * 12, [(0,) * 12, (1023,) * 11 + (0,)]))  # 132 bits: 24-byte lanes
@example((8, (0, 127) * 5, [(127, 0) * 5, (5,) * 10]))  # 80 bits: 16-byte lanes
def test_lane_swar_join_matches_scalar_join(case):
    width, r, vectors = case
    count = len(r)
    point = betti._pack(r, width)
    gens = [betti._pack(v, width) for v in vectors]
    joins = betti._swar_joins(width, count)
    got = betti._lane_swar_joins(width, count)(gens)(point)
    assert got == [min(joins(point, [g])) for g in gens]
    assert [oracles.unpack(x, width, count) for x in got] == [tuple(map(max, r, v)) for v in vectors]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(1, (1 << 140) - 1), min_size=1, max_size=8),
    st.integers(1, 140),
    st.integers(0, 255),
)
@example([1 << 65, 1], 66, 1)  # 66 bits: 16-byte lanes
def test_lane_union_matches_scalar_union(masks, bits, pick):
    # masks cut to at most `bits` bits (lanes of 8 to 24 bytes), joined with
    # r, a union of some of them, as in the lattice sweep
    low = (1 << bits) - 1
    gens = [m & low or 1 for m in masks]
    r = functools.reduce(operator.or_, (g for k, g in enumerate(gens) if pick >> k & 1), 0) or gens[0]
    assert betti._lane_unions(gens)(r) == [min(betti._unions(r, [g])) for g in gens]


@settings(max_examples=40, deadline=None)
@given(squarefree_ideals(max_vars=5, max_gens=4), st.randoms(use_true_random=False))
def test_hochster_equals_koszul(ideal, rng):
    if ideal.is_zero or ideal.is_unit:
        return
    assert (
        betti_table_hochster(ideal, DEFAULT_FIELD).entries
        == betti_table_koszul(ideal, DEFAULT_FIELD).entries
    )


@settings(max_examples=100, deadline=None)
@given(squarefree_ideals(max_vars=7, max_gens=5), st.integers(0, 2))
def test_table_series_matches_f_vector_series(ideal, extra):
    if ideal.is_unit:
        return
    ambient_count = ideal.ambient.count + extra
    series = hilbert_series(betti_table(ideal).quotient(), ambient_count)
    want = oracles.f_vector_series(ideal, ambient_count)
    assert (series.numerator, series.denominator_power) == want


@settings(max_examples=60, deadline=None)
@given(ideals(max_vars=4, max_gens=4, max_exp=3), st.integers(0, 2))
def test_table_series_matches_the_polarization(ideal, extra):
    # polarizing adds variables that form a regular sequence of linear forms
    # on the polarized quotient, so only the denominator power moves
    if ideal.is_unit:
        return
    ambient_count = ideal.ambient.count + extra
    series = hilbert_series(betti_table(ideal).quotient(), ambient_count)
    polarized, added = oracles.polarization(ideal)
    numerator, power = oracles.f_vector_series(polarized, polarized.ambient.count + extra)
    assert (series.numerator, series.denominator_power + added) == (numerator, power)


@settings(max_examples=40, deadline=None)
@given(ideals(max_vars=5, max_gens=4))
def test_resolution_alternating_sum_is_one(ideal):
    # the resolved module is an ideal, so its rank is one
    if ideal.is_unit:
        return
    entries = betti_table(ideal).entries
    assert sum((-1) ** i * b for (i, _), b in entries.items()) == 1


@settings(max_examples=40, deadline=None)
@given(ideals(max_vars=5, max_gens=4))
def test_row_zero_counts_generators(ideal):
    if ideal.is_unit:
        return
    table = betti_table(ideal)
    by_degree = {}
    for g in ideal.gens:
        by_degree[g.degree] = by_degree.get(g.degree, 0) + 1
    assert {j: b for (i, j), b in table.entries.items() if i == 0} == by_degree


@settings(max_examples=40, deadline=None)
@given(ideals(max_vars=4, max_gens=3), st.permutations(range(4)))
def test_relabeling_invariance(ideal, perm):
    perm = tuple(perm[: ideal.ambient.count])
    if sorted(perm) != list(range(ideal.ambient.count)):
        return
    if ideal.is_unit:
        return
    moved = ideal.permuted(perm)
    assert betti_table(ideal).entries == betti_table(moved).entries


@settings(max_examples=60, deadline=None)
@given(complexes())
def test_cone_is_acyclic(cx):
    if not cx.facets:
        return
    bigger = VariableSet.generic(cx.vertices.count + 1)
    apex = cx.vertices.count
    coned = SimplicialComplex.from_facets(
        bigger, [tuple(f) + (apex,) for f in cx.facets]
    )
    for field in (DEFAULT_FIELD, GF2):
        assert not any(reduced_betti(coned, field).values())


@settings(max_examples=60, deadline=None)
@given(complexes())
@example(SimplicialComplex.from_facets(VariableSet.generic(3), [{0, 1}, {1, 2}, {0, 2}]))
@example(
    # the 6-vertex real projective plane: columns get built in every dimension
    SimplicialComplex.from_facets(
        VariableSet.generic(6),
        [
            {0, 1, 2}, {0, 2, 3}, {0, 3, 4}, {0, 4, 5}, {0, 1, 5},
            {1, 2, 4}, {1, 3, 4}, {1, 3, 5}, {2, 3, 5}, {2, 4, 5},
        ],
    )
)
def test_cleared_ranks_match_plain_ranks_everywhere(cx):
    # reduced_betti clears columns across dimensions; its numbers must equal
    # those from the ranks of the bare boundary maps, each reduced alone
    if not cx.facets:
        return
    for field in (DEFAULT_FIELD, GF2, FieldSpec(3), FieldSpec(4294967311)):
        assert reduced_betti(cx, field) == oracles.plain_betti(cx.facets, field)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 255), min_size=1, max_size=10))
@example([0b111, 0b1101, 0b11001, 0b110001, 0b100011, 0b10110, 0b11010, 0b101010, 0b101100, 0b110100])
def test_certified_integer_ranks_are_the_ranks_at_every_prime(facets):
    # facet masks on at most 8 vertices (the example: the real projective
    # plane, whose torsion the integer reduction must not certify); when
    # every pivot of the integer reduction is +-1, its ranks are the ranks
    # that the reduction at each prime finds
    from rookideal import homology

    faces = homology.faces_by_dim_masks(facets)
    certified = faces.sweep(0)
    at_primes = [faces.sweep(p) for p in (2, 3, 32003, 4294967311)]
    assert certified is None or all(ranks == certified for ranks in at_primes)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 1023), min_size=1, max_size=10))
@example([0b111, 0b1101, 0b11001, 0b110001, 0b100011, 0b10110, 0b11010, 0b101010, 0b101100, 0b110100])
def test_face_layers_agree(facets):
    # facet masks on at most 10 vertices (the example: the real projective
    # plane, so the reductions at 2 and 32003 differ); bitmaps and sets of
    # masks hold the same faces and find the same ranks at every modulus
    from rookideal import homology

    bitmaps, sets = homology.FaceBitmaps(facets), homology.FaceSets(facets)
    assert dict(bitmaps.items()).keys() == dict(sets.items()).keys()
    for d in bitmaps:
        assert oracles.face_masks(bitmaps, d) == oracles.face_masks(sets, d)
    for p in (0, 2, 32003):
        assert bitmaps.sweep(p) == sets.sweep(p)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 255), min_size=1, max_size=8))
def test_strong_core_keeps_reduced_homology(facets):
    # facet masks on at most 8 vertices; the core must have the same reduced
    # Betti numbers over both fields (a dropped job: all zero), and no vertex
    # of the core may be dominated, so collapsing it again changes nothing
    from rookideal.homology import betti_of_face_masks, faces_by_dim_masks

    core = betti._strong_core(facets)
    for field in (DEFAULT_FIELD, GF2):
        full = betti_of_face_masks(faces_by_dim_masks(facets), field)
        cored = {} if core is None else betti_of_face_masks(faces_by_dim_masks(core), field)
        assert {d: v for d, v in cored.items() if v} == {d: v for d, v in full.items() if v}
    if core is not None:
        assert betti._strong_core(core) == core


@st.composite
def facet_sets_with_spheres(draw):
    """Facet masks on at most 8 vertices: random ones, or a join of simplex
    boundaries on random parts of a random vertex set, sometimes with one
    facet added or removed."""
    if draw(st.booleans()):
        return draw(st.lists(st.integers(0, 255), min_size=1, max_size=8))
    labels = draw(st.permutations(range(8)))[: draw(st.integers(0, 8))]
    cuts = sorted(draw(st.sets(st.integers(1, max(len(labels) - 1, 1)), max_size=3)))
    bounds = [0] + [c for c in cuts if c < len(labels)] + [len(labels)]
    parts = [[1 << v for v in labels[a:b]] for a, b in zip(bounds, bounds[1:]) if b > a]
    vertices = sum(sum(part) for part in parts)
    facets = sorted({vertices ^ sum(pick) for pick in itertools.product(*parts)})
    change = draw(st.sampled_from(["none", "add", "remove"]))
    if change == "add":
        facets.append(draw(st.integers(0, 255)))
    elif change == "remove" and len(facets) > 1:
        facets.pop(draw(st.integers(0, len(facets) - 1)))
    return facets


@settings(max_examples=300, deadline=None)
@given(facet_sets_with_spheres())
@example([0b0111, 0b1011, 0b1101, 0b1110])  # the boundary of the 3-simplex
@example([0b0101, 0b0110, 0b1001, 0b1010])  # a square: two pairs of points joined
@example([0])  # the irrelevant complex
@example([0b1, 0b110, 0b1010, 0b1100, 0b10010, 0b10100])  # parts and sizes fit, not a join
def test_sphere_rule_matches_the_kernel(facets):
    # whenever the sphere rule fires on a strong core, its one copy of the
    # field in dimension d is what the rank kernel finds over both fields
    from rookideal.homology import betti_of_face_masks, faces_by_dim_masks

    core = betti._strong_core(facets)
    if core is None:
        return
    d = betti._sphere_dimension(core)
    if d is None:
        return
    for field in (DEFAULT_FIELD, GF2):
        found = betti_of_face_masks(faces_by_dim_masks(core), field)
        assert {k: v for k, v in found.items() if v} == {d: 1}


def _lattice_jobs(ideal, route):
    """(lattice point, the masks of the variables where each generator that
    divides it reaches its exponent, the job's complex as faces or facets)
    for every point of the route's lattice, found without the plan: the
    lattice by pairwise joins of tuples, a point's generators by comparing
    exponents."""
    out = []
    for b in oracles.tuple_join_closure([g.exponents for g in ideal.gens]):
        divisors = [g.exponents for g in ideal.gens if all(map(operator.le, g.exponents, b))]
        if route == "koszul":
            # every variable where g reaches b, those outside b's support too
            tight = [_mask_of([i for i in range(len(b)) if g[i] == b[i]]) for g in divisors]
            # the upper Koszul complex at b: a facet {i : b_i > g_i} per g | b
            facets = [_mask_of([i for i in range(len(b)) if b[i] > g[i]]) for g in divisors]
            out.append((b, tight, facets))
            continue
        # the restriction to sigma: its subsets that hold no generator support
        sigma = _mask_of([i for i in range(len(b)) if b[i]])
        tight = [_mask_of([i for i in range(len(g)) if g[i]]) for g in divisors]  # the supports
        faces = [s for s in range(sigma + 1) if s & sigma == s and not any(g & s == g for g in tight)]
        out.append((b, tight, faces))
    return out


@st.composite
def support_ideals(draw):
    """Squarefree ideals of 2 to 5 generators with 1 to 4 variables each, on
    4 to 7 variables, so that lattice points that two generators make, with
    one or more vertices outside each other, are common."""
    ambient = VariableSet.generic(draw(st.integers(4, 7)))
    supports = st.sets(st.integers(0, ambient.count - 1), min_size=1, max_size=4)
    return min_gens([Monomial.from_support(ambient, s) for s in draw(st.lists(supports, min_size=2, max_size=5))], ambient)


@settings(max_examples=200, deadline=None)
@given(st.one_of(support_ideals(), ideals(max_vars=4, max_gens=5, max_exp=3)))
@example(min_gens([Monomial(VariableSet.generic(5), e) for e in [(1, 1, 1, 0, 0), (0, 0, 1, 1, 1)]], VariableSet.generic(5)))
@example(min_gens([Monomial.from_support(VariableSet.generic(9), s) for s in [(0, 1, 3), (1, 6, 8)]], VariableSet.generic(9)))
@example(min_gens([Monomial.from_support(VariableSet.generic(3), s) for s in [(0, 1), (1, 2), (0, 2)]], VariableSet.generic(3)))
@example(min_gens([Monomial.from_support(VariableSet.generic(4), s) for s in [(0, 1), (1, 2), (2, 3)]], VariableSet.generic(4)))
@example(min_gens([Monomial(VariableSet.generic(2), e) for e in [(2, 0), (1, 1), (0, 2)]], VariableSet.generic(2)))
@example(min_gens([Monomial.from_support(VariableSet.generic(4), s) for s in [(0, 1), (1, 2), (0, 2, 3)]], VariableSet.generic(4)))
@example(min_gens([Monomial.from_support(VariableSet.generic(6), s) for s in [(0, 2, 5), (0, 3, 5), (1, 2, 3, 4), (0, 4)]], VariableSet.generic(6)))
def test_lone_lcm_jobs_match_the_kernel(ideal):
    # every lattice point that the rule decides has the reduced homology,
    # over both fields, that it reads off: one Betti number, 1 at
    # (k - 1, degree), when it returns k > 0 (the k minimal reach sets are
    # disjoint and hold every divisor, so the complex is S^(k-2): d = k - 2
    # on the lattice route, |sigma| - k - 1 on the restriction route), and
    # none when it returns 0 (a cone: some divisor is in no minimal set).
    # With no strong core read off as a sphere, the plan's closed-form
    # entries are exactly the spheres, from asking the rule about every
    # lattice point with the generators it holds, and only the points it
    # leaves become jobs. The examples: two supports that share a vertex,
    # on 5 and on 9 variables (on 9 the top restriction, a 2-sphere, has a
    # strong core that is not a join of simplex boundaries); a triangle,
    # whose top point is the lcm of every two of its generators, so the
    # rule leaves it; two cones, the top points of the path x0x1, x1x2,
    # x2x3 and of x0^2, x0x1, x1^2, which the lcm of the two ends reaches;
    # the top point of x0x1, x1x2, x0x2x3, whose minimal reach sets are
    # {x0x2x3} and {x0x1, x1x2}, so k = 2 < r and H~_0 = 1; and a cone that
    # only the second stage reads off, the top point of x0x2x5, x0x3x5,
    # x1x2x3x4, x0x4, whose minimal reach sets {x0x2x5, x0x3x5} and
    # {x1x2x3x4} leave out x0x4
    from unittest import mock

    from rookideal.homology import betti_of_face_masks, faces_by_dim_masks

    if ideal.is_zero or ideal.is_unit:
        return
    routes = {"koszul": betti._koszul_plan}
    if ideal.is_squarefree:
        routes["hochster"] = betti._hochster_plan
    for route, plan in routes.items():
        expected, asked = {}, []
        for b, tight, complex_ in _lattice_jobs(ideal, route):
            taken = betti._lone_lcm(tight, len(b))
            asked.append((sorted(map(int.bit_count, tight)), taken))
            if taken is None:
                continue
            # H~_d counts at |sigma| - d - 2 (Hochster) or d + 1 (Koszul)
            d = sum(b) - taken - 1 if route == "hochster" else taken - 2
            for field in (DEFAULT_FIELD, GF2):
                found = betti_of_face_masks(faces_by_dim_masks(complex_), field)
                assert {e: v for e, v in found.items() if v} == ({d: 1} if taken else {}), (route, b, field)
            if taken:
                expected[(taken - 1, sum(b))] = expected.get((taken - 1, sum(b)), 0) + 1
        recorded, jobs = [], []
        real, gather = betti._lone_lcm, betti._gather

        def recording(tight, count):
            recorded.append((sorted(map(int.bit_count, tight)), real(tight, count)))
            return recorded[-1][1]

        def gathering(route, found, *rest):
            jobs.extend(found)
            return gather(route, jobs, *rest)

        with mock.patch.object(betti, "_lone_lcm", recording), mock.patch.object(
            betti, "_sphere_dimension", lambda facets: None
        ), mock.patch.object(betti, "_gather", gathering):
            spheres = plan(ideal, None).spheres
        assert sorted(recorded, key=repr) == sorted(asked, key=repr)
        assert spheres == expected
        assert len(jobs) == sum(taken is None for _, taken in asked)


@st.composite
def monomial_lists(draw, max_vars=5, max_exp=3, max_size=12):
    """Monomials of mixed degrees with repeats and divisibilities mixed in."""
    ambient = VariableSet.generic(draw(st.integers(1, max_vars)))
    out = draw(st.lists(monomials(ambient, max_exp, allow_unit=True), max_size=max_size))
    for m in list(out)[:3]:
        if draw(st.booleans()):
            out.append(m * draw(monomials(ambient, 1, allow_unit=True)))
    return ambient, draw(st.permutations(out))


@settings(max_examples=200, deadline=None)
@given(monomial_lists())
def test_min_gens_matches_naive_pruning(case):
    ambient, raw = case
    assert list(min_gens(raw, ambient).gens) == oracles.naive_min_gens(raw)


@given(complexes(max_vars=5, max_facets=4))
def test_sr_round_trip(cx):
    # the complements of the minimal primes of the non-face ideal are the facets
    if not cx.facets:
        return
    assert oracles.stanley_reisner_complex(oracles.nonface_ideal(cx)) == cx


@settings(max_examples=30, deadline=None)
@given(complexes(max_vars=6, max_facets=5))
def test_matching_bound_monotone(cx):
    values = [induced_matching_bound(cx, k)[0] for k in (1, 2, 3)]
    assert values == sorted(values)


@st.composite
def hypergraphs(draw, max_vertices=10, max_edges=8):
    """(vertex count, nonempty edges) with duplicate, nested and single-vertex
    edges mixed in on purpose."""
    nverts = draw(st.integers(1, max_vertices))
    edge = st.frozensets(st.integers(0, nverts - 1), min_size=1)
    edges = draw(st.lists(edge, min_size=1, max_size=max_edges))
    extras = []
    for kind in draw(st.lists(st.sampled_from(["duplicate", "nested", "single"]), max_size=3)):
        base = edges[draw(st.integers(0, len(edges) - 1))]
        if kind == "duplicate":
            extras.append(base)
        elif kind == "nested":
            extras.append(frozenset(draw(st.sets(st.sampled_from(sorted(base)), min_size=1))))
        else:
            extras.append(frozenset([draw(st.integers(0, nverts - 1))]))
    mixed = (edges + extras)[:max_edges]
    return nverts, draw(st.permutations(mixed))


@settings(max_examples=300, deadline=None)
@given(hypergraphs())
@example((4, [frozenset({0, 1}), frozenset({0, 1}), frozenset({0}), frozenset({2, 3}), frozenset({3})]))
@example((6, [frozenset({0, 1, 2}), frozenset({3, 4, 5}), frozenset({0, 3}), frozenset({1, 4}), frozenset({2, 5})]))
def test_covers_match_subset_oracle(case):
    nverts, edges = case
    expected = oracles.brute_force_minimal_covers(edges, nverts)
    raw = minimal_vertex_covers([_mask_of(e) for e in edges])
    assert sorted(raw) == sorted(_mask_of(c) for c in expected)
    # a complex keeps only its maximal faces, so its covers are those of its facets
    cx = SimplicialComplex.from_facets(VariableSet.generic(nverts), edges)
    covers = sorted(tuple(_bits(m)) for m in minimal_vertex_covers(cx.facet_masks()))
    assert covers == oracles.brute_force_minimal_covers(cx.facets, nverts)
