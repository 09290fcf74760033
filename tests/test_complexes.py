import itertools
import random

import pytest

from rookideal import (
    Board,
    Monomial,
    MonomialIdeal,
    SimplicialComplex,
    VariableSet,
    chessboard_complex,
    facet_ideal,
    facet_ideal_of_complex,
    induced_matching_bound,
    min_gens,
    minimal_primes_formula,
    minimal_vertex_covers,
    stanley_reisner_ideal,
)

from rookideal.monomials import _bits

import oracles

V3 = VariableSet.generic(3)
V4 = VariableSet.generic(4)


class TestFromFacets:
    def test_inclusion_pruning(self):
        cx = SimplicialComplex.from_facets(V3, [{0, 1}, {0}])
        assert cx.facets == ((0, 1),)

    def test_void(self):
        cx = SimplicialComplex.from_facets(V3, [])
        assert cx.facets == ()

    def test_irrelevant(self):
        cx = SimplicialComplex.from_facets(V3, [()])
        assert cx.facets == ((),)

    def test_void_and_irrelevant_differ(self):
        void = SimplicialComplex.from_facets(V3, [])
        irrelevant = SimplicialComplex.from_facets(V3, [()])
        assert void != irrelevant


class TestInduced:
    """The Hochster oracle's induced subcomplexes."""

    def test_one_facet_survives(self):
        b = Board(2, 2)
        cx = chessboard_complex(b)
        sub = oracles.induced(cx, [b.cell(1, 1), b.cell(2, 2)])
        assert sub.facets == ((b.cell(1, 1), b.cell(2, 2)),)

    def test_empty_restriction(self):
        cx = chessboard_complex(Board(2, 2))
        assert oracles.induced(cx, []).facets == ((),)
        assert oracles.induced(SimplicialComplex.from_facets(V3, []), []).facets == ()

    def test_matching_witness_facet_filter(self):
        # the only facets of the 3x3 complex inside the two diagonals are the
        # diagonals themselves (the face-restriction has more maximal faces)
        b = Board(3, 3)
        cx = chessboard_complex(b)
        f1 = tuple(sorted([b.cell(1, 1), b.cell(2, 2), b.cell(3, 3)]))
        f2 = tuple(sorted([b.cell(1, 2), b.cell(2, 3), b.cell(3, 1)]))
        union = set(f1) | set(f2)
        inside = {f for f in cx.facets if set(f) <= union}
        assert inside == {f1, f2}
        assert set(oracles.induced(cx, union).facets) > inside


class TestStanleyReisner:
    """The complements of the minimal primes against the faces and non-faces."""

    def test_complex_of_two_row_board_ideal(self):
        b = Board(2, 3)
        delta = oracles.stanley_reisner_complex(facet_ideal(b))
        rows = [tuple(b.cell(1, j) for j in (1, 2, 3)), tuple(b.cell(2, j) for j in (1, 2, 3))]
        cols = [tuple(sorted((b.cell(1, j), b.cell(2, j)))) for j in (1, 2, 3)]
        assert set(delta.facets) == set(rows) | set(cols)

    def test_complex_of_edge(self):
        ideal = min_gens([Monomial(VariableSet.generic(2), (1, 1))], VariableSet.generic(2))
        assert oracles.stanley_reisner_complex(ideal).facets == ((0,), (1,))

    def test_complex_of_zero(self):
        delta = oracles.stanley_reisner_complex(MonomialIdeal.zero(V3))
        assert delta.facets == ((0, 1, 2),)

    def test_faces_match_membership_oracle(self):
        ideal = facet_ideal(Board(2, 2))
        delta = oracles.stanley_reisner_complex(ideal)
        expected = set(oracles.membership_faces(ideal, range(4)))
        actual = set()
        for facet in delta.facets:
            for size in range(len(facet) + 1):
                actual.update(itertools.combinations(facet, size))
        assert actual == expected

    def test_ideal_of_hollow_triangle(self):
        cx = SimplicialComplex.from_facets(V3, [{0, 1}, {1, 2}, {0, 2}])
        ideal = oracles.nonface_ideal(cx)
        assert [str(g) for g in ideal.gens] == ["x1*x2*x3"]
        assert oracles.stanley_reisner_complex(ideal) == cx

    def test_board_nonfaces(self):
        for m, n in [(1, 3), (2, 2), (2, 3), (3, 3)]:
            b = Board(m, n)
            expected = oracles.brute_minimal_nonfaces(chessboard_complex(b).facets, m * n)
            ideal = stanley_reisner_ideal(b)
            assert sorted(tuple(sorted(g.support())) for g in ideal.gens) == expected
            assert ideal == oracles.nonface_ideal(chessboard_complex(b))

    def test_round_trip(self):
        for m, n in [(1, 3), (2, 2), (2, 3), (3, 3)]:
            b = Board(m, n)
            assert oracles.stanley_reisner_complex(stanley_reisner_ideal(b)) == chessboard_complex(b)


def _covers(cx):
    """The complex's minimal vertex covers as sorted index tuples, in order."""
    return sorted(tuple(_bits(m)) for m in minimal_vertex_covers(cx.facet_masks()))


class TestCovers:
    def test_single_facet(self):
        cx = SimplicialComplex.from_facets(V3, [{0, 1}])
        assert sorted(minimal_vertex_covers(cx.facet_masks())) == [0b01, 0b10]
        assert _covers(cx) == [(0,), (1,)]

    def test_two_by_two_against_subset_oracle(self):
        cx = chessboard_complex(Board(2, 2))
        assert _covers(cx) == oracles.brute_force_minimal_covers(cx.facets, 4)
        assert len(minimal_vertex_covers(cx.facet_masks())) == 4

    def test_three_by_three_count_matches_formula(self):
        cx = chessboard_complex(Board(3, 3))
        covers = _covers(cx)
        assert len(covers) == 15
        assert set(covers) == set(minimal_primes_formula(Board(3, 3)))

    def test_void_rejected(self):
        with pytest.raises(ValueError):
            minimal_vertex_covers(SimplicialComplex.from_facets(V3, []).facet_masks())

    def test_relabelled_board_primes_match_formula(self):
        for m in range(1, 5):
            for n in range(m, 6):
                board = Board(m, n)
                sigma = list(range(m * n))
                random.Random(10 * m + n).shuffle(sigma)
                expected = {tuple(sorted(sigma[i] for i in p)) for p in minimal_primes_formula(board)}
                primes = facet_ideal(board).permuted(sigma).minimal_primes()
                assert len(primes) == len(expected)
                assert set(primes) == expected, (m, n)

    def test_cover_complements_are_nonface_complex_facets(self):
        for m, n in [(2, 2), (2, 3), (3, 3)]:
            cx = chessboard_complex(Board(m, n))
            everything = set(range(m * n))
            complements = {tuple(sorted(everything - set(c))) for c in _covers(cx)}
            # the sets holding no facet, from the definition
            free = oracles.membership_faces(facet_ideal_of_complex(cx), everything)
            delta = SimplicialComplex.from_facets(cx.vertices, free)
            assert complements == set(delta.facets)


class TestFacetIdealOfComplex:
    def test_void_gives_zero(self):
        assert facet_ideal_of_complex(SimplicialComplex.from_facets(V3, [])).is_zero

    def test_irrelevant_gives_unit(self):
        assert facet_ideal_of_complex(SimplicialComplex.from_facets(V3, [()])).is_unit


class TestInducedMatching:
    def test_single_facet_value(self):
        cx = SimplicialComplex.from_facets(V4, [{0, 1, 2}])
        value, witness = induced_matching_bound(cx, 2)
        assert value == 2 and witness == ((0, 1, 2),)

    def test_two_by_two_pair_is_induced(self):
        # the unique disjoint facet pair restricts to exactly itself
        cx = chessboard_complex(Board(2, 2))
        value, witness = induced_matching_bound(cx, 2)
        assert value == 2
        assert len(witness) == 2

    def test_three_by_three_diagonals(self):
        b = Board(3, 3)
        cx = chessboard_complex(b)
        value, witness = induced_matching_bound(cx, 2)
        assert value == 4
        union = set()
        for f in witness:
            assert not union & set(f)
            union |= set(f)
        assert {f for f in cx.facets if set(f) <= union} == set(witness)

    def test_monotone_in_k(self):
        cx = chessboard_complex(Board(3, 4))
        values = [induced_matching_bound(cx, k)[0] for k in (1, 2, 3)]
        assert values == sorted(values)

    def test_no_facets(self):
        assert induced_matching_bound(SimplicialComplex.from_facets(V3, []), 2) == (0, ())
