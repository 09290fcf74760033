import functools
import operator
import subprocess
import sys
import time
from pathlib import Path

import pytest

from rookideal import betti, homology
from rookideal import (
    GF2,
    DEFAULT_FIELD,
    Board,
    FieldSpec,
    SimplicialComplex,
    VariableSet,
    board_symmetries,
    chessboard_complex,
    facet_ideal,
    invariant_report,
    reduced_betti,
)
from rookideal.monomials import _bits, _mask_of

import oracles
from oracles import boundary_matrix, rank

V3 = VariableSet.generic(3)
V4 = VariableSet.generic(4)
HOLLOW_TRIANGLE = SimplicialComplex.from_facets(V3, [{0, 1}, {1, 2}, {0, 2}])
# the 6-vertex triangulation of the real projective plane
RP2 = SimplicialComplex.from_facets(
    VariableSet.generic(6),
    [
        {0, 1, 2}, {0, 2, 3}, {0, 3, 4}, {0, 4, 5}, {0, 1, 5},
        {1, 2, 4}, {1, 3, 4}, {1, 3, 5}, {2, 3, 5}, {2, 4, 5},
    ],
)


def test_field_requires_prime():
    with pytest.raises(ValueError):
        FieldSpec(6)
    assert FieldSpec(2) == GF2


def test_large_prime_accepted_quickly():
    # trial division took about ten minutes on this modulus
    start = time.perf_counter()
    assert FieldSpec(10**19 + 51).characteristic == 10**19 + 51
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n", [561, 3215031751, 3825123056546413051, 318665857834031151167461])
def test_strong_pseudoprimes_rejected(n):
    # a Carmichael number, and strong pseudoprimes to bases 2..7, 2..23, 2..37
    with pytest.raises(ValueError, match="not prime"):
        FieldSpec(n)


def test_primality_matches_trial_division_below_ten_thousand():
    def by_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert all(homology._is_prime(n) == by_division(n) for n in range(-2, 10000))


def test_modulus_beyond_exact_test_bound_rejected():
    with pytest.raises(ValueError, match=str(homology.PRIME_TEST_BOUND)):
        FieldSpec(10**25 + 13)
    # the first strong pseudoprime to every base up to 41 is the bound itself
    with pytest.raises(ValueError, match="not below"):
        FieldSpec(homology.PRIME_TEST_BOUND)


class TestFaces:
    @staticmethod
    def faces(cx, d):
        by_dim = homology.faces_by_dim_masks(cx.facet_masks())
        return [tuple(_bits(m)) for m in oracles.face_masks(by_dim, d)]

    def test_hollow_triangle_edges(self):
        assert self.faces(HOLLOW_TRIANGLE, 1) == [(0, 1), (0, 2), (1, 2)]
        assert self.faces(HOLLOW_TRIANGLE, 2) == []

    def test_empty_face(self):
        assert self.faces(HOLLOW_TRIANGLE, -1) == [()]
        assert self.faces(SimplicialComplex.from_facets(V3, []), -1) == []

    def test_board_top_faces(self):
        cx = chessboard_complex(Board(3, 3))
        assert len(self.faces(cx, 2)) == 6
        assert self.faces(cx, 2) == oracles.faces(cx.facets, 2)

    def test_dimension_below_minus_one(self):
        assert min(homology.faces_by_dim_masks(HOLLOW_TRIANGLE.facet_masks())) == -1
        assert homology.faces_by_dim_masks(()) == {}

    @pytest.mark.parametrize("layer", [homology.FaceBitmaps, homology.FaceSets])
    @pytest.mark.parametrize(
        "cx",
        [
            HOLLOW_TRIANGLE,
            RP2,
            chessboard_complex(Board(3, 4)),
            # a FaceBitmaps relabels vertices 1, 4, 6 and 9 to bits 0..3
            SimplicialComplex.from_facets(VariableSet.generic(10), [{1, 4, 9}, {4, 6}, {6, 9}, {1, 6}]),
        ],
    )
    def test_dimensions_are_sized_by_their_face_counts(self, cx, layer):
        # the benchmark's tracer reads len() of each dimension through
        # items() as its face count
        by_dim = layer(cx.facet_masks())
        assert list(by_dim) == list(range(-1, max(len(f) for f in cx.facets)))
        for d, faces in by_dim.items():
            expected = [_mask_of(f) for f in oracles.faces(cx.facets, d)]
            assert len(faces) == len(expected)
            assert oracles.face_masks(by_dim, d) == expected

    @pytest.mark.parametrize(
        "facets, layer",
        [
            ([1 << v for v in range(40)], homology.FaceSets),
            ([1 << v | 1 << (v + 1) % 40 for v in range(40)], homology.FaceSets),
            ([0b111 << v for v in range(14)], homology.FaceSets),
            ([0b111 << v for v in range(4)], homology.FaceBitmaps),
            (RP2.facet_masks(), homology.FaceBitmaps),
            (chessboard_complex(Board(3, 3)).facet_masks(), homology.FaceBitmaps),
            (chessboard_complex(Board(3, 4)).facet_masks(), homology.FaceSets),
        ],
    )
    def test_bitmaps_only_where_the_masks_do_not_far_outnumber_the_subsets(self, facets, layer):
        # 2^n masks on n vertices against sum 2^|facet|: 40 isolated points
        # or a 40-cycle would need 2^40-bit levels, sixteen vertices under
        # fourteen triangles 2^16 bits for 112 subsets, and the 3x4
        # chessboard complex 2^12 bits for 192
        n = functools.reduce(operator.or_, facets).bit_count()
        subsets = sum(1 << f.bit_count() for f in facets)
        assert ((1 << n) <= homology._BITMAP_FACTOR * subsets) == (layer is homology.FaceBitmaps)
        assert type(homology.faces_by_dim_masks(facets)) is layer


class TestBoundary:
    """The plain-rank oracle's boundary maps."""

    def test_single_edge(self):
        mx = boundary_matrix([(0, 1)], 1, DEFAULT_FIELD)
        assert len(mx) == 2 and len(mx[0]) == 1
        assert sorted(row[0] for row in mx) == sorted([DEFAULT_FIELD.characteristic - 1, 1])
        assert rank(mx, DEFAULT_FIELD) == 1

    def test_zeroth_map_hits_empty_face(self):
        mx = boundary_matrix(HOLLOW_TRIANGLE.facets, 0, DEFAULT_FIELD)
        assert mx == [[1, 1, 1]]

    def test_composition_vanishes(self):
        full = [(0, 1, 2)]
        p = DEFAULT_FIELD.characteristic
        d1 = boundary_matrix(full, 1, DEFAULT_FIELD)
        d2 = boundary_matrix(full, 2, DEFAULT_FIELD)
        for i in range(len(d1)):
            for j in range(len(d2[0])):
                total = sum(d1[i][k] * d2[k][j] for k in range(len(d2)))
                assert total % p == 0


class TestRank:
    """The plain-rank oracle's dense elimination."""

    def test_zero_matrix(self):
        assert rank([[0] * 3 for _ in range(3)], DEFAULT_FIELD) == 0

    def test_identity(self):
        eye = [[int(i == j) for j in range(3)] for i in range(3)]
        assert rank(eye, DEFAULT_FIELD) == 3
        assert rank(eye, GF2) == 3

    def test_hollow_triangle_gf2(self):
        assert rank(boundary_matrix(HOLLOW_TRIANGLE.facets, 1, GF2), GF2) == 2

    def test_large_prime_path(self):
        # a 0/1 block whose rank is the same at 32003 and at 101
        mx = [[int((i + j) % 7 == 0) for j in range(120)] for i in range(40)]
        assert rank(mx, DEFAULT_FIELD) == rank(mx, FieldSpec(101)) == 7

    @pytest.mark.parametrize("p", [101, 32003, 4294967311])
    def test_entries_near_the_modulus(self, p):
        # rows (-1, -2, 0), (-2, -1, -1), (0, -1, -2) have determinant 7
        rows = [[p - 1, p - 2, 0], [p - 2, p - 1, p - 1], [0, p - 1, p - 2]]
        assert rank(rows, FieldSpec(p)) == 3
        # the third row replaced by the sum of the first two, written near p
        assert rank(rows[:2] + [[p - 3, p - 3, p - 1]], FieldSpec(p)) == 2

    def test_entries_reduced_mod_p(self):
        # 7 is nonzero but vanishes mod 7
        mx = [[7, 0], [0, 1]]
        assert rank(mx, FieldSpec(7)) == 1
        assert rank(mx, FieldSpec(5)) == 2


class TestReducedBetti:
    def test_hollow_triangle_is_circle(self):
        betti = reduced_betti(HOLLOW_TRIANGLE, DEFAULT_FIELD)
        assert betti == {-1: 0, 0: 0, 1: 1}

    def test_two_points(self):
        cx = SimplicialComplex.from_facets(V3, [{0}, {1}])
        assert reduced_betti(cx, DEFAULT_FIELD)[0] == 1

    def test_two_disjoint_edges(self):
        cx = SimplicialComplex.from_facets(V4, [{0, 1}, {2, 3}])
        betti = reduced_betti(cx, DEFAULT_FIELD)
        assert betti[0] == 1 and betti[1] == 0

    def test_void_and_irrelevant(self):
        assert reduced_betti(SimplicialComplex.from_facets(V3, []), DEFAULT_FIELD) == {}
        betti = reduced_betti(SimplicialComplex.from_facets(V3, [()]), DEFAULT_FIELD)
        assert betti == {-1: 1}

    def test_torsion_shows_up_only_mod_two(self):
        cx = RP2
        assert reduced_betti(cx, DEFAULT_FIELD) == {-1: 0, 0: 0, 1: 0, 2: 0}
        assert reduced_betti(cx, GF2) == {-1: 0, 0: 0, 1: 1, 2: 1}

    def test_full_simplex_acyclic(self):
        cx = SimplicialComplex.from_facets(V4, [range(4)])
        assert not any(reduced_betti(cx, GF2).values())

    def test_cleared_faces_get_no_column(self, monkeypatch):
        # a d-face that is a pivot row of the d+1 map gets no column (clearing),
        # and a face whose apparent pivot row is free gets one only if a later
        # reduction needs it, so fewer than f_d - rank(d+1 map) are built; the
        # projective plane has torsion, so it is reduced at each prime
        cx = RP2
        for field in (DEFAULT_FIELD, GF2):
            ranks = {d: rank(boundary_matrix(cx.facets, d, field), field) for d in range(4)}
            cleared = {d: pivot_rows(cx, d + 1, field) for d in range(3)}
            built: list[int] = []
            real = homology._boundary_column

            def counted(m):
                built.append(m)
                return real(m)

            for layer in (homology.FaceBitmaps, homology.FaceSets):
                built.clear()
                monkeypatch.setattr(homology, "_boundary_column", counted)
                found = layer(cx.facet_masks()).sweep(field.characteristic)
                monkeypatch.undo()
                assert found == {d: ranks[d] for d in range(3)}
                assert len(built) == len(set(built))
                assert not set(built) & set().union(*cleared.values())
                by_dim = {d: sum(1 for m in built if m.bit_count() == d + 1) for d in range(3)}
                room = {d: len(oracles.faces(cx.facets, d)) - ranks[d + 1] for d in range(3)}
                assert all(by_dim[d] <= room[d] for d in range(3))
                assert sum(by_dim.values()) < sum(room.values())
                assert by_dim[0] == 0
            assert ranks[3] == 0 and ranks[2] > 0

    def test_rank_beyond_face_count_raises(self, monkeypatch):
        # one pivot too many on every map makes some Betti number negative
        real = homology._boundary_ranks
        calls = []

        def one_too_many(by_dim, field):
            calls.append(field)
            return {d: r + 1 for d, r in real(by_dim, field).items()}

        monkeypatch.setattr(homology, "_boundary_ranks", one_too_many)
        for field in (DEFAULT_FIELD, GF2):
            with pytest.raises(ArithmeticError):
                reduced_betti(HOLLOW_TRIANGLE, field)
        assert calls == [DEFAULT_FIELD, GF2]


class TestOneReductionForEveryField:
    """One reduction over the integers serves every prime when each of its
    pivots is +-1; a complex that meets another pivot value is reduced again
    at each prime, so torsion still shows."""

    @staticmethod
    def moduli(monkeypatch):
        # the modulus of every reduction made, 0 for the integers
        calls = []
        for layer in (homology.FaceBitmaps, homology.FaceSets):

            def counted(faces, p, real=layer.sweep):
                calls.append(p)
                return real(faces, p)

            monkeypatch.setattr(layer, "sweep", counted)
        return calls

    def test_torsion_takes_the_prime_by_prime_reduction(self, monkeypatch):
        calls = self.moduli(monkeypatch)
        core = [(RP2.facet_masks(), [(6, 1)])]
        modp, gf2 = betti._sweep_chunk("hochster", core, [DEFAULT_FIELD, GF2])
        assert calls == [0, 32003, 2]
        # H~_1 and H~_2 are Z/2 and 0 over the integers: seen only mod 2
        assert modp == {} and gf2 == {(3, 6): 1, (2, 6): 1}

    @pytest.mark.parametrize("layer", [homology.FaceBitmaps, homology.FaceSets])
    def test_certified_complex_is_reduced_once(self, monkeypatch, layer):
        calls = self.moduli(monkeypatch)
        faces = layer(HOLLOW_TRIANGLE.facet_masks())
        for field in (DEFAULT_FIELD, GF2, FieldSpec(3)):
            assert homology.betti_of_face_masks(faces, field) == {-1: 0, 0: 0, 1: 1}
        assert calls == [0]

    def test_many_vertices_small_facets(self, monkeypatch):
        # 40 isolated points and a 40-cycle: sets of masks, one reduction
        calls = self.moduli(monkeypatch)
        points = SimplicialComplex.from_facets(VariableSet.generic(40), [{v} for v in range(40)])
        cycle = SimplicialComplex.from_facets(VariableSet.generic(40), [{v, (v + 1) % 40} for v in range(40)])
        for field in (DEFAULT_FIELD, GF2):
            assert reduced_betti(points, field) == {-1: 0, 0: 39}
            assert reduced_betti(cycle, field) == {-1: 0, 0: 0, 1: 1}
        assert calls == [0] * 4

    def test_report_cores_are_reduced_once_for_both_fields(self, monkeypatch):
        # every distinct core of the cross-checked 3x4 report is certified:
        # one integer reduction, which the GF(2) call reads back
        calls = self.moduli(monkeypatch)
        reads = []
        real = betti.betti_of_face_masks

        def counted(by_dim, field):
            reads.append(field.characteristic)
            return real(by_dim, field)

        monkeypatch.setattr(betti, "betti_of_face_masks", counted)
        board = Board(3, 4)
        ideal, perms = facet_ideal(board), board_symmetries(board)
        betti.clear_table_cache()
        report = invariant_report(ideal, symmetries=perms, cross_check=True)
        betti.clear_table_cache()
        assert not report.torsion_warning
        cores = betti._sweep_plan("hochster", ideal, perms).cores
        assert calls == [0] * len(cores)
        assert sorted(reads) == [2] * len(cores) + [32003] * len(cores)

    @pytest.mark.parametrize("layer", [homology.FaceBitmaps, homology.FaceSets])
    @pytest.mark.parametrize("cx, reduced_at", [(HOLLOW_TRIANGLE, 0), (RP2, 32003), (RP2, 2)])
    def test_wrong_rank_raises_on_either_path(self, monkeypatch, cx, reduced_at, layer):
        # one pivot too many on every map, on the integer reduction or on
        # the one at a prime, makes some Betti number negative
        real = layer.sweep

        def one_too_many(faces, p):
            ranks = real(faces, p)
            if p != reduced_at or ranks is None:
                return ranks
            return {d: r + 1 for d, r in ranks.items()}

        monkeypatch.setattr(layer, "sweep", one_too_many)
        field = DEFAULT_FIELD if reduced_at != 2 else GF2
        with pytest.raises(ArithmeticError):
            homology.betti_of_face_masks(layer(cx.facet_masks()), field)


def pivot_rows(cx, d, field):
    """The faces that are pivot rows of the reduced d-th boundary map, from
    plain ranks: the rows from i down have rank equal to the number of pivots
    among them, whatever column operations were made, so row i is a pivot
    exactly when including it raises that rank."""
    mx = boundary_matrix(cx.facets, d, field)
    faces = oracles.faces(cx.facets, d - 1)
    tail = [rank(mx[i:], field) for i in range(len(mx) + 1)]
    return {_mask_of(faces[i]) for i in range(len(mx)) if tail[i] > tail[i + 1]}


def test_plan_jobs_match_plain_ranks(monkeypatch):
    # every core that both sweep plans of the 3x4 facet ideal reduce: the
    # lazy kernel against the ranks of the bare boundary maps; some
    # reductions build a deferred pivot column
    board = Board(3, 4)
    ideal, perms = facet_ideal(board), board_symmetries(board)
    real = homology._reduce_column
    deferred = []

    def watched(col, pivots, p, claimer):
        deferred.append(max(col) not in pivots and claimer(max(col)) is not None)
        return real(col, pivots, p, claimer)

    monkeypatch.setattr(homology, "_reduce_column", watched)
    for route in ("hochster", "koszul"):
        for facets, _ in betti._sweep_plan(route, ideal, perms).cores:
            by_dim = homology.faces_by_dim_masks(facets)
            plain_facets = [tuple(_bits(f)) for f in facets]
            for field in (DEFAULT_FIELD, GF2):
                expected = oracles.plain_betti(plain_facets, field)
                assert homology.betti_of_face_masks(by_dim, field) == expected
    betti.clear_table_cache()
    assert any(deferred)


def test_import_needs_no_numpy():
    src = Path(homology.__file__).resolve().parents[1]
    probe = "import sys, rookideal; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
