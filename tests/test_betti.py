import itertools
import random

import pytest

from rookideal import (
    GF2,
    DEFAULT_FIELD,
    Board,
    FieldSpec,
    Monomial,
    MonomialIdeal,
    VariableSet,
    betti_table,
    betti_table_hochster,
    betti_table_koszul,
    board_symmetries,
    colon_sequence_reg_bound,
    facet_ideal,
    fixture_ideal,
    hilbert_series,
    invariant_report,
    min_gens,
    private_variable_reg,
    stanley_reisner_ideal,
    sum_formula_predict,
    terai_check,
)

import oracles

V2 = VariableSet.generic(2)
EDGE = min_gens([Monomial(V2, (1, 1))], V2)


class TestKoszulRoute:
    def test_principal_ideal(self):
        table = betti_table_koszul(EDGE)
        assert table.entries == {(0, 2): 1}
        assert table.reg() == 2 and table.pd() == 0

    def test_two_by_two_matches_taylor_oracle(self):
        ideal = facet_ideal(Board(2, 2))
        assert betti_table_koszul(ideal).entries == oracles.taylor_two_generators(ideal)

    def test_generator_row_counts_degrees(self):
        ideal = facet_ideal(Board(2, 3)) ** 2
        table = betti_table_koszul(ideal)
        by_degree = {}
        for g in ideal.gens:
            by_degree[g.degree] = by_degree.get(g.degree, 0) + 1
        assert {j: b for (i, j), b in table.entries.items() if i == 0} == by_degree

    def test_square_power_regularity(self):
        quotient = betti_table_koszul(facet_ideal(Board(2, 2)) ** 2).quotient()
        assert quotient.reg() == 4

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            betti_table_koszul(MonomialIdeal.zero(V2))
        with pytest.raises(ValueError):
            betti_table_koszul(MonomialIdeal.unit_ideal(V2))


class TestHochsterRoute:
    def test_edge(self):
        assert betti_table_hochster(EDGE).entries == {(0, 2): 1}

    def test_two_by_three_board(self):
        quotient = betti_table_hochster(facet_ideal(Board(2, 3))).quotient()
        assert quotient.reg() == 2
        assert quotient.pd() == 4
        assert quotient.depth() == 2

    def test_three_by_three_board(self):
        quotient = betti_table_hochster(facet_ideal(Board(3, 3))).quotient()
        assert quotient.reg() == 4

    def test_rejects_non_squarefree(self):
        with pytest.raises(ValueError):
            betti_table_hochster(facet_ideal(Board(2, 2)) ** 2)

    def test_prime_beyond_word_products_matches_32003(self):
        # p^2 > 2^63 here, so any fixed-width product of two residues would wrap
        board = Board(3, 4)
        ideal = facet_ideal(board)
        big = betti_table_hochster(ideal, FieldSpec(4294967311), board_symmetries(board))
        usual = betti_table_hochster(ideal, DEFAULT_FIELD, board_symmetries(board))
        assert big.entries == usual.entries
        assert big.quotient().reg() == 4

    def test_matches_full_subset_oracle(self):
        for ideal in (
            facet_ideal(Board(2, 2)),
            fixture_ideal("L_six"),
            stanley_reisner_ideal(Board(2, 2)),
        ):
            expected = oracles.full_subset_hochster(ideal, DEFAULT_FIELD)
            assert betti_table_hochster(ideal).entries == expected

    def test_symmetry_orbits_change_nothing(self):
        for m, n in [(2, 3), (3, 3)]:
            board = Board(m, n)
            ideal = facet_ideal(board)
            plain = betti_table_hochster(ideal)
            from rookideal.betti import clear_table_cache

            clear_table_cache()
            orbit = betti_table_hochster(ideal, symmetries=board_symmetries(board))
            assert plain.entries == orbit.entries

    def test_threads_change_nothing(self):
        from rookideal.betti import clear_table_cache

        ideal = facet_ideal(Board(2, 4))
        plain = betti_table_hochster(ideal)
        clear_table_cache()
        threaded = betti_table_hochster(ideal, threads=2)
        assert plain.entries == threaded.entries

    def test_threads_and_symmetries_together(self):
        from rookideal.betti import clear_table_cache

        board = Board(3, 4)
        ideal = facet_ideal(board)
        plain = betti_table_hochster(ideal)
        clear_table_cache()
        combined = betti_table_hochster(
            ideal, symmetries=board_symmetries(board), threads=2
        )
        assert plain.entries == combined.entries


class TestTableViews:
    def test_quotient_shift(self):
        ideal = facet_ideal(Board(2, 3))
        table = betti_table(ideal)
        quotient = table.quotient()
        assert quotient.beta(0, 0) == 1
        for (i, j), b in table.entries.items():
            assert quotient.beta(i + 1, j) == b
        assert quotient.reg() == table.reg() - 1
        assert quotient.pd() == table.pd() + 1

    def test_json_shape(self):
        payload = betti_table(EDGE).to_json_dict()
        assert payload == {
            "subject": "ideal",
            "field": 32003,
            "ambient": 2,
            "entries": [[0, 2, 1]],
            "reg": 2,
            "pd": 0,
        }

    def test_text_triangle(self):
        text = betti_table(facet_ideal(Board(2, 2))).to_text()
        lines = text.splitlines()
        assert lines[0].split() == ["0", "1"]
        assert lines[1].split() == ["total:", "2", "1"]


class TestInvariantReport:
    def test_row_board_power(self):
        ideal = facet_ideal(Board(1, 3)) ** 2
        report = invariant_report(ideal)
        assert report.reg == 1 and report.depth == 0

    def test_three_by_three(self):
        report = invariant_report(facet_ideal(Board(3, 3)))
        assert (report.reg, report.pd, report.depth) == (4, 5, 4)
        assert (report.dim, report.height, report.bight) == (6, 3, 4)
        assert report.a_invariant == 0

    def test_fixture_regularity(self):
        assert betti_table(fixture_ideal("L_six")).reg() == 3

    def test_extra_ambient_raises_depth_and_dim(self):
        base = invariant_report(EDGE)
        extended = invariant_report(EDGE, ambient_count=4)
        assert extended.depth == base.depth + 2
        assert extended.dim == base.dim + 2
        assert (extended.reg, extended.pd) == (base.reg, base.pd)

    def test_ambient_below_support_rejected(self):
        with pytest.raises(ValueError):
            invariant_report(facet_ideal(Board(2, 2)), ambient_count=3)

    def test_cross_check_flags_nothing_on_small_boards(self):
        report = invariant_report(facet_ideal(Board(2, 3)), cross_check=True)
        assert report.torsion_warning is False

    def test_cross_check_flags_characteristic_dependence(self):
        # non-face ideal of a 6-vertex projective-plane triangulation: the
        # classic example whose resolution grows one step longer mod 2
        from rookideal import SimplicialComplex, sr_ideal_of_complex

        facets = [
            [0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 1, 5],
            [1, 2, 4], [1, 3, 4], [1, 3, 5], [2, 3, 5], [2, 4, 5],
        ]
        cx = SimplicialComplex.from_facets(VariableSet.generic(6), facets)
        ideal = sr_ideal_of_complex(cx)
        report = invariant_report(ideal, cross_check=True)
        assert report.torsion_warning is True
        assert betti_table(ideal, DEFAULT_FIELD).pd() == 2
        assert betti_table(ideal, GF2).pd() == 3

    def test_power_report_uses_radical_primes(self):
        report = invariant_report(facet_ideal(Board(2, 3)) ** 2)
        assert (report.height, report.dim, report.bight) == (3, 3, 4)


class TestSweepPlan:
    @pytest.fixture
    def plan_counts(self, monkeypatch):
        from rookideal import betti

        betti.clear_table_cache()
        counts = {"hochster": 0, "koszul": 0}
        for route in counts:
            build = getattr(betti, f"_{route}_plan")

            def counted(*args, route=route, build=build):
                counts[route] += 1
                return build(*args)

            monkeypatch.setattr(betti, f"_{route}_plan", counted)
        yield counts
        betti.clear_table_cache()

    def test_cross_checked_report_builds_one_plan_per_route(self, plan_counts):
        board = Board(2, 3)
        perms = board_symmetries(board)
        report = invariant_report(facet_ideal(board) ** 2, symmetries=perms, cross_check=True)
        assert not report.torsion_warning
        assert plan_counts == {"hochster": 0, "koszul": 1}
        invariant_report(facet_ideal(board), symmetries=perms, cross_check=True)
        assert plan_counts == {"hochster": 1, "koszul": 1}

    def test_dual_char_reg_builds_one_plan(self, plan_counts):
        from rookideal.verify import _dual_char_reg

        assert _dual_char_reg(fixture_ideal("L_six")) == (3, True)
        assert sum(plan_counts.values()) == 1

    def test_other_symmetries_get_a_fresh_plan_and_check(self, plan_counts):
        board = Board(2, 3)
        ideal = facet_ideal(board) ** 2
        betti_table_koszul(ideal, DEFAULT_FIELD, symmetries=board_symmetries(board))
        swap = (1, 0) + tuple(range(2, 6))  # x11 <-> x12 alone moves x11*x22 off the ideal
        for _ in range(2):
            with pytest.raises(ValueError, match="does not fix"):
                betti_table_koszul(ideal, GF2, symmetries=[swap])
        with pytest.raises(ValueError, match="not a permutation"):
            betti_table_koszul(ideal, GF2, symmetries=[(0,) * 6])
        assert plan_counts["koszul"] == 4

    def test_clear_table_cache_drops_the_plan(self, plan_counts):
        from rookideal import betti

        ideal = facet_ideal(Board(2, 3)) ** 2
        betti_table_koszul(ideal)
        assert len(betti._PLAN_MEMO) == 1
        betti.clear_table_cache()
        assert not betti._PLAN_MEMO and not betti._TABLE_CACHE
        betti_table_koszul(ideal, GF2)
        assert plan_counts["koszul"] == 2

    def test_threads_match_serial_on_the_lattice_route(self):
        from rookideal.betti import clear_table_cache

        board = Board(2, 3)
        ideal = facet_ideal(board) ** 3
        clear_table_cache()
        serial = betti_table_koszul(ideal, symmetries=board_symmetries(board))
        clear_table_cache()
        threaded = betti_table_koszul(ideal, symmetries=board_symmetries(board), threads=2)
        assert serial.entries == threaded.entries and serial.quotient().reg() == 6

    def test_second_call_returns_the_cached_table(self, plan_counts):
        from rookideal import betti

        # the 2x3 board ideal's tables mix sphere entries and reduced cores
        ideal = facet_ideal(Board(2, 3))
        for route in (betti_table_hochster, betti_table_koszul):
            for field in (DEFAULT_FIELD, GF2):
                first = route(ideal, field)
                assert route(ideal, field) is first
        plan = next(iter(betti._PLAN_MEMO.values()))
        assert plan.spheres and plan.cores
        assert plan_counts == {"hochster": 1, "koszul": 1}

    def test_cached_table_still_checks_symmetries(self):
        from rookideal.betti import clear_table_cache

        ideal = facet_ideal(Board(2, 3)) ** 2
        clear_table_cache()
        betti_table_koszul(ideal)
        with pytest.raises(ValueError, match="does not fix"):
            betti_table_koszul(ideal, symmetries=[(1, 0, 2, 3, 4, 5)])
        clear_table_cache()


def _board_cases(board, t, seed):
    """The board ideal power with its symmetry group, and a copy relabelled
    by a seeded permutation sigma with the group conjugated to match: the
    permutation pi becomes sigma pi sigma^-1."""
    ideal = facet_ideal(board) ** t
    perms = board_symmetries(board)
    count = ideal.ambient.count
    sigma = list(range(count))
    random.Random(seed).shuffle(sigma)
    inverse = [sigma.index(k) for k in range(count)]
    conjugated = [tuple(sigma[perm[inverse[k]]] for k in range(count)) for perm in perms]
    return [(ideal, perms), (ideal.permuted(sigma), conjugated)]


class TestOrbitSweep:
    """With symmetries the plan joins orbit representatives with the
    generators instead of closing the whole lattice."""

    @staticmethod
    def lattices(ideal, perms):
        """(generators, join, lane join, closure, images) for each lattice
        the ideal's routes sweep: the union lattice of a squarefree ideal and
        the lcm lattice of any."""
        from rookideal import betti

        count = ideal.ambient.count
        out = []
        if ideal.is_squarefree:
            masks = [g.support_mask() for g in ideal.gens]
            images = betti._symmetry_images(masks, perms, 1, list(range(count)))
            closure = betti._closure(masks, betti._unions)
            out.append((masks, betti._unions, betti._lane_unions, closure, images))
        vectors = [g.exponents for g in ideal.gens]
        width = betti._field_width(vectors)
        gens = [betti._pack(v, width) for v in vectors]
        images = betti._symmetry_images(gens, perms, width, betti._vector_offsets(width, count))
        joins, lanes = betti._swar_joins(width, count), betti._lane_swar_joins(width, count)
        out.append((gens, joins, lanes, betti._join_closure(gens, width, count), images))
        return out

    @pytest.mark.parametrize("m, n, t", [(2, 3, 1), (2, 3, 2), (2, 3, 3), (2, 4, 1), (2, 4, 2), (3, 4, 1)])
    def test_orbits_partition_the_closure(self, m, n, t):
        from rookideal import betti

        for ideal, perms in _board_cases(Board(m, n), t, seed=100 * m + 10 * n + t):
            for gens, joins, lanes, closure, images in self.lattices(ideal, perms):
                assert betti._orbit_jobs(gens, joins, None) == [(x, 1) for x in closure]
                jobs = betti._orbit_jobs(gens, lanes, images)
                assert sum(weight for _, weight in jobs) == len(closure)
                covered = set()
                for rep, weight in jobs:
                    orbit = set(images(rep)) | {rep}
                    assert len(orbit) == weight and rep == min(orbit)
                    assert covered.isdisjoint(orbit)  # no two representatives share an orbit
                    covered |= orbit
                assert covered == set(closure)

    def test_duplicate_symmetries_give_the_same_jobs(self):
        from rookideal import betti

        board = Board(2, 4)
        perms = board_symmetries(board)
        repeated = perms + perms[::3] + perms[:1]
        assert betti._hochster_plan(facet_ideal(board), repeated) == betti._hochster_plan(facet_ideal(board), perms)
        ideal = facet_ideal(board) ** 2
        assert betti._koszul_plan(ideal, repeated) == betti._koszul_plan(ideal, perms)
        betti.clear_table_cache()

    def test_board_group_plus_a_non_fixing_permutation_raises(self):
        from rookideal.betti import clear_table_cache

        board = Board(2, 3)
        swap = (1, 0) + tuple(range(2, 6))  # x11 <-> x12 alone moves x11*x22 off the ideal
        perms = board_symmetries(board) + [swap]
        for route, ideal in ((betti_table_hochster, facet_ideal(board)), (betti_table_koszul, facet_ideal(board) ** 2)):
            clear_table_cache()
            with pytest.raises(ValueError, match="does not fix"):
                route(ideal, symmetries=perms)
        clear_table_cache()

    def test_symmetries_that_are_not_a_group_raise(self):
        from rookideal.betti import clear_table_cache

        # both lists fix the generators of (x1 x2, x1 x3, x2 x3)^2; the orbit
        # sizes of the first are not orbit sizes, so its table would be wrong
        ideal = facet_ideal(Board(1, 3)) ** 2
        rotations = [(0, 1, 2), (1, 2, 0)]
        clear_table_cache()
        with pytest.raises(ValueError, match="not closed under composition"):
            betti_table_koszul(ideal, symmetries=rotations)
        expected = {(0, 2): 6, (1, 3): 8, (2, 4): 3}
        assert betti_table_koszul(ideal, symmetries=rotations + [(2, 0, 1)]).entries == expected
        with pytest.raises(ValueError, match="identity is missing"):
            betti_table_koszul(ideal, symmetries=[(1, 2, 0), (2, 0, 1)])
        board = Board(3, 3)
        perms = board_symmetries(board)
        for route, power in ((betti_table_hochster, 1), (betti_table_koszul, 2)):
            for k in (1, 35, 71):  # drop one permutation from the group of order 72
                clear_table_cache()
                with pytest.raises(ValueError, match="not closed under composition"):
                    route(facet_ideal(board) ** power, symmetries=perms[:k] + perms[k + 1 :])
        clear_table_cache()

    def test_only_the_group_generators_are_checked(self):
        from rookideal import betti

        board = Board(4, 4)
        perms = board_symmetries(board)
        admitted = []
        betti._require_group(perms, 16, admitted.append)
        assert len(admitted) <= 10  # 1,152 = 2^7 * 3^2
        group = {tuple(range(16))}
        while True:  # the closure of the admitted ones under composition is the whole list
            grown = group | {tuple(g[i] for i in h) for g in group for h in admitted}
            if grown == group:
                break
            group = grown
        assert group == set(perms)

    def test_a_member_outside_the_group_is_checked(self):
        from rookideal.betti import clear_table_cache

        # a non-permutation is never reached from the group, so it becomes a
        # generator and is checked before anything is composed with it
        board = Board(2, 3)
        ideal = facet_ideal(board) ** 2
        for bad in ((0,) * 6, (0, 1, 2, 3, 4), (0, 1, 2, 3, 4, 6)):
            clear_table_cache()
            with pytest.raises(ValueError, match="not a permutation"):
                betti_table_koszul(ideal, symmetries=board_symmetries(board) + [bad])
        # the symmetric group on the variables is closed, but does not fix the ideal
        clear_table_cache()
        with pytest.raises(ValueError, match="does not fix"):
            betti_table_koszul(ideal, symmetries=list(itertools.permutations(range(6))))
        clear_table_cache()

    @pytest.mark.parametrize("m, n, t", [(2, 3, 1), (2, 3, 3), (2, 4, 2), (3, 3, 1), (3, 4, 1)])
    def test_tables_match_tables_without_symmetries(self, m, n, t):
        from rookideal.betti import clear_table_cache

        for ideal, perms in _board_cases(Board(m, n), t, seed=100 * m + 10 * n + t):
            routes = [betti_table_koszul] + ([betti_table_hochster] if ideal.is_squarefree else [])
            for route in routes:
                for field in (DEFAULT_FIELD, GF2):
                    clear_table_cache()
                    orbits = route(ideal, field, symmetries=perms)
                    clear_table_cache()
                    plain = route(ideal, field)
                    assert orbits.entries == plain.entries
        clear_table_cache()


class TestWideLanes:
    """Packed points wider than 64 bits, so lanes of more than one word,
    through the whole table: with and without symmetries, both fields."""

    @staticmethod
    def tables(ideal, perms, routes):
        from rookideal.betti import clear_table_cache

        out = []
        for route in routes:
            for field in (DEFAULT_FIELD, GF2):
                for symmetries in (perms, None):
                    clear_table_cache()
                    out.append(route(ideal, field, symmetries=symmetries).entries)
        clear_table_cache()
        return out

    def test_three_disjoint_blocks_on_66_variables(self):
        # blocks of 2, 2 and 62 variables: 66-bit support masks (16-byte
        # lanes) and 132-bit exponent vectors (24-byte lanes); the blocks are
        # coprime, so the table is the Koszul complex's
        ambient = VariableSet.generic(66)
        blocks = (range(0, 2), range(2, 4), range(4, 66))
        ideal = min_gens([Monomial.from_support(ambient, block) for block in blocks], ambient)
        swap = (2, 3, 0, 1) + tuple(range(4, 66))  # the two small blocks
        perms = [tuple(range(66)), swap]
        expected = {(0, 2): 2, (0, 62): 1, (1, 4): 1, (1, 64): 2, (2, 66): 1}
        assert self.tables(ideal, perms, (betti_table_koszul, betti_table_hochster)) == [expected] * 8

    def test_square_of_an_eight_cycle_with_exponent_200(self):
        # exponents up to 400 in 10-bit fields: 80-bit points, 16-byte lanes;
        # raising every variable to the 200th power scales every degree by 200
        ambient = VariableSet.generic(8)

        def cycle(e):
            edges = [tuple(e if k in (i, (i + 1) % 8) else 0 for k in range(8)) for i in range(8)]
            return min_gens([Monomial(ambient, v) for v in edges], ambient)

        dihedral = [tuple((s * i + k) % 8 for i in range(8)) for k in range(8) for s in (1, -1)]
        assert len(set(dihedral)) == 16
        tables = self.tables(cycle(200) ** 2, dihedral, (betti_table_koszul,))
        plain = betti_table_koszul(cycle(1) ** 2)
        assert tables == [{(i, 200 * j): b for (i, j), b in plain.entries.items()}] * 4
        assert plain.entries == {(0, 4): 36, (1, 5): 64, (1, 6): 48, (2, 6): 28, (2, 7): 120, (3, 8): 95, (4, 9): 24}
        # reg(I(C_n)^t) = 2t + nu - 1 with nu = floor(n / 3) (Beyarslan, Ha and Trung 2015)
        assert plain.reg() == 5


def _random_squarefree_ideals(count: int, nvars: int, seed: int):
    rng = random.Random(seed)
    ambient = VariableSet.generic(nvars)
    out = []
    for _ in range(count):
        gens = [
            Monomial.from_support(ambient, rng.sample(range(nvars), rng.randint(2, 4)))
            for _ in range(rng.randint(3, 6))
        ]
        out.append(min_gens(gens, ambient))
    return out


class TestStrongCore:
    """Plan jobs hold the strong core of their complex (dominated vertices
    deleted until none is left), and jobs whose core is a point are dropped."""

    @staticmethod
    def reduced(facets, field):
        from rookideal.homology import betti_of_face_masks, faces_by_dim_masks

        if facets is None:  # a dropped job: a point, all reduced Betti numbers 0
            return {}
        found = betti_of_face_masks(faces_by_dim_masks(facets), field)
        return {d: v for d, v in found.items() if v}

    def test_irrelevant_complex_is_kept(self):
        from rookideal.betti import _strong_core

        assert _strong_core((0,)) == (0,)
        assert _strong_core([0, 0]) == (0,)
        for field in (DEFAULT_FIELD, GF2):
            assert self.reduced((0,), field) == {-1: 1}

    @pytest.mark.parametrize(
        "facets",
        [
            (0b1,),  # a single vertex
            (0b111,),  # a simplex
            (0b111, 0b011, 0b100),  # a simplex listed with some of its faces
            (0b1011, 0b1110, 0b1101),  # the cone over a hollow triangle, apex 3
            (0b00111, 0b01100, 0b11000),  # a path of a triangle and two edges
        ],
    )
    def test_contractible_cores_are_dropped(self, facets):
        from rookideal.betti import _strong_core

        assert _strong_core(facets) is None
        for field in (DEFAULT_FIELD, GF2):
            assert self.reduced(facets, field) == {}

    @pytest.mark.parametrize(
        "facets",
        [
            (0b0111, 0b1011, 0b1101, 0b1110),  # the boundary of the 3-simplex
            (0b011, 0b101, 0b110),  # the hollow triangle
            (0b0011, 0b1100),  # two disjoint edges collapse to two points
        ],
    )
    def test_cores_keep_homology(self, facets):
        from rookideal.betti import _strong_core

        core = _strong_core(facets)
        for field in (DEFAULT_FIELD, GF2):
            assert self.reduced(core, field) == self.reduced(facets, field)
        assert _strong_core(core) == core

    def test_simplex_boundary_has_no_dominated_vertex(self):
        from rookideal.betti import _strong_core

        boundary = (0b0111, 0b1011, 0b1101, 0b1110)
        assert _strong_core(boundary) == boundary
        points = _strong_core((0b11, 0b1100))
        assert len(points) == 2 and all(m.bit_count() == 1 for m in points)

    def test_vertex_dominated_after_a_later_deletion(self):
        from rookideal.betti import _strong_core

        # vertex 0 joins leaves 1 and 2 to the hollow triangle 3, 4, 5; it is
        # dominated by 3 only once the higher vertices 1 and 2 are deleted
        whiskered = (0b11, 0b101, 0b1001, 0b11000, 0b101000, 0b110000)
        assert _strong_core(whiskered) == (0b11000, 0b101000, 0b110000)

    def test_plans_match_uncollapsed_plans(self, monkeypatch):
        # the plain plan reduces every job's whole complex: no strong core and
        # no sphere rule
        from rookideal import betti

        def reduced_jobs(plan):
            return sum(len(placements) for _, placements in plan.cores)

        ideals = [facet_ideal(Board(2, 3)) ** 2, facet_ideal(Board(2, 3))]
        ideals += _random_squarefree_ideals(6, 7, seed=4)
        shrunk = 0
        for ideal in ideals:
            routes = [betti_table_koszul] + ([betti_table_hochster] if ideal.is_squarefree else [])
            for route in routes:
                for field in (DEFAULT_FIELD, GF2):
                    betti.clear_table_cache()
                    cored = route(ideal, field)
                    cored_plan = next(iter(betti._PLAN_MEMO.values()))
                    with monkeypatch.context() as patched:
                        patched.setattr(betti, "_strong_core", lambda facets: tuple(sorted(set(facets))))
                        patched.setattr(betti, "_sphere_dimension", lambda facets: None)
                        betti.clear_table_cache()
                        full = route(ideal, field)
                        full_plan = next(iter(betti._PLAN_MEMO.values()))
                    assert cored.entries == full.entries
                    assert not full_plan.spheres
                    assert reduced_jobs(cored_plan) <= reduced_jobs(full_plan)
                    shrunk += reduced_jobs(cored_plan) < reduced_jobs(full_plan)
        betti.clear_table_cache()
        assert shrunk  # the core did drop jobs, so the comparison means something


def _join_of_boundaries(sizes, count, seed):
    """The facet masks of the join of the boundaries of simplices with the
    given vertex counts, on vertices drawn by a seeded shuffle of range(count),
    and the vertex count of that join."""
    labels = list(range(count))
    random.Random(seed).shuffle(labels)
    parts, at = [], 0
    for size in sizes:
        parts.append([1 << v for v in labels[at : at + size]])
        at += size
    vertices = sum(sum(part) for part in parts)
    facets = {vertices ^ sum(pick) for pick in itertools.product(*parts)}
    return sorted(facets), at


class TestSphereCores:
    """A core that is a join of simplex boundaries gets its homology in
    closed form; every other core is reduced once per field, whatever the
    number of jobs that share it."""

    @staticmethod
    def reduced(facets, field):
        from rookideal.homology import betti_of_face_masks, faces_by_dim_masks

        found = betti_of_face_masks(faces_by_dim_masks(facets), field)
        return {d: v for d, v in found.items() if v}

    @pytest.mark.parametrize(
        "sizes", [(2,), (3,), (5,), (2, 2), (2, 3), (3, 4), (2, 2, 2), (2, 3, 4), (4, 2, 3)]
    )
    def test_relabelled_joins_are_recognised(self, sizes):
        from rookideal import betti

        for seed in range(3):
            facets, used = _join_of_boundaries(sizes, 10, seed)
            d = used - len(sizes) - 1
            assert betti._sphere_dimension(facets) == d
            assert betti._strong_core(facets) == tuple(facets)  # no dominated vertex
            for field in (DEFAULT_FIELD, GF2):
                assert self.reduced(facets, field) == {d: 1}
            for k in range(len(facets)):
                assert betti._sphere_dimension(facets[:k] + facets[k + 1 :]) is None

    def test_degenerate_complexes(self):
        from rookideal import betti

        assert betti._sphere_dimension((0,)) == -1  # the irrelevant complex: S^-1
        assert betti._sphere_dimension((0b111,)) is None  # a simplex is a ball
        assert betti._sphere_dimension((0b1011, 0b1101, 0b1110)) is None  # a cone over a hollow triangle
        # three points: vertex 2 lies outside c0 = {0, 1} and joins both parts
        assert betti._sphere_dimension((0b01, 0b10, 0b100)) is None
        # a point beside a connected graph with two independent cycles: its
        # parts cover the vertices and their sizes multiply to the facet
        # count, but the complements are not all transversals
        graph = (0b1, 0b110, 0b1010, 0b1100, 0b10010, 0b10100)
        assert betti._strong_core(graph) == graph
        assert betti._sphere_dimension(graph) is None
        assert self.reduced(graph, DEFAULT_FIELD) == {0: 1, 1: 2}

    def test_plan_reduces_each_distinct_core_once(self, monkeypatch):
        from rookideal import betti
        from rookideal.homology import betti_of_face_masks

        seen = []

        def counted(by_dim, field):
            seen.append((tuple(sorted(m for faces in by_dim.values() for m in faces)), field))
            return betti_of_face_masks(by_dim, field)

        monkeypatch.setattr(betti, "betti_of_face_masks", counted)
        shared = 0
        for ideal in _random_squarefree_ideals(20, 7, seed=9):
            for route in (betti_table_hochster, betti_table_koszul):
                betti.clear_table_cache()
                seen.clear()
                for field in (DEFAULT_FIELD, GF2):
                    route(ideal, field)
                plan = next(iter(betti._PLAN_MEMO.values()))
                assert len(seen) == len(set(seen)) == 2 * len(plan.cores)
                for core, placements in plan.cores:
                    assert betti._sphere_dimension(core) is None
                    shared += len(placements) > 1
        betti.clear_table_cache()
        assert shared  # some core stands for several jobs

    def test_threads_match_serial_with_spheres_and_repeated_cores(self):
        # plans with at least 16 distinct cores, so that two workers get
        # them in chunks, some sphere jobs and a core shared by two jobs
        from rookideal import betti

        rng = random.Random(11)
        ambient = VariableSet.generic(10)
        checked = 0
        for _ in range(100):
            gens = [
                Monomial.from_support(ambient, rng.sample(range(10), rng.randint(3, 5)))
                for _ in range(rng.randint(8, 14))
            ]
            ideal = min_gens(gens, ambient)
            betti.clear_table_cache()
            plan = betti._sweep_plan("hochster", ideal, None)
            if len(plan.cores) < 16 or not plan.spheres or all(len(p) == 1 for _, p in plan.cores):
                continue
            for field in (DEFAULT_FIELD, GF2):
                betti.clear_table_cache()
                serial = betti_table_hochster(ideal, field)
                betti.clear_table_cache()
                assert betti_table_hochster(ideal, field, threads=2).entries == serial.entries
            checked += 1
            if checked == 3:
                break
        betti.clear_table_cache()
        assert checked == 3


class TestHilbert:
    def test_edge_series(self):
        series = hilbert_series(EDGE)
        assert series.numerator == (1, 1)
        assert series.denominator_power == 1
        assert series.a_invariant == 0

    def test_two_by_two(self):
        series = hilbert_series(facet_ideal(Board(2, 2)))
        assert series.numerator == (1, 2, 1)
        assert series.denominator_power == 2
        assert series.a_invariant == 0

    def test_three_by_three(self):
        assert hilbert_series(facet_ideal(Board(3, 3))).a_invariant == 0

    def test_maximal_ideal(self):
        ideal = facet_ideal(Board(1, 3))
        series = hilbert_series(ideal)
        assert series.numerator == (1,) and series.denominator_power == 0

    def test_zero_ideal_full_ring(self):
        series = hilbert_series(MonomialIdeal.zero(V2))
        assert series.numerator == (1,) and series.denominator_power == 2
        assert series.a_invariant == -2

    def test_rejects_non_squarefree(self):
        with pytest.raises(ValueError):
            hilbert_series(facet_ideal(Board(2, 2)) ** 2)


class TestTerai:
    def test_edge(self):
        assert terai_check(EDGE)

    def test_two_by_two(self):
        assert terai_check(facet_ideal(Board(2, 2)))

    def test_three_by_three(self):
        ideal = facet_ideal(Board(3, 3))
        assert terai_check(ideal, symmetries=board_symmetries(Board(3, 3)))
        assert betti_table_koszul(ideal.alexander_dual()).reg() == 5


class TestPrivateVariableReg:
    def test_disjoint_edges(self):
        ideal = min_gens(
            [
                Monomial(VariableSet.generic(4), (1, 1, 0, 0)),
                Monomial(VariableSet.generic(4), (0, 0, 1, 1)),
            ],
            VariableSet.generic(4),
        )
        assert private_variable_reg(ideal) == 3
        assert betti_table(ideal).reg() == 3

    def test_board_has_no_private_variables(self):
        assert private_variable_reg(facet_ideal(Board(2, 3))) is None

    def test_tail_ideal_from_three_row_argument(self):
        # two nested window products over a 2x4 block: reg = 2n - 3 at n = 4
        n = 4
        vs = Board(2, n).vars
        row1 = Monomial.from_support(vs, range(n))
        mixed = Monomial.from_support(
            vs, [k for k in range(2, n)] + [n + k for k in range(2, n)]
        )
        ideal = min_gens([row1, mixed], vs)
        assert private_variable_reg(ideal) == 2 * n - 3
        assert betti_table(ideal).reg() == 2 * n - 3


class TestColonSequence:
    def test_peel_two_disjoint_edges(self):
        vs = VariableSet.generic(4)
        ideal = min_gens(
            [Monomial(vs, (1, 1, 0, 0)), Monomial(vs, (0, 0, 1, 1))], vs
        )
        bound, trace = colon_sequence_reg_bound(ideal, list(ideal.gens), "peel")
        assert bound == 3 == betti_table(ideal).reg()
        assert len(trace) == 3

    def test_add_empty_order_degenerates(self):
        ideal = facet_ideal(Board(2, 2))
        bound, trace = colon_sequence_reg_bound(ideal, [], "add")
        assert bound == betti_table(ideal).reg()
        assert len(trace) == 1

    def test_three_row_replay(self):
        board = Board(3, 3)
        two_row = facet_ideal(Board(2, 3))
        lifted = [Monomial(board.vars, g.exponents + (0,) * 3) for g in two_row.gens]
        bound, trace = colon_sequence_reg_bound(facet_ideal(board), lifted, "add")
        steps = [s for s in trace if not s.note]
        assert all(s.colon_reg <= 3 for s in steps)
        assert bound <= 5
        assert betti_table(facet_ideal(board)).reg() <= bound

    def test_peel_requires_exact_generators(self):
        ideal = facet_ideal(Board(2, 2))
        with pytest.raises(ValueError):
            colon_sequence_reg_bound(ideal, [ideal.gens[0]], "peel")

    def test_bound_dominates_reg_on_random_orders(self):
        ideal = facet_ideal(Board(2, 3))
        true_reg = betti_table(ideal).reg()
        bound, _ = colon_sequence_reg_bound(ideal, list(ideal.gens), "peel")
        assert bound >= true_reg


class TestSumFormula:
    @staticmethod
    def principal_powers(t):
        # quotient of a degree-2 principal ideal power: reg 2k - 1, depth 1
        return [(2 * k - 1, 1) for k in range(1, t + 1)]

    def test_square_board_power_two(self):
        predicted = sum_formula_predict(self.principal_powers(2), self.principal_powers(2), 2)
        assert predicted == (4, 2)
        report = invariant_report(facet_ideal(Board(2, 2)) ** 2)
        assert predicted == (report.reg, report.depth)

    def test_t_one_reduces_to_sum_law(self):
        assert sum_formula_predict([(1, 1)], [(1, 1)], 1) == (2, 2)

    def test_depth_prediction_constant(self):
        for t in (1, 2, 3):
            predicted = sum_formula_predict(
                self.principal_powers(t), self.principal_powers(t), t
            )
            assert predicted[1] == 2

    def test_incomplete_tables_rejected(self):
        with pytest.raises(ValueError):
            sum_formula_predict([(1, 1)], [(1, 1)], 2)
