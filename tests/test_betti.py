import collections
import functools
import hashlib
import importlib.util
import itertools
import operator
import random
import sys
from pathlib import Path

import pytest

from rookideal import (
    GF2,
    DEFAULT_FIELD,
    BettiTable,
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
        assert quotient.ambient - quotient.pd() == 2

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
        # two disjoint edges (reg 3), and two nested window products over a
        # 2xn block (reg 2n - 3 at n = 4)
        v4, vs = VariableSet.generic(4), Board(2, 4).vars
        edges = min_gens([Monomial(v4, (1, 1, 0, 0)), Monomial(v4, (0, 0, 1, 1))], v4)
        windows = min_gens(
            [Monomial.from_support(vs, range(4)), Monomial.from_support(vs, [2, 3, 6, 7])], vs
        )
        for ideal, reg in ((edges, 3), (windows, 2 * 4 - 3)):
            table = betti_table(ideal)
            assert table.entries == oracles.full_subset_hochster(ideal, DEFAULT_FIELD)
            assert table.reg() == reg

    def test_symmetry_orbits_change_nothing(self):
        for m, n in [(2, 3), (3, 3)]:
            board = Board(m, n)
            ideal = facet_ideal(board)
            plain = betti_table_hochster(ideal)
            from rookideal.betti import clear_table_cache

            clear_table_cache()
            orbit = betti_table_hochster(ideal, symmetries=board_symmetries(board))
            assert plain.entries == orbit.entries

    def test_threads_change_nothing(self, force_pool):
        from rookideal.betti import clear_table_cache

        ideal = facet_ideal(Board(2, 4))
        clear_table_cache()
        plain = betti_table_hochster(ideal)
        clear_table_cache()
        started = force_pool()
        threaded = betti_table_hochster(ideal)
        clear_table_cache()
        assert started == [2] and plain.entries == threaded.entries

    def test_threads_and_symmetries_together(self, force_pool):
        from rookideal.betti import clear_table_cache

        board = Board(3, 4)
        ideal = facet_ideal(board)
        clear_table_cache()
        plain = betti_table_hochster(ideal)
        clear_table_cache()
        started = force_pool()
        combined = betti_table_hochster(ideal, symmetries=board_symmetries(board))
        clear_table_cache()
        assert started == [2] and plain.entries == combined.entries


class TestPoolSelection:
    """A plan is swept on one process per CPU this process may run on, when
    there are two or more and its distinct cores hold at least
    _POOL_MIN_SUBSETS subsets, sum 2^|facet|; otherwise in this process."""

    @pytest.fixture
    def plan(self, monkeypatch):
        # ProcessPoolExecutor records each pool and maps in this process
        import concurrent.futures

        from rookideal import betti

        class Recording:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, static, chunks, primes):
                dealt.append(chunks)
                return map(fn, static, chunks, primes)

        started, dealt = [], []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        board = Board(3, 4)
        ideal, perms = facet_ideal(board), board_symmetries(board)
        cores = betti._sweep_plan("hochster", ideal, perms).cores
        subsets = sum(2 ** f.bit_count() for facets, _ in cores for f in facets)
        betti.clear_table_cache()
        expected = betti_table_hochster(ideal, symmetries=perms)
        betti.clear_table_cache()
        yield ideal, perms, subsets, expected, started, dealt
        betti.clear_table_cache()

    def sweep(self, monkeypatch, plan, cpus, threshold):
        from rookideal import betti

        ideal, perms, _, expected, started, _ = plan
        monkeypatch.setattr(betti.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(betti, "_POOL_MIN_SUBSETS", threshold)
        started.clear()
        betti.clear_table_cache()
        assert betti_table_hochster(ideal, symmetries=perms) == expected
        return started

    def test_one_cpu_starts_no_pool_over_the_threshold(self, monkeypatch, plan):
        assert self.sweep(monkeypatch, plan, 1, 0) == []

    def test_two_cpus_under_the_threshold_start_no_pool(self, monkeypatch, plan):
        assert self.sweep(monkeypatch, plan, 2, plan[2] + 1) == []

    def test_two_cpus_at_the_threshold_start_a_pool(self, monkeypatch, plan):
        assert self.sweep(monkeypatch, plan, 2, plan[2]) == [2]

    def test_chunks_deal_the_largest_cores_first(self, monkeypatch, plan):
        # chunk k holds cores k, k + nchunks, ... of the cores sorted by
        # subsets, largest first (Graham's LPT rule)
        from rookideal import betti

        assert self.sweep(monkeypatch, plan, 2, 0) == [2]
        (chunks,) = plan[5]
        assert len(chunks) == 8
        order = [chunk[r] for r in range(len(chunks[0])) for chunk in chunks if r < len(chunk)]
        sizes = [betti._subsets(facets) for facets, _ in order]
        assert sizes == sorted(sizes, reverse=True) and sizes[0] > sizes[-1]
        cores = betti._sweep_plan("hochster", plan[0], plan[1]).cores
        assert sorted(order) == sorted(cores)

    def test_cpu_count_without_affinity(self, monkeypatch):
        from rookideal import betti

        monkeypatch.delattr(betti.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(betti.os, "cpu_count", lambda: 3)
        assert betti._cpu_count() == 3
        monkeypatch.setattr(betti.os, "cpu_count", lambda: None)
        assert betti._cpu_count() == 1


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
        from rookideal import SimplicialComplex

        facets = [
            [0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 1, 5],
            [1, 2, 4], [1, 3, 4], [1, 3, 5], [2, 3, 5], [2, 4, 5],
        ]
        cx = SimplicialComplex.from_facets(VariableSet.generic(6), facets)
        ideal = oracles.nonface_ideal(cx)
        report = invariant_report(ideal, cross_check=True)
        assert report.torsion_warning is True
        assert betti_table(ideal, DEFAULT_FIELD).pd() == 2
        assert betti_table(ideal, GF2).pd() == 3

    def test_power_report_uses_radical_primes(self, monkeypatch):
        radicals = []
        radical = MonomialIdeal.radical
        monkeypatch.setattr(MonomialIdeal, "radical", lambda ideal: radicals.append(ideal) or radical(ideal))
        report = invariant_report(facet_ideal(Board(2, 3)) ** 2)
        assert (report.height, report.dim, report.bight) == (3, 3, 4)
        assert len(radicals) == 1

    @pytest.mark.parametrize("m, n, t, a", [(1, 3, 2, 1), (2, 2, 3, 4), (2, 3, 4, 6), (2, 4, 3, 4)])
    def test_power_a_invariant_matches_polarization(self, m, n, t, a):
        board = Board(m, n)
        ideal = facet_ideal(board) ** t
        report = invariant_report(ideal, symmetries=board_symmetries(board))
        assert report.a_invariant == a
        if m * n * t <= 18:
            # past 18 variables the f-vector walk over the polarization
            # takes more than ten seconds
            polarized, added = oracles.polarization(ideal)
            numerator, power = oracles.f_vector_series(polarized)
            assert report.a_invariant == len(numerator) - 1 - (power - added)

    def test_pole_order_off_dim_raises(self, monkeypatch):
        from rookideal import HilbertSeries, betti

        real = betti.hilbert_series

        def doctored(quotient, ambient_count=None):
            series = real(quotient, ambient_count)
            return HilbertSeries(series.numerator, series.denominator_power + 1)

        monkeypatch.setattr(betti, "hilbert_series", doctored)
        with pytest.raises(ArithmeticError, match="pole of order 7 .* dim is 6"):
            invariant_report(facet_ideal(Board(3, 3)))

    def test_depth_above_dim_raises(self, monkeypatch):
        from rookideal import BettiTable, betti

        real = betti.betti_table

        def doctored(ideal, field, *args):
            # the generators alone: the quotient's pd is 1, so depth 9 - 1 = 8
            table = real(ideal, field, *args)
            entries = {(i, j): v for (i, j), v in table.entries.items() if i == 0}
            return BettiTable(table.subject, table.ambient, field, entries)

        monkeypatch.setattr(betti, "betti_table", doctored)
        with pytest.raises(ArithmeticError, match="depth 8 exceeds dim 6"):
            invariant_report(facet_ideal(Board(3, 3)))


def _plans_built(monkeypatch) -> dict:
    """Patch the two plan builders to record every plan they build, per route."""
    from rookideal import betti

    built = {"hochster": [], "koszul": []}
    for route, plans in built.items():
        build = getattr(betti, f"_{route}_plan")

        def recorded(*args, plans=plans, build=build):
            plans.append(None)  # a build that raises still counts
            plans[-1] = build(*args)
            return plans[-1]

        monkeypatch.setattr(betti, f"_{route}_plan", recorded)
    return built


def _counts(built: dict) -> dict:
    return {route: len(plans) for route, plans in built.items()}


class TestSweepPlan:
    @pytest.fixture
    def built(self, monkeypatch):
        from rookideal import betti

        betti.clear_table_cache()
        yield _plans_built(monkeypatch)
        betti.clear_table_cache()

    def test_cross_checked_report_builds_one_plan_per_route(self, built):
        board = Board(2, 3)
        perms = board_symmetries(board)
        report = invariant_report(facet_ideal(board) ** 2, symmetries=perms, cross_check=True)
        assert not report.torsion_warning
        assert _counts(built) == {"hochster": 0, "koszul": 1}
        invariant_report(facet_ideal(board), symmetries=perms, cross_check=True)
        assert _counts(built) == {"hochster": 1, "koszul": 1}

    def test_dual_char_report_builds_one_plan(self, built):
        # a catalog case reads every value off one cross-checked report
        from rookideal.verify import _report_case

        expected = {"reg": 2, "depth": 2, "a": 0, "torsion": 0, "depth_le_dim": 1}
        case = _report_case("L_six", "", "", expected, fixture_ideal("L_six"))
        assert case.computed == expected
        assert sum(_counts(built).values()) == 1

    def test_cross_checked_report_is_one_pass(self, built, monkeypatch):
        # one cover search on the ideal itself, which is squarefree and so
        # its own radical, and each distinct core's faces built once and
        # reduced once at each of the two primes
        from rookideal import betti, complexes
        from rookideal.homology import betti_of_face_masks, faces_by_dim_masks

        calls = {"covers": 0, "faces": [], "reduce": []}
        monkeypatch.setattr(MonomialIdeal, "radical", lambda ideal: pytest.fail("radical of a squarefree ideal"))
        covers = complexes.minimal_vertex_covers

        def counted_covers(cx):
            calls["covers"] += 1
            return covers(cx)

        def counted_faces(facets):
            calls["faces"].append(tuple(sorted(facets)))
            return faces_by_dim_masks(facets)

        def counted_reduce(by_dim, field):
            faces = tuple(sorted(m for d in by_dim for m in oracles.face_masks(by_dim, d)))
            calls["reduce"].append((faces, field.characteristic))
            return betti_of_face_masks(by_dim, field)

        monkeypatch.setattr(complexes, "minimal_vertex_covers", counted_covers)
        monkeypatch.setattr(betti, "faces_by_dim_masks", counted_faces)
        monkeypatch.setattr(betti, "betti_of_face_masks", counted_reduce)
        board = Board(3, 4)
        report = invariant_report(facet_ideal(board), symmetries=board_symmetries(board), cross_check=True)
        assert (report.reg, report.depth, report.torsion_warning) == (4, 4, False)
        assert _counts(built) == {"hochster": 1, "koszul": 0}
        assert calls["covers"] == 1
        cores = [core for core, _ in built["hochster"][0].cores]
        assert len(cores) == 9
        assert sorted(calls["faces"]) == sorted(cores)
        assert len(calls["reduce"]) == len(set(calls["reduce"])) == 2 * len(cores)
        assert {p for _, p in calls["reduce"]} == {2, 32003}

    def test_threads_match_serial_on_a_cross_checked_report(self, built, force_pool):
        # the 3x5 board ideal has enough distinct cores for two workers
        from rookideal import betti

        board = Board(3, 5)
        ideal, perms = facet_ideal(board), board_symmetries(board)

        def run():
            betti.clear_table_cache()
            report = invariant_report(ideal, symmetries=perms, cross_check=True)
            report.wall_ms = 0.0
            return report, [betti_table(ideal, field, symmetries=perms) for field in (DEFAULT_FIELD, GF2)]

        serial = run()
        started = force_pool()
        assert run() == serial and started == [2]
        assert len(built["hochster"][0].cores) >= 8 * 2
        assert _counts(built) == {"hochster": 2, "koszul": 0}
        assert (serial[0].reg, serial[0].depth, serial[0].torsion_warning) == (4, 4, False)

    def test_other_symmetries_get_a_fresh_plan_and_check(self, built):
        board = Board(2, 3)
        ideal = facet_ideal(board) ** 2
        betti_table_koszul(ideal, DEFAULT_FIELD, symmetries=board_symmetries(board))
        swap = (1, 0) + tuple(range(2, 6))  # x11 <-> x12 alone moves x11*x22 off the ideal
        for _ in range(2):
            with pytest.raises(ValueError, match="does not fix"):
                betti_table_koszul(ideal, GF2, symmetries=[swap])
        with pytest.raises(ValueError, match="not a permutation"):
            betti_table_koszul(ideal, GF2, symmetries=[(0,) * 6])
        assert _counts(built)["koszul"] == 4

    def test_clear_table_cache_drops_every_table(self, built):
        # only tables are kept: a field asked for alone sweeps afresh, and a
        # cleared table is swept again
        from rookideal import betti

        ideal = facet_ideal(Board(2, 3)) ** 2
        betti_table_koszul(ideal)
        betti_table_koszul(ideal, GF2)
        assert _counts(built)["koszul"] == 2 and len(betti._TABLE_CACHE) == 2
        betti.clear_table_cache()
        assert not betti._TABLE_CACHE
        betti_table_koszul(ideal, GF2)
        assert _counts(built)["koszul"] == 3

    def test_threads_match_serial_on_the_lattice_route(self, force_pool):
        from rookideal.betti import clear_table_cache

        board = Board(2, 3)
        ideal = facet_ideal(board) ** 3
        clear_table_cache()
        serial = betti_table_koszul(ideal, symmetries=board_symmetries(board))
        clear_table_cache()
        started = force_pool()
        threaded = betti_table_koszul(ideal, symmetries=board_symmetries(board))
        clear_table_cache()
        assert started == [2]
        assert serial.entries == threaded.entries and serial.quotient().reg() == 6

    def test_second_call_returns_the_cached_table(self, built):
        # the 2x3 board ideal's tables mix sphere entries and reduced cores
        ideal = facet_ideal(Board(2, 3))
        for route in (betti_table_hochster, betti_table_koszul):
            for field in (DEFAULT_FIELD, GF2):
                first = route(ideal, field)
                assert route(ideal, field) is first
        for plans in built.values():
            assert all(plan.spheres and plan.cores for plan in plans)
        assert _counts(built) == {"hochster": 2, "koszul": 2}

    def test_cached_table_still_checks_symmetries(self):
        from rookideal.betti import clear_table_cache

        ideal = facet_ideal(Board(2, 3)) ** 2
        clear_table_cache()
        betti_table_koszul(ideal)
        with pytest.raises(ValueError, match="does not fix"):
            betti_table_koszul(ideal, symmetries=[(1, 0, 2, 3, 4, 5)])
        clear_table_cache()


def _labellings(ideal, perms, seed):
    """The ideal with its symmetry group, and a copy relabelled by a seeded
    permutation sigma with the group conjugated to match: the permutation pi
    becomes sigma pi sigma^-1."""
    count = ideal.ambient.count
    sigma = list(range(count))
    random.Random(seed).shuffle(sigma)
    inverse = [sigma.index(k) for k in range(count)]
    conjugated = [tuple(sigma[perm[inverse[k]]] for k in range(count)) for perm in perms]
    return [(ideal, perms), (ideal.permuted(sigma), conjugated)]


def _board_cases(board, t, seed):
    """The board ideal power in both labellings (see _labellings)."""
    return _labellings(facet_ideal(board) ** t, board_symmetries(board), seed)


class TestOrbitSweep:
    """With symmetries the plan joins orbit representatives with the
    generators instead of closing the whole lattice."""

    @staticmethod
    def lattices(ideal, perms):
        """(generators, join, lane join, closure, images, field width) for
        each lattice the ideal's routes sweep: the union lattice of a
        squarefree ideal (width 1) and the lcm lattice of any."""
        from rookideal import betti

        count = ideal.ambient.count
        out = []
        if ideal.is_squarefree:
            masks = [g.support_mask() for g in ideal.gens]
            images = betti._symmetry_images(masks, perms, 1, list(range(count)))
            closure = betti._closure(masks, betti._unions)
            out.append((masks, betti._unions, betti._lane_unions, closure, images, 1))
        vectors = [g.exponents for g in ideal.gens]
        width = betti._field_width(vectors)
        gens = [betti._pack(v, width) for v in vectors]
        images = betti._symmetry_images(gens, perms, width, betti._vector_offsets(width, count))
        joins, lanes = betti._swar_joins(width, count), betti._lane_swar_joins(width, count)
        out.append((gens, joins, lanes, betti._closure(gens, joins), images, width))
        return out

    @pytest.mark.parametrize(
        "m, n, t",
        [(2, 3, 1), (2, 3, 2), (2, 3, 3), (2, 4, 1), (2, 4, 2), (3, 4, 1), (3, 3, 1), (3, 3, 2), (4, 4, 1)],
    )
    def test_orbits_partition_the_closure(self, m, n, t):
        # the square boards' groups hold the transpose
        from rookideal import betti

        for ideal, perms in _board_cases(Board(m, n), t, seed=100 * m + 10 * n + t):
            for gens, joins, lanes, closure, images, width in self.lattices(ideal, perms):
                plane = betti._level_plane(width, ideal.ambient.count)
                assert betti._orbit_jobs(gens, joins, None, plane) == [(x, 1) for x in closure]
                jobs = betti._orbit_jobs(gens, lanes, images, plane)
                assert sum(weight for _, weight in jobs) == len(closure)
                covered = set()
                for rep, weight in jobs:
                    orbit = set(images(rep)) | {rep}
                    assert len(orbit) == weight and rep == min(orbit)
                    assert covered.isdisjoint(orbit)  # no two representatives share an orbit
                    covered |= orbit
                assert covered == set(closure)

    @pytest.mark.parametrize(
        "m, n, t, width",
        [(3, 3, 1, 2), (2, 4, 1, 2), (2, 3, 2, 3), (3, 3, 2, 3), (2, 2, 4, 4), (1, 4, 5, 4), (2, 2, 8, 5), (1, 3, 8, 5)],
    )
    def test_levels_are_orbit_invariants_that_no_join_lowers(self, m, n, t, width):
        # the orbit sweep drops a level's points once the level is done: that
        # is sound only when each orbit lies in one level and r v g never
        # lies below r's level; checked on the lattice points and on random
        # points of every field range, for bitmasks and packed vectors
        from rookideal import betti

        rng = random.Random(1000 * width + 100 * m + 10 * n + t)
        for ideal, perms in _board_cases(Board(m, n), t, seed=100 * m + 10 * n + t):
            count = ideal.ambient.count
            for gens, joins, _, closure, images, bits in self.lattices(ideal, perms):
                assert bits in (1, width)
                plane = betti._level_plane(bits, count)
                values = 1 << max(bits - 1, 1)  # a field holds 0 .. values - 1
                points = closure + [
                    betti._pack([rng.randrange(values) for _ in range(count)], bits) for _ in range(60)
                ]
                for x in points:
                    (level,) = betti._levels([x], plane)
                    assert set(betti._levels(images(x), plane)) == {level}
                    assert min(betti._levels(joins(x, gens), plane)) >= level

    @pytest.mark.parametrize(
        "kind, m, n, t, digest",
        [
            ("facet", 3, 4, 1, "9acbef342e5f3bdc"),
            ("facet", 4, 4, 1, "3953e418cb202c0e"),
            ("sr", 3, 5, 1, "107b2f02c5e7c30e"),
            ("facet", 2, 3, 4, "5d635055d6a461a1"),
            ("facet", 1, 6, 3, "ed4646bea26df34a"),
        ],
    )
    def test_plans_do_not_change(self, kind, m, n, t, digest):
        # every sphere entry, core and placement of both routes' plans, in
        # both labellings, hashed; the SR and power values are the plans of
        # the sweep that kept every lattice point in one seen set, and the
        # facet values those of the one closed-form rule that reads a job
        # off its generators
        from rookideal import betti

        board = Board(m, n)
        ideal = (facet_ideal if kind == "facet" else stanley_reisner_ideal)(board) ** t
        plans = []
        for labelled, perms in _labellings(ideal, board_symmetries(board), seed=100 * m + 10 * n + t):
            if labelled.is_squarefree:
                plans.append(betti._hochster_plan(labelled, perms))
            plans.append(betti._koszul_plan(labelled, perms))
        rows = [(sorted(plan.spheres.items()), plan.cores) for plan in plans]
        assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == digest

    def test_orbit_sweep_keeps_one_level_of_points(self):
        # the SR 4x4 plan (1,152 symmetries) peaks at about 1.8 MB under
        # tracemalloc; keeping every lattice point seen peaked at 4.9 MB
        import tracemalloc

        from rookideal import betti

        board = Board(4, 4)
        ideal = stanley_reisner_ideal(board)
        perms, primes = board_symmetries(board), ideal.minimal_primes()
        tracemalloc.start()
        try:
            betti._hochster_plan(ideal, perms, primes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000

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

    def test_symmetries_generate_the_group_they_are_swept_with(self):
        from rookideal import betti
        from rookideal.betti import clear_table_cache

        # the two rotations of (x1 x2, x1 x3, x2 x3)^2 generate C3, whose
        # orbits give the table, without the third member being listed
        ideal = facet_ideal(Board(1, 3)) ** 2
        clear_table_cache()
        expected = {(0, 2): 6, (1, 3): 8, (2, 4): 3}
        assert betti_table_koszul(ideal, symmetries=[(0, 1, 2), (1, 2, 0)]).entries == expected
        assert betti_table_koszul(ideal, symmetries=[(1, 2, 0)]).entries == expected
        board = Board(3, 3)
        group = sorted(betti._group(board_symmetries(board), 9, lambda s: None))
        for route, power in ((betti_table_hochster, 1), (betti_table_koszul, 2)):
            ideal = facet_ideal(board) ** power
            clear_table_cache()
            full = route(ideal, symmetries=group).entries
            assert full == route(ideal).entries
            for k in (1, 35, 71):  # drop one member of the group of order 72
                clear_table_cache()
                assert route(ideal, symmetries=group[:k] + group[k + 1 :]).entries == full
        clear_table_cache()

    def test_only_the_group_generators_are_checked(self):
        from rookideal import betti

        board = Board(4, 4)
        admitted = []
        group = betti._group(board_symmetries(board), 16, admitted.append)
        assert len(admitted) <= 5
        assert len(group) == len(set(group)) == 1152
        product = set()  # rows times columns, times the transpose
        for rho in itertools.permutations(range(4)):
            for gamma in itertools.permutations(range(4)):
                product.add(tuple(4 * rho[i] + gamma[j] for i in range(4) for j in range(4)))
                product.add(tuple(4 * gamma[j] + rho[i] for i in range(4) for j in range(4)))
        assert set(group) == product

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
        # the symmetric group on the variables does not fix the ideal
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


def _random_monomial_ideals(count: int, nvars: int, top: int, seed: int):
    """Seeded ideals with exponents up to ``top``, none of them squarefree:
    every generator and most pairs of generators give a lattice point that at
    most two generators divide."""
    rng = random.Random(seed)
    ambient = VariableSet.generic(nvars)
    out = []
    while len(out) < count:
        gens = [
            Monomial(ambient, tuple(rng.randint(0, top) * (rng.random() < 0.6) for _ in range(nvars)))
            for _ in range(rng.randint(2, 5))
        ]
        ideal = min_gens([g for g in gens if g.degree], ambient)
        if not ideal.is_zero and not ideal.is_squarefree:
            out.append(ideal)
    return out


class TestClosedFormSpheres:
    """A job at a lattice point that is the lcm of exactly one subset of the
    generators it holds is read off them, before any complex is built."""

    def test_random_plans_do_not_change(self):
        # every sphere entry, core and placement of both routes' plans of
        # seeded random ideals, hashed; the value is the plans of the one
        # closed-form rule, with each distinct complex swept sphere-tested
        from rookideal import betti

        ideals = _random_squarefree_ideals(40, 7, seed=21) + _random_squarefree_ideals(20, 10, seed=22)
        ideals += _random_monomial_ideals(12, 4, 3, seed=23)
        rows = []
        for ideal in ideals:
            if ideal.is_squarefree:
                plan = betti._hochster_plan(ideal, None)
                rows.append((sorted(plan.spheres.items()), plan.cores))
            plan = betti._koszul_plan(ideal, None)
            rows.append((sorted(plan.spheres.items()), plan.cores))
        assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == "937411bc8c3d63ce"

    def test_random_ideals_workload_counts(self, monkeypatch):
        # both plans of every ideal of the benchmark's random-ideals workload
        # at seed 1: on each route the rule reads off 1,702 spheres and 238
        # cones and leaves 223 jobs; _strong_core runs 604 times (1,093 when
        # the rule read off spheres only) and the sphere test 320 times
        from rookideal import betti

        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look their module up
        spec.loader.exec_module(workloads)
        answers, calls = collections.Counter(), collections.Counter()
        route = None
        for name in ("_lone_lcm", "_strong_core", "_sphere_dimension"):

            def counted(*args, name=name, real=getattr(betti, name)):
                out = real(*args)
                calls[name] += 1
                if name == "_lone_lcm":
                    answers[route, out] += 1
                return out

            monkeypatch.setattr(betti, name, counted)
        for case in workloads.random_ideals(1):
            for route in ("hochster", "koszul"):
                betti._sweep_plan(route, case.ideal, None)
        assert answers == {
            (route, beta): count
            for route in ("hochster", "koszul")
            for beta, count in ((1, 1702), (0, 238), (None, 223))
        }
        assert calls["_strong_core"] == 604 and calls["_sphere_dimension"] == 320


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

    def test_small_families_match_the_reference_loop(self):
        # every family of one to three facet masks on five vertices; two
        # maximal facets leave a point when they meet, else their top vertices
        from rookideal.betti import _strong_core

        for size in (1, 2, 3):
            for facets in itertools.combinations(range(32), size):
                assert _strong_core(facets) == oracles.strong_core(facets), facets
        assert _strong_core((0b00111, 0b11100)) is None  # two triangles sharing a vertex
        assert _strong_core((0b00111, 0b11000)) == (0b00100, 0b10000)  # apart: top vertices

    def test_plans_match_uncollapsed_plans(self, monkeypatch):
        # the plain plan reduces every job's whole complex: no strong core, no
        # sphere rule and no closed form read off the generators
        from rookideal import betti

        def reduced_jobs(plan):
            return sum(len(placements) for _, placements in plan.cores)

        built = _plans_built(monkeypatch)
        ideals = [facet_ideal(Board(2, 3)) ** 2, facet_ideal(Board(2, 3))]
        ideals += _random_squarefree_ideals(6, 7, seed=4)
        shrunk = 0
        for ideal in ideals:
            routes = [betti_table_koszul] + ([betti_table_hochster] if ideal.is_squarefree else [])
            for route in routes:
                plans = built[route.__name__.rsplit("_", 1)[1]]
                for field in (DEFAULT_FIELD, GF2):
                    betti.clear_table_cache()
                    cored = route(ideal, field)
                    cored_plan = plans[-1]
                    with monkeypatch.context() as patched:
                        patched.setattr(betti, "_strong_core", lambda facets: tuple(sorted(set(facets))))
                        patched.setattr(betti, "_sphere_dimension", lambda facets: None)
                        patched.setattr(betti, "_lone_lcm", lambda tight, count: None)
                        betti.clear_table_cache()
                        full = route(ideal, field)
                        full_plan = plans[-1]
                    assert cored.entries == full.entries
                    assert not full_plan.spheres
                    assert reduced_jobs(cored_plan) <= reduced_jobs(full_plan)
                    shrunk += reduced_jobs(cored_plan) < reduced_jobs(full_plan)
        betti.clear_table_cache()
        assert shrunk  # the core did drop jobs, so the comparison means something


def _duals_taken(monkeypatch) -> dict:
    """Patch the dual step to record, for every core it weighs, the strong
    core of that core's dual (None for a point)."""
    from rookideal import betti

    duals = {}
    dual_core = betti._dual_core

    def recorded(core, supports):
        duals[core] = dual_core(core, supports)
        return duals[core]

    monkeypatch.setattr(betti, "_dual_core", recorded)
    return duals


def _vertex_count(facets) -> int:
    return functools.reduce(operator.or_, facets).bit_count()


def _indices(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


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

    @pytest.mark.parametrize("grouped", [False, True])
    def test_one_sphere_test_per_distinct_core(self, monkeypatch, grouped):
        # on the 3x4 facet plan many jobs share a core; each distinct core
        # whose dual is not a point is taken as itself or as the strong core
        # of its dual, whichever has fewer subsets, and each distinct complex
        # taken is tested once, also when two cores take the same one; a job
        # read off the generators reaches neither the strong core nor the
        # sphere test
        from rookideal import betti

        board = Board(3, 4)
        ideal = facet_ideal(board)
        jobs, tested, read_off = [], [], []
        gather, sphere_dimension, lone_lcm = betti._gather, betti._sphere_dimension, betti._lone_lcm

        def recorded(route, found, *rest):
            jobs.extend(found)
            return gather(route, jobs, *rest)

        def counted(facets):
            tested.append(facets)
            return sphere_dimension(facets)

        def classified(tight, count):
            read_off.append(lone_lcm(tight, count))
            return read_off[-1]

        monkeypatch.setattr(betti, "_gather", recorded)
        monkeypatch.setattr(betti, "_sphere_dimension", counted)
        monkeypatch.setattr(betti, "_lone_lcm", classified)
        symmetries = board_symmetries(board) if grouped else None
        betti._sweep_plan("hochster", ideal, symmetries)
        supports = [g.support_mask() for g in ideal.gens]
        distinct = {betti._strong_core(facets) for facets, _, _ in jobs} - {None}
        taken = []
        for core in distinct:
            dual = betti._dual_core(core, supports)
            if dual is not None:
                taken.append(dual if betti._subsets(dual) < betti._subsets(core) else core)
        assert len(jobs) > len(distinct) > 1
        assert len(taken) > len(set(taken))  # two cores take the same complex
        assert sorted(tested) == sorted(set(taken))
        # None: the rule leaves the job; 1 and 0: it reads it off
        decided = [beta for beta in read_off if beta is not None]
        assert len(jobs) + len(decided) == len(read_off) and set(decided) == {0, 1}

    def test_one_sweep_reduces_each_distinct_core_once_per_prime(self, monkeypatch):
        from rookideal import betti
        from rookideal.homology import betti_of_face_masks, faces_by_dim_masks

        built = _plans_built(monkeypatch)
        faces, reduced = [], []

        def counted_faces(facets):
            faces.append(tuple(sorted(facets)))
            return faces_by_dim_masks(facets)

        def counted_reduce(by_dim, field):
            reduced.append((tuple(sorted(m for d in by_dim for m in oracles.face_masks(by_dim, d))), field))
            return betti_of_face_masks(by_dim, field)

        duals = _duals_taken(monkeypatch)
        monkeypatch.setattr(betti, "faces_by_dim_masks", counted_faces)
        monkeypatch.setattr(betti, "betti_of_face_masks", counted_reduce)
        # the 3x4 board's restriction plan has a core that two orbits share,
        # and cores swept as themselves and as their duals; the random
        # ideals' plans hold one core on each route between them
        cases = [
            (ideal, ("hochster", "koszul"), None) for ideal in _random_squarefree_ideals(20, 7, seed=9)
        ]
        for board in (Board(3, 4), Board(4, 4)):
            cases.append((facet_ideal(board), ("hochster",), board_symmetries(board)))
        shared = swept_duals = swept_selves = 0
        for ideal, routes, symmetries in cases:
            for route in routes:
                betti.clear_table_cache()
                faces.clear()
                reduced.clear()
                duals.clear()
                tables = betti._planned_tables(route, ideal, [DEFAULT_FIELD, GF2], symmetries)
                assert [t.field for t in tables] == [DEFAULT_FIELD, GF2]
                plan = built[route][-1]
                assert sorted(faces) == sorted(core for core, _ in plan.cores)
                assert len(reduced) == len(set(reduced)) == 2 * len(plan.cores)
                for core, placements in plan.cores:
                    for placement in placements:
                        if len(placement) == 2:  # swept as itself
                            assert betti._sphere_dimension(core) is None
                            if route == "hochster":
                                assert betti._subsets(duals[core]) >= betti._subsets(core)
                                swept_selves += 1
                            continue
                        # swept as the dual of a core on n vertices: fewer
                        # subsets than each such core, and not a point
                        n = placement[2]
                        replaced = [k for k, dual in duals.items() if dual == core and _vertex_count(k) == n]
                        assert replaced
                        assert all(betti._subsets(core) < betti._subsets(k) for k in replaced)
                        assert betti._strong_core(core) == core
                        swept_duals += 1
                    shared += len(placements) > 1
        betti.clear_table_cache()
        assert sum(map(len, built.values())) == 42
        assert shared  # some core stands for several jobs
        assert swept_duals  # and some dual is swept in a core's place
        assert swept_selves  # and some restriction core is swept as itself

    def test_threads_match_serial_with_spheres_and_repeated_cores(self, monkeypatch, force_pool):
        # plans with at least 16 distinct cores, so that two workers get
        # them in chunks, some sphere jobs and a core shared by two jobs
        from rookideal import betti

        started = force_pool()
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
                monkeypatch.setattr(betti, "_cpu_count", lambda: 1)
                serial = betti_table_hochster(ideal, field)
                betti.clear_table_cache()
                monkeypatch.setattr(betti, "_cpu_count", lambda: 2)
                assert betti_table_hochster(ideal, field).entries == serial.entries
            checked += 1
            if checked == 3:
                break
        betti.clear_table_cache()
        assert checked == 3 and started == [2] * 6


class TestKoszulJobs:
    """The lattice route's jobs: a point's degree from its bit planes and
    its facets from the guard bits of b - g, for every field width."""

    @pytest.mark.parametrize("width", [2, 3, 4, 5])
    def test_degrees_and_facets_match_the_exponents(self, monkeypatch, width):
        # every lattice point's job with the closed form switched off; with
        # it, a point b whose r <= 4 divisors have, among their subsets with
        # lcm b, exactly the supersets of one set M builds no facets, and
        # adds the entry (r - 1, degree) when M holds all r, and nothing
        # when it does not (a cone); the others are the same jobs as before
        from rookideal import betti

        rng = random.Random(width)
        top = (1 << (width - 1)) - 1  # the largest exponent this width holds
        ambient = VariableSet.generic(4)
        gathered = []
        monkeypatch.setattr(betti, "_gather", lambda route, found, spheres: gathered.append((found, spheres)))
        lone_lcm = betti._lone_lcm
        read_off = kept = zeros = 0
        draws = [
            [(0, *(rng.randint(0, top) for _ in range(3))) for _ in range(rng.randint(1, 4))] for _ in range(6)
        ]
        # and a triangle on variables 1-3, whose top point the rule leaves,
        # and x1^top, x1 x2, x2^top, whose top point is a cone from width 3
        draws.append([(0, top, top, 0), (0, 0, top, top), (0, top, 0, top)])
        draws.append([(0, top, 0, 0), (0, 1, 1, 0), (0, 0, top, 0)])
        for drawn in draws:
            # (top, 0, 0, 0) and vectors that avoid variable 0: an antichain
            # whose largest exponent is top
            vectors = [(top, 0, 0, 0)] + drawn
            ideal = min_gens([Monomial(ambient, v) for v in vectors if any(v)], ambient)
            vectors = [g.exponents for g in ideal.gens]
            assert betti._field_width(vectors) == width
            lattice = oracles.tuple_join_closure(vectors)
            divisors = {b: [g for g in vectors if all(map(operator.le, g, b))] for b in lattice}

            def beta(b):
                # beta_{r-1,b} read off the subsets of b's divisors with lcm
                # b, or None when they are not the supersets of one set
                gens = divisors[b]
                if len(gens) > 4:
                    return None
                hits = [
                    set(subset)
                    for k in range(1, len(gens) + 1)
                    for subset in itertools.combinations(range(len(gens)), k)
                    if tuple(max(gens[j][i] for j in subset) for i in range(4)) == b
                ]
                least = min(hits, key=len)
                if not all(least <= hit for hit in hits):
                    return None
                return int(len(least) == len(gens))

            spheres = {}
            for b in lattice:
                if beta(b):
                    key = (len(divisors[b]) - 1, sum(b))
                    spheres[key] = spheres.get(key, 0) + 1
            zeros += sum(beta(b) == 0 for b in lattice)
            for closed in (False, True):
                monkeypatch.setattr(betti, "_lone_lcm", lone_lcm if closed else lambda tight, count: None)
                gathered.clear()
                betti._koszul_plan(ideal, None)
                ((jobs, entries),) = gathered
                points = [b for b in lattice if not closed or beta(b) is None]
                assert entries == (spheres if closed else {})
                assert [degree for _, degree, _ in jobs] == [sum(b) for b in points]
                for (facets, _, weight), b in zip(jobs, points):
                    expected = {sum(1 << i for i in range(4) if b[i] > g[i]) for g in divisors[b]}
                    assert sorted(facets) == sorted(expected) and weight == 1
            read_off += len(lattice) - len(jobs)
            kept += len(jobs)
        assert read_off > zeros and kept and (zeros or width == 2)


class TestDualCores:
    """The restriction sweep weighs each core against the strong core of its
    Alexander dual on the core's vertex set: it drops the core when that is a
    point and sweeps the dual instead when it has fewer subsets."""

    reduced = staticmethod(TestSphereCores.reduced)

    def test_board_duals_carry_the_shifted_homology(self, monkeypatch):
        from rookideal import betti

        duals = _duals_taken(monkeypatch)
        board = Board(4, 4)
        plan = betti._hochster_plan(facet_ideal(board), board_symmetries(board))
        swapped = {k: dual for k, dual in duals.items() if betti._subsets(dual) < betti._subsets(k)}
        assert len(duals) == 18 and len(swapped) == 17
        assert sum(map(betti._subsets, duals)) == 316_992
        assert sum(betti._subsets(core) for core, _ in plan.cores) == 154_480
        for core, dual in swapped.items():
            n = _vertex_count(core)
            for field in (DEFAULT_FIELD, GF2):
                shifted = {n - e - 3: v for e, v in self.reduced(dual, field).items()}
                assert shifted == self.reduced(core, field)

    def test_core_with_a_contractible_dual_is_dropped(self, monkeypatch):
        # the top restriction of four triangles on six vertices: the rule
        # leaves its job, and its core, six triangles with no dominated
        # vertex, is acyclic and has a dual that collapses to a point
        from rookideal import betti

        ambient = VariableSet.generic(6)
        supports = [0b10101, 0b101001, 0b110001, 0b11100]
        ideal = min_gens([Monomial.from_support(ambient, _indices(s)) for s in supports], ambient)
        assert betti._lone_lcm(supports, 6) is None
        duals = _duals_taken(monkeypatch)
        plan = betti._hochster_plan(ideal, None)
        acyclic = (13, 25, 37, 44, 52, 56)
        assert betti._strong_core(acyclic) == acyclic
        assert acyclic in duals and duals[acyclic] is None
        assert acyclic not in [core for core, _ in plan.cores]
        for field in (DEFAULT_FIELD, GF2):
            assert self.reduced(acyclic, field) == {}
            betti.clear_table_cache()
            expected = oracles.full_subset_hochster(ideal, field)
            assert betti_table_hochster(ideal, field).entries == expected
        betti.clear_table_cache()

    def test_tables_with_linear_generators_match_both_oracles(self, monkeypatch):
        # a degree-1 generator x_v keeps v out of every core, so a core's
        # vertex set is smaller than the restriction that has it
        from rookideal import betti

        built = _plans_built(monkeypatch)
        rng = random.Random(16)
        ambient = VariableSet.generic(8)
        below = 0
        for _ in range(12):
            gens = [Monomial.from_support(ambient, [rng.randrange(8)])]
            gens += [
                Monomial.from_support(ambient, rng.sample(range(8), rng.randint(2, 4)))
                for _ in range(rng.randint(5, 10))
            ]
            ideal = min_gens(gens, ambient)
            for field in (DEFAULT_FIELD, GF2):
                betti.clear_table_cache()
                expected = oracles.full_subset_hochster(ideal, field)
                assert betti_table_hochster(ideal, field).entries == expected
                assert betti_table_koszul(ideal, field).entries == expected
            below += any(
                len(p) == 3 and p[0] > p[2] for _, placements in built["hochster"][-1].cores for p in placements
            )
        betti.clear_table_cache()
        assert below  # some swept dual stands for a core smaller than its restriction

    def test_many_variables_with_small_cores(self, monkeypatch):
        # the 39-subsets of 40 variables: the upper Koszul complex at the top
        # lcm, and the restriction route's dual of the top restriction, are
        # 40 isolated points, held as sets of masks and not as 2^40-bit levels
        from rookideal import betti, homology

        layers = []
        real = betti.faces_by_dim_masks

        def recorded(facets):
            layers.append(type(by_dim := real(facets)))
            return by_dim

        monkeypatch.setattr(betti, "faces_by_dim_masks", recorded)
        ambient = VariableSet.generic(40)
        gens = [Monomial.from_support(ambient, [v for v in range(40) if v != skip]) for skip in range(40)]
        ideal = min_gens(gens, ambient)
        for route in (betti_table_koszul, betti_table_hochster):
            for field in (DEFAULT_FIELD, GF2):
                betti.clear_table_cache()
                assert route(ideal, field).entries == {(0, 39): 40, (1, 40): 39}
            assert set(layers) == {homology.FaceSets}
            layers.clear()
        betti.clear_table_cache()


class TestHilbert:
    @staticmethod
    def series(ideal, ambient_count=None):
        return hilbert_series(betti_table(ideal).quotient(), ambient_count)

    def test_edge_series(self):
        series = self.series(EDGE)
        assert series.numerator == (1, 1)
        assert series.denominator_power == 1
        assert series.a_invariant == 0

    def test_two_by_two(self):
        series = self.series(facet_ideal(Board(2, 2)))
        assert series.numerator == (1, 2, 1)
        assert series.denominator_power == 2
        assert series.a_invariant == 0

    def test_three_by_three(self):
        assert self.series(facet_ideal(Board(3, 3))).a_invariant == 0

    def test_maximal_ideal(self):
        series = self.series(facet_ideal(Board(1, 3)))
        assert series.numerator == (1,) and series.denominator_power == 0

    def test_zero_ideal_full_ring(self):
        series = hilbert_series(BettiTable("quotient", 2, DEFAULT_FIELD, {(0, 0): 1}))
        assert series.numerator == (1,) and series.denominator_power == 2
        assert series.a_invariant == -2

    def test_extra_ambient_extends_the_denominator(self):
        series = self.series(EDGE, ambient_count=5)
        assert series.numerator == (1, 1) and series.denominator_power == 4

    def test_square_of_an_edge(self):
        # S/(x^2 y^2) in two variables: (1 - t^4)/(1 - t)^2 = (1 + t + t^2 + t^3)/(1 - t)
        square = min_gens([Monomial(V2, (2, 2))], V2)
        series = self.series(square)
        assert series.numerator == (1, 1, 1, 1) and series.denominator_power == 1
        assert series.a_invariant == 2

    def test_rejects_an_ideal_table(self):
        with pytest.raises(ValueError, match="quotient table"):
            hilbert_series(betti_table(EDGE))

    @pytest.mark.parametrize("kind", ["facet", "stanley-reisner"])
    def test_matches_f_vector_oracle_on_boards(self, kind):
        build = facet_ideal if kind == "facet" else stanley_reisner_ideal
        checked = 0
        for m in range(1, 5):
            for n in range(m, 5):
                board = Board(m, n)
                ideal = build(board)
                if ideal.is_zero:
                    continue
                table = betti_table(ideal, symmetries=board_symmetries(board))
                series = hilbert_series(table.quotient())
                want = oracles.f_vector_series(ideal)
                assert (series.numerator, series.denominator_power) == want, (m, n)
                checked += 1
        assert checked == (10 if kind == "facet" else 9)

    @pytest.mark.parametrize("m, n, t", [(1, 3, 2), (1, 4, 3), (2, 2, 2), (2, 2, 3), (2, 3, 2), (2, 3, 3)])
    def test_board_powers_match_the_polarization(self, m, n, t):
        board = Board(m, n)
        ideal = facet_ideal(board) ** t
        series = hilbert_series(betti_table(ideal, symmetries=board_symmetries(board)).quotient())
        polarized, added = oracles.polarization(ideal)
        numerator, power = oracles.f_vector_series(polarized)
        assert (series.numerator, series.denominator_power + added) == (numerator, power)


class TestTerai:
    def test_edge(self):
        assert terai_check(EDGE)

    def test_two_by_two(self):
        assert terai_check(facet_ideal(Board(2, 2)))

    def test_three_by_three(self):
        ideal = facet_ideal(Board(3, 3))
        assert terai_check(ideal, symmetries=board_symmetries(Board(3, 3)))
        assert betti_table_koszul(ideal.alexander_dual()).reg() == 5


class TestColonSequence:
    def test_add_empty_order_degenerates(self):
        ideal = facet_ideal(Board(2, 2))
        bound, trace = colon_sequence_reg_bound(ideal, [])
        assert bound == betti_table(ideal).reg()
        assert len(trace) == 1

    def test_three_row_replay(self):
        board = Board(3, 3)
        two_row = facet_ideal(Board(2, 3))
        lifted = [Monomial(board.vars, g.exponents + (0,) * 3) for g in two_row.gens]
        bound, trace = colon_sequence_reg_bound(facet_ideal(board), lifted)
        steps = [s for s in trace if not s.note]
        assert all(s.colon_reg <= 3 for s in steps)
        assert bound <= 5
        assert betti_table(facet_ideal(board)).reg() <= bound


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
