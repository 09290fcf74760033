import math

import pytest

from rookideal import (
    Board,
    Monomial,
    MonomialIdeal,
    board_symmetries,
    chessboard_complex,
    facet_ideal,
    facet_ideal_of_complex,
    fixture_ideal,
    min_gens,
    minimal_primes_formula,
    prime_profile,
    stanley_reisner_ideal,
    subcomplex_a,
    subcomplex_b,
    subcomplex_d,
)

import oracles


def labels_of(board, facet):
    return [board.vars.labels[i] for i in facet]


class TestBoard:
    def test_rejects_wide(self):
        with pytest.raises(ValueError):
            Board(3, 2)

    def test_cell_indexing_round_trip(self):
        b = Board(3, 5)
        cells = [b.cell(i, j) for i in range(1, 4) for j in range(1, 6)]
        assert cells == list(range(15))  # row-major
        assert [b.vars.labels[b.cell(i, 5)] for i in range(1, 4)] == ["x15", "x25", "x35"]

    def test_cell_bounds(self):
        with pytest.raises(ValueError):
            Board(2, 2).cell(3, 1)


class TestComplexAndIdeals:
    def test_single_row(self):
        cx = chessboard_complex(Board(1, 4))
        assert cx.facets == tuple((j,) for j in range(4))

    def test_facet_counts(self):
        for m, n in [(2, 4), (3, 3), (3, 4)]:
            cx = chessboard_complex(Board(m, n))
            assert len(cx.facets) == math.perm(n, m)

    def test_three_by_three_generators(self):
        gens = [str(g) for g in facet_ideal(Board(3, 3)).gens]
        assert gens == [
            "x11*x22*x33",
            "x11*x23*x32",
            "x12*x21*x33",
            "x12*x23*x31",
            "x13*x21*x32",
            "x13*x22*x31",
        ]

    def test_single_row_is_whole_row(self):
        assert [str(g) for g in facet_ideal(Board(1, 3)).gens] == ["x11", "x12", "x13"]

    def test_two_by_two(self):
        assert [str(g) for g in facet_ideal(Board(2, 2)).gens] == ["x11*x22", "x12*x21"]

    def test_stanley_reisner_two_by_two(self):
        gens = [str(g) for g in stanley_reisner_ideal(Board(2, 2)).gens]
        assert gens == ["x11*x12", "x11*x21", "x12*x22", "x21*x22"]

    def test_stanley_reisner_single_row(self):
        ideal = stanley_reisner_ideal(Board(1, 4))
        assert len(ideal.gens) == 6
        assert all(g.degree == 2 for g in ideal.gens)

    def test_stanley_reisner_count_three_by_three(self):
        assert len(stanley_reisner_ideal(Board(3, 3)).gens) == 18


class TestPrimes:
    def test_two_by_two_rows_and_columns(self):
        b = Board(2, 2)
        primes = minimal_primes_formula(b)
        named = {tuple(labels_of(b, p)) for p in primes}
        assert named == {
            ("x11", "x12"),
            ("x21", "x22"),
            ("x11", "x21"),
            ("x12", "x22"),
        }

    def test_single_row_single_prime(self):
        assert minimal_primes_formula(Board(1, 4)) == ((0, 1, 2, 3),)

    def test_sizes_three_by_three(self):
        # row-deletion and column-deletion primes have size 3, mixed ones 4
        sizes = sorted(len(p) for p in minimal_primes_formula(Board(3, 3)))
        assert sizes == [3] * 6 + [4] * 9

    def test_formula_matches_cover_search(self):
        for m in (1, 2, 3):
            for n in range(m, 6):
                board = Board(m, n)
                assert set(minimal_primes_formula(board)) == set(
                    facet_ideal(board).minimal_primes()
                )

    def test_formula_matches_subset_oracle_small(self):
        for m, n in [(2, 2), (2, 3), (3, 3)]:
            board = Board(m, n)
            cx = chessboard_complex(board)
            assert list(
                p for p in sorted(set(minimal_primes_formula(board)))
            ) == oracles.brute_force_minimal_covers(cx.facets, m * n)

    def test_profiles(self):
        assert prime_profile(Board(3, 3)) == (3, 6, 4)
        assert prime_profile(Board(2, 3)) == (3, 3, 4)
        assert prime_profile(Board(1, 4)) == (4, 0, 4)


class TestSubcomplexes:
    def test_a_example(self):
        b = Board(2, 3)
        facets = {tuple(labels_of(b, f)) for f in subcomplex_a(b, 2).facets}
        assert facets == {("x11", "x23"), ("x12", "x23")}

    def test_a_full_column_range_is_void(self):
        assert subcomplex_a(Board(2, 3), 3).is_void
        assert facet_ideal_of_complex(subcomplex_a(Board(2, 3), 3)).is_zero

    def test_b_example(self):
        b = Board(2, 3)
        facets = {tuple(labels_of(b, f)) for f in subcomplex_b(b, 2).facets}
        assert facets == {("x11",), ("x13",)}

    def test_b_single_row_board(self):
        assert subcomplex_b(Board(1, 3), 1).facets == ((),)

    def test_d_with_all_columns(self):
        b = Board(3, 3)
        assert subcomplex_d(b, (1, 2, 3)) == chessboard_complex(b)

    def test_d_filters_columns(self):
        b = Board(2, 3)
        cx = subcomplex_d(b, (1, 3))
        facets = {tuple(labels_of(b, f)) for f in cx.facets}
        assert facets == {("x11", "x23"), ("x13", "x21")}

    def test_d_bad_columns(self):
        with pytest.raises(ValueError):
            subcomplex_d(Board(2, 3), (2, 2))

    def test_bottom_row_colon_identity(self):
        # peeling the bottom-row variables factors through the two families
        for m, n in [(2, 3), (3, 3), (2, 4)]:
            board = Board(m, n)
            f_prev = facet_ideal(board)
            for i in range(1, n + 1):
                x = Monomial.variable(board.vars, board.cell(m, i))
                fi = facet_ideal_of_complex(subcomplex_a(board, i))
                gi = facet_ideal_of_complex(subcomplex_b(board, i))
                assert f_prev.colon(x) == fi + gi
                xi = min_gens([x], board.vars)
                assert f_prev + xi == fi + xi
                f_prev = fi


class TestSymmetries:
    def test_group_size(self):
        from rookideal.betti import _group

        for m, n, order in [(2, 3, 2 * 6), (2, 2, 2 * 2 * 2)]:
            gens = board_symmetries(Board(m, n))
            assert len(gens) <= 5
            assert len(_group(gens, m * n, lambda s: None)) == order

    def test_fix_generator_sets(self):
        for m, n in [(2, 3), (3, 3)]:
            board = Board(m, n)
            gens = {g.exponents for g in facet_ideal(board).gens}
            sr = {g.exponents for g in stanley_reisner_ideal(board).gens}
            for perm in board_symmetries(board):
                for base in (gens, sr):
                    moved = set()
                    for exp in base:
                        out = [0] * len(exp)
                        for i, e in enumerate(exp):
                            out[perm[i]] = e
                        moved.add(tuple(out))
                    assert moved == base


class TestFixtures:
    def test_l_six(self):
        ideal = fixture_ideal("L_six")
        assert len(ideal.gens) == 9
        assert all(g.degree == 2 for g in ideal.gens)
        assert [str(g) for g in ideal.gens] == [
            "x1*x2", "x1*x3", "x1*x4", "x2*x3", "x2*x5", "x3*x6",
            "x4*x5", "x4*x6", "x5*x6",
        ]

    def test_l_2n3_at_three(self):
        ideal = fixture_ideal("L_2n3", 3)
        assert {str(g) for g in ideal.gens} == {
            "x11*x12*x13",
            "x21*x22*x23",
            "x13*x23",
            "x12*x22",
            "x11*x21",
        }

    def test_l_2n3_shape(self):
        for n in (3, 4, 5):
            ideal = fixture_ideal("L_2n3", n)
            assert len(ideal.gens) == 2 + math.comb(n, 2)
            assert sorted({g.degree for g in ideal.gens}) == sorted({n, 2 * (n - 2)})

    def test_l_2n5_shape(self):
        # degree audit: 2n window products of one missing column, plus the
        # first-(n-1)-columns pair family of degree 2(n-3)
        ideal = fixture_ideal("L_2n5", 4)
        assert len(ideal.gens) == 2 * 4 + math.comb(3, 2)
        degrees = sorted(g.degree for g in ideal.gens)
        assert degrees == [2, 2, 2] + [3] * 8

    def test_fixture_bounds(self):
        with pytest.raises(ValueError):
            fixture_ideal("L_2n3", 2)
        with pytest.raises(ValueError):
            fixture_ideal("L_2n5", 3)
        with pytest.raises(ValueError):
            fixture_ideal("nope")
