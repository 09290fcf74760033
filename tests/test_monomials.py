import pytest

from rookideal import (
    AmbientMismatch,
    Board,
    IdealParseError,
    Monomial,
    MonomialIdeal,
    VariableSet,
    facet_ideal,
    ideal_from_text,
    min_gens,
    path_ideal,
)

import oracles

V4 = VariableSet.generic(4)


def mono(ambient, *exps):
    return Monomial(ambient, tuple(exps))


def board_mono(board, *cells):
    return Monomial.from_support(board.vars, [board.cell(i, j) for i, j in cells])


class TestMonomial:
    def test_divides(self):
        b = Board(3, 3)
        a = board_mono(b, (1, 1), (2, 2))
        c = board_mono(b, (1, 1), (2, 2), (3, 3))
        assert a.divides(c)
        assert not c.divides(a)

    def test_unit_divides_everything(self):
        u = Monomial.unit(V4)
        assert u.divides(mono(V4, 3, 0, 1, 0))
        assert u.degree == 0

    def test_higher_exponent_does_not_divide(self):
        assert not mono(V4, 2, 0, 0, 0).divides(mono(V4, 1, 0, 0, 0))

    def test_lcm(self):
        b = Board(3, 3)
        left = board_mono(b, (1, 1), (2, 2))
        right = board_mono(b, (1, 1), (2, 3))
        assert oracles.lcm(left, right) == board_mono(b, (1, 1), (2, 2), (2, 3))
        assert oracles.lcm(left, left) == left

    def test_lcm_with_exponents(self):
        assert oracles.lcm(mono(V4, 2, 0, 0, 0), mono(V4, 1, 1, 0, 0)) == mono(V4, 2, 1, 0, 0)

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            mono(V4, 1, 0, 0, 0).divides(Monomial.unit(VariableSet.generic(3)))

    def test_degree_is_sum(self):
        assert mono(V4, 2, 1, 0, 3).degree == 6


class TestMinGens:
    def test_divisible_input_pruned(self):
        b = Board(3, 3)
        small = board_mono(b, (1, 1), (2, 2))
        big = board_mono(b, (1, 1), (2, 2), (3, 3))
        assert min_gens([small, big], b.vars).gens == (small,)

    def test_empty_is_zero_ideal(self):
        assert min_gens([], V4).is_zero

    def test_matches_naive_pruning(self):
        # generators of a colon ideal with redundancies
        b = Board(2, 3)
        raw = [
            board_mono(b, (2, 2)),
            board_mono(b, (2, 3)),
            board_mono(b, (1, 2), (2, 1)),
            board_mono(b, (1, 2), (2, 3)),
            board_mono(b, (1, 3), (2, 1)),
            board_mono(b, (1, 3), (2, 2)),
        ]
        expected = tuple(oracles.naive_min_gens(raw))
        assert min_gens(raw, b.vars).gens == expected
        assert [str(g) for g in expected] == ["x22", "x23", "x12*x21", "x13*x21"]

    def test_idempotent(self):
        ideal = facet_ideal(Board(2, 3))
        assert min_gens(ideal.gens, ideal.ambient) == ideal


class TestArithmetic:
    def test_sum_disjoint_supports(self):
        b = Board(2, 2)
        one = min_gens([board_mono(b, (1, 1), (2, 2))], b.vars)
        other = min_gens([board_mono(b, (1, 2), (2, 1))], b.vars)
        assert (one + other) == facet_ideal(b)

    def test_sum_with_zero_and_unit(self):
        ideal = facet_ideal(Board(2, 2))
        assert ideal + MonomialIdeal.zero(ideal.ambient) == ideal
        assert (ideal + MonomialIdeal.unit_ideal(ideal.ambient)).is_unit

    def test_square_of_two_gens(self):
        ideal = facet_ideal(Board(2, 2))
        squared = ideal**2
        assert len(squared.gens) == 3
        assert squared == oracles.naive_power(ideal, 2)

    def test_power_one_is_identity(self):
        ideal = facet_ideal(Board(2, 3))
        assert ideal**1 == ideal

    def test_power_zero_rejected(self):
        with pytest.raises(ValueError):
            facet_ideal(Board(2, 2)) ** 0

    def test_power_matches_naive(self):
        ideal = facet_ideal(Board(2, 3))
        assert ideal**2 == oracles.naive_power(ideal, 2)
        assert len((ideal**2).gens) == 21

    def test_colon_by_variable(self):
        b = Board(2, 3)
        x11 = Monomial.variable(b.vars, b.cell(1, 1))
        colon = facet_ideal(b).colon(x11)
        assert [str(g) for g in colon.gens] == ["x22", "x23", "x12*x21", "x13*x21"]

    def test_colon_by_unit(self):
        ideal = facet_ideal(Board(2, 3))
        assert ideal.colon(Monomial.unit(ideal.ambient)) == ideal

    def test_colon_to_unit_ideal(self):
        b = Board(3, 3)
        ideal = min_gens([board_mono(b, (1, 1), (2, 2))], b.vars)
        assert ideal.colon(board_mono(b, (1, 1), (2, 2), (3, 3))).is_unit


class TestSquarefreeSupport:
    def test_board_ideal(self):
        ideal = facet_ideal(Board(3, 3))
        assert ideal.is_squarefree
        assert ideal.support() == frozenset(range(9))

    def test_non_squarefree(self):
        assert not min_gens([mono(V4, 2, 1, 0, 0)], V4).is_squarefree

    def test_zero_ideal(self):
        zero = MonomialIdeal.zero(V4)
        assert zero.support() == frozenset()
        assert zero.is_squarefree


class TestDualAndPrimes:
    def test_dual_of_two_by_two(self):
        dual = facet_ideal(Board(2, 2)).alexander_dual()
        assert [str(g) for g in dual.gens] == ["x11*x12", "x11*x21", "x12*x22", "x21*x22"]

    def test_principal_dual(self):
        two = VariableSet.generic(2)
        dual = min_gens([mono(two, 1, 1)], two).alexander_dual()
        assert [str(g) for g in dual.gens] == ["x1", "x2"]

    def test_double_dual(self):
        ideal = facet_ideal(Board(2, 3))
        assert ideal.alexander_dual().alexander_dual() == ideal

    def test_primes_match_brute_force(self):
        for m, n in [(1, 3), (2, 2), (2, 3), (3, 3)]:
            ideal = facet_ideal(Board(m, n))
            brute = oracles.brute_force_minimal_covers(
                [g.support() for g in ideal.gens], m * n
            )
            assert list(ideal.minimal_primes()) == brute

    def test_three_by_three_prime_count(self):
        assert len(facet_ideal(Board(3, 3)).minimal_primes()) == 15

    def test_single_edge(self):
        two = VariableSet.generic(2)
        assert min_gens([mono(two, 1, 1)], two).minimal_primes() == ((0,), (1,))

    def test_non_squarefree_rejected(self):
        bad = min_gens([mono(V4, 2, 0, 0, 0)], V4)
        with pytest.raises(ValueError):
            bad.minimal_primes()
        with pytest.raises(ValueError):
            bad.alexander_dual()


class TestPathIdeal:
    def test_path(self):
        ideal = path_ideal("path", 4, 2)
        assert [str(g) for g in ideal.gens] == ["x1*x2", "x2*x3", "x3*x4"]

    def test_cycle_wraps(self):
        ideal = path_ideal("cycle", 4, 3)
        assert [str(g) for g in ideal.gens] == [
            "x1*x2*x3",
            "x1*x2*x4",
            "x1*x3*x4",
            "x2*x3*x4",
        ]

    def test_cycle_six_is_two_by_three_board(self):
        # x11,x22,x13,x21,x12,x23 walk the hexagon in order
        perm = (0, 4, 2, 3, 1, 5)
        relabeled = facet_ideal(Board(2, 3)).permuted(perm, VariableSet.generic(6))
        assert relabeled == path_ideal("cycle", 6, 2)

    def test_window_too_long(self):
        with pytest.raises(ValueError):
            path_ideal("path", 3, 4)


class TestTextFormat:
    def test_round_trip(self):
        for ideal in (facet_ideal(Board(2, 3)), facet_ideal(Board(2, 2)) ** 2):
            assert ideal_from_text(ideal.to_text()) == ideal

    def test_reader_canonicalizes(self):
        text = "vars 2\n1 1\n1 0\n"
        ideal = ideal_from_text(text)
        assert [str(g) for g in ideal.gens] == ["x1"]

    def test_default_labels(self):
        ideal = ideal_from_text("vars 3\n0 1 1\n")
        assert ideal.ambient.labels == ("x1", "x2", "x3")

    def test_parse_error_carries_line_number(self):
        with pytest.raises(IdealParseError, match="line 3"):
            ideal_from_text("vars 2\n1 0\n1 0 0\n")

    def test_bad_header(self):
        with pytest.raises(IdealParseError, match="line 1"):
            ideal_from_text("vars two\n")
