"""Reproduction catalog: named quantitative checks with frozen expected values.

SUITES maps each suite name to the function that runs it: ``paper`` checks
the paper's statements on small boards, ``properties`` checks general laws
on a corpus and on seeded random ideals, and ``long`` holds the 4x5 board
ideal, whose values are frozen as computed. All expected values are integers
and matches are exact. A case read off an invariant report (_report_case)
computes it at characteristic 32003 with a GF(2) cross-run; a disagreement
between the two fields fails the case with a torsion diagnostic instead of
silently picking one.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass

from .betti import (
    betti_table,
    betti_table_hochster,
    betti_table_koszul,
    colon_sequence_reg_bound,
    invariant_report,
    sum_formula_predict,
    terai_check,
)
from .boards import (
    Board,
    board_symmetries,
    chessboard_complex,
    facet_ideal,
    fixture_ideal,
    minimal_primes_formula,
    prime_profile,
    stanley_reisner_ideal,
    subcomplex_a,
    subcomplex_b,
    subcomplex_d,
)
from .complexes import (
    SimplicialComplex,
    facet_ideal_of_complex,
    induced_matching_bound,
)
from .homology import DEFAULT_FIELD, GF2, reduced_betti
from .monomials import Monomial, MonomialIdeal, VariableSet, min_gens, path_ideal

RANDOM_SEED = 20240811


@dataclass
class VerifyCase:
    id: str
    description: str
    rule: str
    expected: dict
    computed: dict
    status: str
    seconds: float


def _case(case_id, description, rule, expected, computed, t0) -> VerifyCase:
    status = "pass" if expected == computed else "fail"
    return VerifyCase(case_id, description, rule, expected, computed, status, time.perf_counter() - t0)


_REPORT_READS = {
    "reg": lambda rep: rep.reg,
    "depth": lambda rep: rep.depth,
    "a": lambda rep: rep.a_invariant,
    "torsion": lambda rep: int(rep.torsion_warning),
    "depth_le_dim": lambda rep: int(rep.depth <= rep.dim),
}


def _report_case(case_id, description, rule, expected, ideal, symmetries=None) -> VerifyCase:
    """A case read off one invariant report at 32003 with a GF(2) cross-run
    folded into the torsion flag: each key of ``expected`` names the value
    read (see _REPORT_READS)."""
    t0 = time.perf_counter()
    rep = invariant_report(ideal, symmetries=symmetries, cross_check=True)
    computed = {key: _REPORT_READS[key](rep) for key in expected}
    return _case(case_id, description, rule, expected, computed, t0)


# ---------------------------------------------------------------------------
# paper suite

_DECOMP_BOARDS = [(m, n) for m in (1, 2, 3) for n in range(m, 6)] + [(4, 4)]
_POWER_ROW_CASES = [(n, t) for n in (1, 2, 3, 4) for t in (1, 2, 3)]
_POWER_TWO_ROW_REGULAR = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]
_MATCHING_BOARDS = [(2, 3), (2, 4), (3, 3), (3, 4)]
_A_INVARIANT_BOARDS = [(m, n) for m in (1, 2, 3) for n in range(m, 5)]


def _formula_prime_count(m: int, n: int) -> int:
    return sum(math.comb(m, s) * math.comb(n, m - 1 - s) for s in range(m))


def _board_power_case(n: int, t: int, expected_reg: int, expected_depth: int, m: int = 2):
    board = Board(m, n)
    return _report_case(
        f"power-{m}x{n}-t{t}",
        f"reg and depth of the {m}x{n} board ideal power t={t}",
        f"power law for {m}-row boards",
        {"reg": expected_reg, "depth": expected_depth, "torsion": 0},
        facet_ideal(board) ** t,
        board_symmetries(board),
    )


def paper_suite():
    cases = []

    for m, n in _DECOMP_BOARDS:
        t0 = time.perf_counter()
        board = Board(m, n)
        formula = set(minimal_primes_formula(board))
        brute = set(facet_ideal(board).minimal_primes())
        expected = {"count": _formula_prime_count(m, n), "set_equal": 1}
        computed = {"count": len(formula), "set_equal": int(formula == brute)}
        cases.append(
            _case(
                f"decomposition-{m}x{n}",
                f"minimal primes of the {m}x{n} board ideal: row/column deletion family vs cover search",
                "minimal primes are exactly the row/column deletion sets",
                expected,
                computed,
                t0,
            )
        )

    for m, n in _DECOMP_BOARDS:
        t0 = time.perf_counter()
        board = Board(m, n)
        height, dim, bight = prime_profile(board)
        expected = {
            "height": n,
            "dim": (m - 1) * n,
            "bight": (n + 1) ** 2 // 4 if n < 2 * m - 1 else (n - m + 1) * m,
        }
        computed = {"height": height, "dim": dim, "bight": bight}
        cases.append(
            _case(
                f"profile-{m}x{n}",
                f"height, dim, bight of the {m}x{n} board ideal",
                "closed forms against the enumerated prime sizes",
                expected,
                computed,
                t0,
            )
        )

    for n, t in _POWER_ROW_CASES:
        cases.append(
            _report_case(
                f"power-1x{n}-t{t}",
                f"single-row board, power t={t}: zero-dimensional with linear powers",
                "reg(S/I^t) = t - 1 and depth 0 for the full row ideal",
                {"reg": t - 1, "depth": 0, "torsion": 0},
                facet_ideal(Board(1, n)) ** t,
            )
        )

    for n, t in _POWER_TWO_ROW_REGULAR:
        cases.append(_board_power_case(n, t, 2 * t, 2))

    for n in (3, 4):
        board = Board(3, n)
        cases.append(
            _report_case(
                f"three-row-3x{n}",
                f"reg and depth of the 3x{n} board ideal",
                "three-row boards have reg = depth = 4",
                {"reg": 4, "depth": 4, "torsion": 0},
                facet_ideal(board),
                board_symmetries(board),
            )
        )

    fixture_specs = [
        ("L_six", None, 3),
        ("L_2n3", 3, 3),
        ("L_2n3", 4, 5),
        ("L_2n3", 5, 7),
        ("L_2n5", 4, 3),
        ("L_2n5", 5, 5),
    ]
    for name, n, expected_reg in fixture_specs:
        t0 = time.perf_counter()
        ideal = fixture_ideal(name, n)
        rep = invariant_report(ideal, cross_check=True)
        suffix = "" if n is None else f"-n{n}"
        cases.append(
            _case(
                f"fixture-{name}{suffix}",
                f"ideal-level regularity of fixture {name}" + (f" at n={n}" if n else ""),
                "frozen fixture regularity",
                {"reg": expected_reg, "torsion": 0},
                {"reg": rep.reg + 1, "torsion": int(rep.torsion_warning)},
                t0,
            )
        )

    for m, n in _MATCHING_BOARDS:
        t0 = time.perf_counter()
        board = Board(m, n)
        value, witness = induced_matching_bound(chessboard_complex(board))
        rep = invariant_report(facet_ideal(board), symmetries=board_symmetries(board), cross_check=True)
        expected = {"bound": 2 * (m - 1), "has_witness": 1, "reg_ge_bound": 1}
        computed = {
            "bound": value,
            "has_witness": int(bool(witness)),
            "reg_ge_bound": int(rep.reg >= value),
        }
        cases.append(
            _case(
                f"matching-{m}x{n}",
                f"induced-matching bound on the {m}x{n} board complex",
                "two disjoint diagonal placements give the lower bound 2(m-1) <= reg",
                expected,
                computed,
                t0,
            )
        )

    for m, n in _A_INVARIANT_BOARDS:
        board = Board(m, n)
        cases.append(
            _report_case(
                f"a-invariant-{m}x{n}",
                f"a-invariant of the {m}x{n} board quotient",
                "a-invariant vanishes for boards with at most three rows",
                {"a": 0, "torsion": 0},
                facet_ideal(board),
                board_symmetries(board),
            )
        )

    for m in range(1, 5):
        for n in range(m, 5):
            case_id = f"blvz-{m}x{n}"
            description = f"depth of the face ring of the {m}x{n} board complex"
            rule = "depth = min(m, n, floor((m+n+1)/3))"
            expected = {"depth": min(m, n, (m + n + 1) // 3), "torsion": 0}
            if (m, n) == (1, 1):
                # zero non-face ideal: the quotient is the whole ring
                computed = {"depth": 1, "torsion": 0}
                cases.append(_case(case_id, description, rule, expected, computed, time.perf_counter()))
            else:
                board = Board(m, n)
                ideal = stanley_reisner_ideal(board)
                cases.append(_report_case(case_id, description, rule, expected, ideal, board_symmetries(board)))

    cases.append(_board_power_case(3, 4, 8, 1))
    cases.append(_board_power_case(4, 3, 6, 1))

    board = Board(4, 4)
    cases.append(
        _report_case(
            "four-four",
            "reg and depth of the 4x4 board ideal",
            "reg = depth = 6 on the 4x4 board",
            {"reg": 6, "depth": 6, "torsion": 0},
            facet_ideal(board),
            board_symmetries(board),
        )
    )
    return cases


def long_suite():
    """Cases too slow for the paper suite. The 4x5 values are not from the
    paper: reg and depth are frozen as computed, with 32003 and GF(2)
    agreeing, so the case guards against a change in them."""
    board = Board(4, 5)
    return [
        _report_case(
            "four-five",
            "reg and depth of the 4x5 board ideal (frozen, not from the paper)",
            "reg = depth = 6 as computed at 32003 and GF(2); depth <= dim",
            {"reg": 6, "depth": 6, "torsion": 0, "depth_le_dim": 1},
            facet_ideal(board),
            board_symmetries(board),
        )
    ]


# ---------------------------------------------------------------------------
# property suite


def _squarefree_corpus():
    for m in (1, 2, 3):
        for n in range(m, 5):
            board = Board(m, n)
            yield f"board-{m}x{n}", facet_ideal(board), board_symmetries(board)
    yield "fixture-L_six", fixture_ideal("L_six"), None
    for n in (3, 4, 5):
        yield f"fixture-L_2n3-n{n}", fixture_ideal("L_2n3", n), None
    for n in (4, 5):
        yield f"fixture-L_2n5-n{n}", fixture_ideal("L_2n5", n), None
    for m in (1, 2, 3):
        for n in range(m, 4):
            if (m, n) == (1, 1):
                continue
            board = Board(m, n)
            yield f"sr-{m}x{n}", stanley_reisner_ideal(board), board_symmetries(board)


def _random_ideal(rng, ambient, max_gens, max_exp):
    nvars = ambient.count
    while True:
        gens = []
        for _ in range(rng.randint(1, max_gens)):
            exps = tuple(rng.randint(0, max_exp) for _ in range(nvars))
            if any(exps):
                gens.append(Monomial(ambient, exps))
        ideal = min_gens(gens, ambient)
        if not ideal.is_zero and ideal.is_proper:
            return ideal


def _random_monomial(rng, ambient, max_exp):
    while True:
        exps = tuple(rng.randint(0, max_exp) for _ in range(ambient.count))
        if any(exps):
            return Monomial(ambient, exps)


def _join_disjoint(i1, i2):
    """Place two ideals on one variable set, second block shifted."""
    a, b = i1.ambient.count, i2.ambient.count
    joint = VariableSet(tuple(f"u{k}" for k in range(1, a + 1)) + tuple(f"v{k}" for k in range(1, b + 1)))
    gens = []
    for g in i1.gens:
        gens.append(Monomial(joint, g.exponents + (0,) * b))
    for g in i2.gens:
        gens.append(Monomial(joint, (0,) * a + g.exponents))
    first = min_gens(gens[: len(i1.gens)], joint)
    second = min_gens(gens[len(i1.gens) :], joint)
    return first, second


def _ideal_level_depth(ideal):
    # depth of the ideal as a module: one more than the quotient depth
    return invariant_report(ideal).depth + 1


def properties_suite():
    rng = random.Random(RANDOM_SEED)
    cases = []

    t0 = time.perf_counter()
    mismatches = []
    for name, ideal, syms in _squarefree_corpus():
        h = betti_table_hochster(ideal, DEFAULT_FIELD, syms)
        k = betti_table_koszul(ideal, DEFAULT_FIELD, syms)
        if h.entries != k.entries:
            mismatches.append(name)
    cases.append(
        _case(
            "hochster-koszul",
            "restriction sweep equals lattice sweep entry by entry on the squarefree corpus",
            "two independent Betti routes agree",
            {"mismatches": 0},
            {"mismatches": len(mismatches)},
            t0,
        )
    )

    t0 = time.perf_counter()
    bad = []
    for m in (1, 2, 3):
        for n in range(m, 5):
            ideal = facet_ideal(Board(m, n))
            if ideal.alexander_dual().alexander_dual() != ideal:
                bad.append((m, n))
    cases.append(
        _case(
            "dual-involution",
            "double Alexander dual returns the board ideal, boards up to 3x4",
            "duality is an involution on squarefree proper ideals",
            {"failures": 0},
            {"failures": len(bad)},
            t0,
        )
    )

    t0 = time.perf_counter()
    bad = []
    for name, ideal, syms in _squarefree_corpus():
        if not terai_check(ideal, symmetries=syms):
            bad.append(name)
    cases.append(
        _case(
            "terai-duality",
            "pd of the quotient equals reg of the Alexander dual on the corpus",
            "projective dimension transposes to dual regularity",
            {"failures": 0},
            {"failures": len(bad)},
            t0,
        )
    )

    t0 = time.perf_counter()
    bad = []
    for name, ideal, syms in _squarefree_corpus():
        table = betti_table(ideal, DEFAULT_FIELD, syms)
        quotient = table.quotient()
        if quotient.reg() != table.reg() - 1 or quotient.pd() != table.pd() + 1:
            bad.append(name)
    cases.append(
        _case(
            "quotient-shift",
            "quotient reg and pd sit one step from the ideal values on every computed pair",
            "reg(S/I) = reg(I) - 1 and pd(S/I) = pd(I) + 1",
            {"failures": 0},
            {"failures": len(bad)},
            t0,
        )
    )

    t0 = time.perf_counter()
    violations = 0
    for _ in range(50):
        amb1 = VariableSet.generic(rng.randint(1, 4), "u")
        amb2 = VariableSet.generic(rng.randint(1, 4), "v")
        i1 = _random_ideal(rng, amb1, 3, 2)
        i2 = _random_ideal(rng, amb2, 3, 2)
        j1, j2 = _join_disjoint(i1, i2)
        reg1 = betti_table(i1).reg()
        reg2 = betti_table(i2).reg()
        if betti_table(j1 + j2).reg() != reg1 + reg2 - 1:
            violations += 1
        if betti_table(j1 * j2).reg() != reg1 + reg2:
            violations += 1
        d1 = _ideal_level_depth(i1)
        d2 = _ideal_level_depth(i2)
        if _ideal_level_depth(j1 + j2) != d1 + d2 - 1:
            violations += 1
        if _ideal_level_depth(j1 * j2) != d1 + d2:
            violations += 1
    cases.append(
        _case(
            "disjoint-sum-product",
            "sum and product laws for ideals on disjoint variables, 50 random pairs",
            "reg(I+J) = reg I + reg J - 1, reg(JI) = reg I + reg J; depth adds likewise",
            {"violations": 0},
            {"violations": violations},
            t0,
        )
    )

    t0 = time.perf_counter()
    violations = 0
    for _ in range(50):
        ambient = VariableSet.generic(rng.randint(2, 5))
        ideal = _random_ideal(rng, ambient, 4, 2)
        f = _random_monomial(rng, ambient, 2)
        base = betti_table(ideal).quotient().reg()
        extended = betti_table(ideal + min_gens([f], ambient)).quotient().reg()
        if extended > base + f.degree - 1:
            violations += 1
    cases.append(
        _case(
            "adjoin-monomial-reg",
            "adjoining a degree-d monomial raises quotient reg by at most d - 1, 50 random pairs",
            "reg(S/(I,f)) <= reg(S/I) + deg f - 1",
            {"violations": 0},
            {"violations": violations},
            t0,
        )
    )

    t0 = time.perf_counter()
    bad = 0
    board = Board(2, 2)
    square = facet_ideal(board)
    amb1 = VariableSet.generic(2, "u")
    comp = min_gens([Monomial(amb1, (1, 1))], amb1)
    comp_powers = []
    for k in (1, 2, 3):
        rep = invariant_report(comp**k)
        comp_powers.append((rep.reg, rep.depth))
    for t in (1, 2, 3):
        predicted = sum_formula_predict(comp_powers, comp_powers, t)
        rep = invariant_report(square**t, symmetries=board_symmetries(board), cross_check=True)
        if predicted != (rep.reg, rep.depth) or rep.torsion_warning:
            bad += 1
    cases.append(
        _case(
            "sum-power-prediction",
            "disjoint-sum power formulas predict the 2x2 board powers up to t=3",
            "power reg/depth of a disjoint sum from component power tables",
            {"failures": 0},
            {"failures": bad},
            t0,
        )
    )

    t0 = time.perf_counter()
    bad = []
    for m in (1, 2, 3):
        for n in range(m, 5):
            board = Board(m, n)
            f_prev = facet_ideal_of_complex(chessboard_complex(board))
            g_total = MonomialIdeal.zero(board.vars)
            for i in range(1, n + 1):
                fi = facet_ideal_of_complex(subcomplex_a(board, i))
                gi = facet_ideal_of_complex(subcomplex_b(board, i))
                x = Monomial.variable(board.vars, board.cell(m, i))
                if f_prev.colon(x) != fi + gi:
                    bad.append((m, n, i, "colon"))
                if f_prev + min_gens([x], board.vars) != fi + min_gens([x], board.vars):
                    bad.append((m, n, i, "adjoin"))
                g_total = g_total + gi
                f_prev = fi
            if m >= 2:
                reduced = Board(m - 1, n)
                lifted = min_gens(
                    [
                        Monomial(board.vars, g.exponents + (0,) * n)
                        for g in facet_ideal(reduced).gens
                    ],
                    board.vars,
                )
                if g_total != lifted:
                    bad.append((m, n, "sum-of-g"))
            elif g_total != MonomialIdeal.unit_ideal(board.vars):
                bad.append((m, n, "sum-of-g-unit"))
            d_sum = MonomialIdeal.zero(board.vars)
            for cols in itertools.combinations(range(1, n + 1), m):
                d_sum = d_sum + facet_ideal_of_complex(subcomplex_d(board, cols))
            if d_sum != facet_ideal(board):
                bad.append((m, n, "sum-of-d"))
    cases.append(
        _case(
            "bottom-row-colon-identities",
            "bottom-row colon and adjoin identities plus column-subboard sum, boards up to 3x4",
            "peeling the bottom row factors through the two subcomplex families",
            {"failures": 0},
            {"failures": len(bad)},
            t0,
        )
    )

    t0 = time.perf_counter()
    board = Board(3, 3)
    f0 = facet_ideal(board)
    depth_f0 = invariant_report(f0, symmetries=board_symmetries(board), cross_check=True).depth
    w_depths = []
    identity_ok = 1
    bottom = [board.cell(3, i) for i in range(1, 4)]
    for r in range(4):
        for w_cols in itertools.combinations(range(1, 4), r):
            g_sum = MonomialIdeal.zero(board.vars)
            colon_product = Monomial.unit(board.vars)
            for i in w_cols:
                g_sum = g_sum + facet_ideal_of_complex(subcomplex_b(board, i))
                colon_product = colon_product * Monomial.variable(board.vars, board.cell(3, i))
            p_rest = min_gens(
                [
                    Monomial.variable(board.vars, board.cell(3, i))
                    for i in range(1, 4)
                    if i not in w_cols
                ],
                board.vars,
            )
            f_w = g_sum + p_rest
            if f0.colon(colon_product) + p_rest != f_w:
                identity_ok = 0
            if f_w.is_unit or f_w.is_zero:
                continue
            w_depths.append(invariant_report(f_w).depth)
    cases.append(
        _case(
            "subset-colon-depth-bound",
            "depth of the 3x3 board ideal dominates the bottom-row subset colon family",
            "depth(S/I) >= min over subsets W of depth(S/((I : prod W) + rest))",
            {"bound_holds": 1, "identity": 1},
            {"bound_holds": int(depth_f0 >= min(w_depths)), "identity": identity_ok},
            t0,
        )
    )

    for n in (3, 4):
        t0 = time.perf_counter()
        board = Board(3, n)
        order = list(facet_ideal(Board(2, n)).gens)
        lifted = [
            Monomial(board.vars, g.exponents + (0,) * n) for g in order
        ]
        bound, trace = colon_sequence_reg_bound(facet_ideal(board), lifted)
        step_regs = [s.colon_reg for s in trace if s.note == "" and s.colon_reg is not None]
        cases.append(
            _case(
                f"colon-replay-3x{n}",
                f"two-row generators adjoined in order bound the 3x{n} regularity",
                "every colon step has reg at most 3, total bound at most 5",
                {"bound_le_5": 1, "steps_le_3": 1},
                {
                    "bound_le_5": int(bound <= 5),
                    "steps_le_3": int(all(r <= 3 for r in step_regs)),
                },
                t0,
            )
        )

    t0 = time.perf_counter()
    bad = []
    for n in range(2, 8):
        if betti_table(path_ideal("path", n, 2)).reg() != (n + 1) // 3 + 1:
            bad.append(("path", n, 2))
        if n >= 3:
            if betti_table(path_ideal("cycle", n, 2)).reg() != (n + 1) // 3 + 1:
                bad.append(("cycle", n, 2))
            if betti_table(path_ideal("path", n, n - 1)).reg() != n - 1:
                bad.append(("path", n, n - 1))
            if betti_table(path_ideal("cycle", n, n - 1)).reg() != n - 1:
                bad.append(("cycle", n, n - 1))
    cases.append(
        _case(
            "path-ideal-reg",
            "edge and long-window path ideals of paths and cycles up to 7 vertices",
            "reg(P_2) = floor((n+1)/3) + 1 and reg(P_(n-1)) = n - 1",
            {"failures": 0},
            {"failures": len(bad)},
            t0,
        )
    )

    t0 = time.perf_counter()
    bad = 0
    for _ in range(20):
        ambient = VariableSet.generic(rng.randint(2, 5))
        ideal = _random_ideal(rng, ambient, 3, 2)
        perm = list(range(ambient.count))
        rng.shuffle(perm)
        moved = ideal.permuted(tuple(perm))
        if sorted(betti_table(ideal).entries.items()) != sorted(betti_table(moved).entries.items()):
            bad += 1
    cases.append(
        _case(
            "permutation-invariance",
            "Betti tables are unchanged by 20 random variable relabelings",
            "tables depend on the ideal, not the labels",
            {"failures": 0},
            {"failures": bad},
            t0,
        )
    )

    t0 = time.perf_counter()
    bad = 0
    for _ in range(20):
        nverts = rng.randint(1, 5)
        ambient = VariableSet.generic(nverts + 1)
        nfacets = rng.randint(1, 4)
        sets = [
            [v for v in range(nverts) if rng.random() < 0.6] for _ in range(nfacets)
        ]
        cx = SimplicialComplex.from_facets(ambient, [s for s in sets if s] or [[0]])
        apex = nverts
        coned = SimplicialComplex.from_facets(ambient, [list(f) + [apex] for f in cx.facets])
        for field in (DEFAULT_FIELD, GF2):
            if any(reduced_betti(coned, field).values()):
                bad += 1
    cases.append(
        _case(
            "cone-acyclicity",
            "coning any small complex kills all reduced homology, both fields",
            "cones are contractible; Euler check asserted on every homology call",
            {"failures": 0},
            {"failures": bad},
            t0,
        )
    )

    return cases


SUITES = {"paper": paper_suite, "properties": properties_suite, "long": long_suite}


def run_suite(name: str):
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name]()
