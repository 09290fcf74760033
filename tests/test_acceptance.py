"""Acceptance gate: every quantitative claim at its stated tolerance.

All values are exact integers, computed at characteristic 32003 with a GF(2)
cross-run; a field disagreement fails the criterion with a torsion diagnostic.
One summary line prints per criterion (run with -s to see them on success).
The 4x5 board ideal's reg and depth are frozen computed values, not claims
of the paper, and so are the 4x6 and 5x5 values of the frontier tests
(deselected by default; run with -m frontier).
"""

import hashlib
import json

import pytest

from rookideal import (
    Board,
    board_symmetries,
    chessboard_complex,
    facet_ideal,
    induced_matching_bound,
    invariant_report,
)
from rookideal.verify import SUITES, run_suite


@pytest.fixture(scope="module")
def catalog():
    return {suite: run_suite(suite) for suite in SUITES}


@pytest.fixture(scope="module")
def paper_cases(catalog):
    return {case.id: case for case in catalog["paper"]}


def _check(name, cases):
    failed = [c for c in cases if c.status != "pass"]
    total = sum(c.seconds for c in cases)
    status = "FAIL" if failed else "PASS"
    print(f"ACCEPTANCE {name}: {status} ({len(cases)} checks, {total:.2f}s)")
    for case in failed:
        print(f"  {case.id}: expected {case.expected} got {case.computed}")
    assert not failed
    return total


def _select(paper_cases, prefix):
    return [case for cid, case in sorted(paper_cases.items()) if cid.startswith(prefix)]


def test_criterion_1_decomposition(paper_cases):
    cases = _select(paper_cases, "decomposition-")
    assert len(cases) == 13
    total = _check("1 minimal-prime decomposition", cases)
    assert total < 10.0


def test_criterion_2_prime_profile(paper_cases):
    cases = _select(paper_cases, "profile-")
    assert len(cases) == 13
    _check("2 height/dim/bight profile", cases)


def test_criterion_3_single_row_powers(paper_cases):
    cases = _select(paper_cases, "power-1x")
    assert len(cases) == 12
    total = _check("3 single-row powers", cases)
    assert total < 5.0


def test_criterion_4_two_row_powers(paper_cases):
    depth_drops = ("power-2x3-t4", "power-2x4-t3")
    cases = [case for case in _select(paper_cases, "power-2x") if case.id not in depth_drops]
    assert len(cases) == 8
    _check("4 two-row powers (regular range)", cases)


def test_criterion_4_depth_drop_2x3(paper_cases):
    cases = _select(paper_cases, "power-2x3-t4")
    assert len(cases) == 1
    _check("4 two-row depth drop (2x3, t=4)", cases)


def test_criterion_5_three_row_boards(paper_cases):
    cases = _select(paper_cases, "three-row-")
    assert len(cases) == 2
    _check("5 three-row boards", cases)


def test_criterion_6_fixtures(paper_cases):
    cases = _select(paper_cases, "fixture-")
    assert len(cases) == 6
    _check("6 fixture regularities", cases)


def test_criterion_7_induced_matching(paper_cases):
    cases = _select(paper_cases, "matching-")
    assert len(cases) == 4
    _check("7 induced-matching lower bound", cases)


def test_criterion_8_a_invariant(paper_cases):
    cases = _select(paper_cases, "a-invariant-")
    assert len(cases) == 9
    _check("8 a-invariant vanishing", cases)


def test_criterion_9_face_ring_depth(paper_cases):
    cases = _select(paper_cases, "blvz-")
    assert len(cases) == 10
    _check("9 face-ring depth cross-check", cases)


def test_criterion_11_property_suite(catalog):
    _check("11 property suite", catalog["properties"])


def test_criterion_4_depth_drop_2x4(paper_cases):
    cases = _select(paper_cases, "power-2x4-t3")
    assert len(cases) == 1
    _check("4 two-row depth drop (2x4, t=3)", cases)


def test_long_four_by_five(paper_cases):
    cases = _select(paper_cases, "four-five")
    assert len(cases) == 1
    _check("four-by-five (frozen computed values)", cases)


@pytest.mark.frontier
@pytest.mark.parametrize("m, n", [(4, 6), (5, 5)])
def test_frontier_board(m, n):
    # computed at 32003 with a GF(2) cross-run, not from the paper, which
    # proves its bounds attained for m <= 3 only: reg = depth = 2(m-1), the
    # induced-matching bound that two disjoint placements give
    board = Board(m, n)
    report = invariant_report(facet_ideal(board), symmetries=board_symmetries(board), cross_check=True)
    bound, witness = induced_matching_bound(chessboard_complex(board), 2)
    print(f"FRONTIER {m}x{n}: reg {report.reg} depth {report.depth} a {report.a_invariant} ({report.wall_ms / 1000:.1f}s)")
    assert (report.reg, report.depth, report.a_invariant) == (2 * (m - 1), 2 * (m - 1), 0)
    assert not report.torsion_warning
    assert bound == 2 * (m - 1) and len(witness) == 2 and report.reg >= bound


def test_criterion_10_four_by_four(paper_cases):
    cases = _select(paper_cases, "four-four")
    assert len(cases) == 1
    _check("10 four-by-four stretch", cases)


def test_catalog_digest(catalog):
    # fails on any change to a case's suite, id, description, rule or
    # expected values, or to the order of the suites and their cases
    rows = [
        [suite, case.id, case.description, case.rule, case.expected]
        for suite, cases in catalog.items()
        for case in cases
    ]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert (len(rows), digest) == (
        95,
        "f3489cf1f0a0d0d64e04b6b4df2170f9eeb7713aef8dfb890f91f99c8f444ecf",
    )
