"""Acceptance gate: every quantitative claim at its stated tolerance.

All values are exact integers, computed at characteristic 32003 with a GF(2)
cross-run; a field disagreement fails the criterion with a torsion diagnostic.
One summary line prints per criterion (run with -s to see them on success).
The 4x5 board ideal's reg and depth are frozen computed values, not claims
of the paper.
"""

import hashlib
import json

import pytest

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


def test_long_four_by_five(catalog):
    cases = catalog["long"]
    assert [c.id for c in cases] == ["four-five"]
    _check("long four-by-five (frozen computed values)", cases)


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
        "b9e4e8548b8c5c7f187aec513a5a55b0607ac426068508eddc2387e54d3a7fc7",
    )
