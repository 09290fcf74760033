"""Tests of the benchmark itself: its correctness gate must be able to fail,
its tracer must notice a span that stops firing, and its exact counts must
repeat for a fixed seed.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.load_library()

import tracing  # noqa: E402
import workloads  # noqa: E402
from rookideal import betti, boards  # noqa: E402
from rookideal.betti import BettiTable, InvariantReport  # noqa: E402

RUN_PY = Path(run.__file__).resolve()


def failures(cases) -> list:
    return run.solve_pass(cases).failures


def run_cases(monkeypatch, capsys, cases) -> tuple[dict, float]:
    """Run the benchmark's entry point on ``cases`` (one untraced and one
    traced pass) and return its result line and the fail_frac it printed."""
    monkeypatch.setitem(workloads.WORKLOADS, "random-ideals", workloads.Workload(lambda seed: cases, (), ()))
    capsys.readouterr()
    assert run.main(["--workload", "random-ideals", "--seed", "1", "--seconds", "0", "--trace", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    frac = next(float(line.split()[1]) for line in lines if line.startswith("fail_frac "))
    return json.loads(lines[-1]), frac


def small_power_case(expected, seed=1):
    board = boards.Board(2, 3)
    return workloads._invariants_case(
        "power-2x3-t2", boards.facet_ideal(board) ** 2, boards.board_symmetries(board),
        expected, random.Random(seed),
    )


def random_cases(count):
    return workloads.random_ideals(3)[:count]


def test_frozen_power_invariants_pass():
    assert workloads.power_invariants(2, 3, 2) == {"reg": 4, "depth": 2}
    assert failures([small_power_case(workloads.power_invariants(2, 3, 2))]) == []


def test_board_cases_meet_the_frozen_integers():
    cases = workloads.squarefree_boards(4)
    assert cases[0].name == "facet-3x4"
    assert failures(cases[:1]) == []
    assert workloads.board_invariants(4, 4) == {"reg": 6, "depth": 6}
    assert workloads.face_ring_invariants(3, 5) == {"depth": 3}


def test_wrong_expected_value_raises_fail_frac(monkeypatch, capsys):
    good = small_power_case(workloads.power_invariants(2, 3, 2))
    wrong = small_power_case({"reg": 5, "depth": 7})
    result, frac = run_cases(monkeypatch, capsys, [good, wrong])
    # two wrong values in one case run count as one failed case run
    assert (result["correct"], result["failed"], result["attempted"], frac) == (False, 2, 4, 0.5)


def test_mismatching_table_raises_fail_frac(monkeypatch, capsys):
    cases = random_cases(4)
    result, frac = run_cases(monkeypatch, capsys, cases)
    assert (result["correct"], result["failed"], frac) == (True, 0, 0.0)
    original = betti.betti_table_hochster

    def off_by_one(ideal, *args, **kwargs):
        table = original(ideal, *args, **kwargs)
        (i, j), b = max(table.entries.items())
        entries = dict(table.entries)
        entries[(i, j)] = b + 1
        return BettiTable(table.subject, table.ambient, table.field, entries)

    monkeypatch.setattr(betti, "betti_table_hochster", off_by_one)
    result, frac = run_cases(monkeypatch, capsys, cases)
    assert (result["correct"], result["failed"], result["attempted"], frac) == (False, 8, 8, 1.0)


def test_torsion_flag_and_exceptions_fail(monkeypatch, capsys):
    report = InvariantReport(4, 5, 4, 8, 4, 6, 0, 32003, True, 9)
    assert workloads.report_check({"reg": 4})(report) == ["torsion flag: GF(2) and 32003 tables differ"]

    def boom():
        raise ValueError("bad input")

    raising = workloads.Case("raises", random_cases(1)[0].ideal, boom, lambda result: [])
    result, frac = run_cases(monkeypatch, capsys, [raising] + random_cases(1))
    assert (result["correct"], result["failed"], frac) == (False, 2, 0.5)


def test_results_carried_over_between_passes_fail(monkeypatch, capsys):
    cases = random_cases(2)
    result, _ = run_cases(monkeypatch, capsys, cases)
    assert result["failed"] == 0

    # a table cache that is no longer cleared makes later passes do less work
    monkeypatch.setattr(betti, "clear_table_cache", lambda: None)
    result, frac = run_cases(monkeypatch, capsys, cases)
    assert not result["correct"] and frac > 0


def test_times_are_scaled_to_reference_speed():
    # a repeat on a host running at half speed counts like one at full speed
    half = run.REFERENCE_S / 2
    assert run.at_reference_speed([0.4, 0.8, 0.5], [half, run.REFERENCE_S, half]) == pytest.approx(0.8)
    assert 0 < run.reference_seconds() < 10


def test_relabelled_symmetries_fix_the_ideal():
    board = boards.Board(2, 3)
    ideal = boards.facet_ideal(board) ** 2
    for seed in (1, 2, 3):
        moved, perms = workloads.relabel(ideal, boards.board_symmetries(board), random.Random(seed))
        gens = {g.exponents for g in moved.gens}
        for perm in perms:
            assert {tuple(e[perm.index(j)] for j in range(len(e))) for e in gens} == gens


def test_frozen_invariants_do_not_depend_on_the_seed():
    expected = workloads.power_invariants(2, 3, 2)
    reports = [small_power_case(expected, seed).solve() for seed in (1, 2, 3)]
    assert {(r.reg, r.depth, r.torsion_warning) for r in reports} == {(4, 2, False)}


def test_traced_counts_repeat_and_cache_hits_are_counted():
    cases = random_cases(6) + [small_power_case(workloads.power_invariants(2, 3, 2))]
    layers = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer.installed():
            run.solve_pass(cases, tracer)
        layers.append(run.pass_layers(tracer))
    for name, (value, unit) in layers[0].items():
        if unit != "s":
            assert layers[1][name][0] == value, name
    assert layers[0]["betti.cache_hits"] == (0, "count")
    assert layers[0]["homology.jobs"][0] > 0

    ideal = cases[0].ideal
    twice = workloads.Case(
        "twice", ideal,
        lambda: (betti.betti_table_koszul(ideal), betti.betti_table_koszul(ideal)),
        lambda result: [],
    )
    tracer = tracing.Tracer()
    with tracer.installed():
        run.solve_pass([twice], tracer)
    assert tracing.cache_hits(tracer) == 1


def test_tracer_restores_the_library():
    before = (betti.faces_by_dim_masks, betti.betti_table_hochster, boards.facet_ideal)
    with tracing.Tracer().installed():
        assert betti.faces_by_dim_masks is not before[0]
    assert (betti.faces_by_dim_masks, betti.betti_table_hochster, boards.facet_ideal) == before


def test_missing_span_fails_loudly(monkeypatch, capsys):
    cheap = workloads.Workload(lambda seed: random_cases(2), (), ("homology.faces",))
    monkeypatch.setitem(workloads.WORKLOADS, "random-ideals", cheap)
    args = ["--workload", "random-ideals", "--seed", "1", "--seconds", "0", "--trace", "1"]
    assert run.main(args) == 0

    # a refactor whose sweeps stop calling betti.faces_by_dim_masks must not report 0 s
    def chunk_without_faces(static, jobs, p):
        return {}

    monkeypatch.setattr(betti, "_hochster_chunk", chunk_without_faces)
    monkeypatch.setattr(betti, "_koszul_chunk", chunk_without_faces)
    capsys.readouterr()
    assert run.main(args) == 3
    captured = capsys.readouterr()
    assert "span 'homology.faces' never fired" in captured.err
    assert '"correct"' not in captured.out


def _traced_counts(seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", "random-ideals", "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def test_same_seed_gives_same_counts_in_fresh_interpreters():
    first = _traced_counts(5)
    assert first == _traced_counts(5)
    for name in ("homology.jobs", "homology.faces", "homology.boundary_nnz", "betti.tables"):
        assert first[name] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(RUN_PY.parent, tmp_path / "perfbench", ignore=shutil.ignore_patterns("traces", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "random-ideals", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 2
    assert out.stdout == ""


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_workload_is_registered(name):
    assert name in workloads.WORKLOADS
