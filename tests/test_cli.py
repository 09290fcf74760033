import concurrent.futures
import io
import json
import os
import sys

import pytest

from rookideal import Board, betti, facet_ideal, ideal_from_text
from rookideal.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIdealCommand:
    def test_three_by_three(self, capsys):
        code, out, _ = run_cli(capsys, "ideal", "--m", "3", "--n", "3")
        assert code == 0
        ideal = ideal_from_text(out)
        assert len(ideal.gens) == 6
        assert ideal == facet_ideal(Board(3, 3))

    def test_power(self, capsys):
        code, out, _ = run_cli(capsys, "ideal", "--m", "2", "--n", "2", "--power", "2")
        assert code == 0
        assert len(ideal_from_text(out).gens) == 3

    def test_stanley_reisner_kind(self, capsys):
        code, out, _ = run_cli(
            capsys, "ideal", "--m", "1", "--n", "4", "--kind", "stanley-reisner"
        )
        assert code == 0
        assert len(ideal_from_text(out).gens) == 6

    def test_round_trip_canonical(self, capsys):
        code, out, _ = run_cli(capsys, "ideal", "--m", "2", "--n", "3")
        assert out == ideal_from_text(out).to_text()

    def test_bounds_are_usage_errors(self, capsys):
        for argv in (
            ["ideal", "--m", "3", "--n", "2"],
            ["ideal", "--m", "2", "--n", "7"],
            ["ideal", "--m", "2", "--n", "2", "--power", "5"],
        ):
            code, _, err = run_cli(capsys, *argv)
            assert code == 1
            assert "usage error" in err


class TestPrimesCommand:
    def test_both_methods_agree(self, capsys):
        code, out, _ = run_cli(capsys, "primes", "--m", "2", "--n", "3", "--method", "both")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "methods agree: 5 minimal primes"
        assert len(lines) == 6

    def test_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "primes", "--m", "1", "--n", "4")
        assert code == 0
        assert out.split() == ["x11", "x12", "x13", "x14"]

    def test_three_by_three_bight(self, capsys):
        code, out, _ = run_cli(capsys, "primes", "--m", "3", "--n", "3", "--method", "both")
        assert code == 0
        sizes = [len(line.split()) for line in out.strip().splitlines()[1:]]
        assert max(sizes) == 4 and len(sizes) == 15

    def test_cover_search_guard_on_big_boards(self, capsys):
        code, _, err = run_cli(capsys, "primes", "--m", "6", "--n", "6", "--method", "both")
        assert code == 3 and "--allow-long" in err
        code, out, _ = run_cli(capsys, "primes", "--m", "6", "--n", "6")
        assert code == 0 and len(out.strip().splitlines()) == 792
        code, out, _ = run_cli(capsys, "primes", "--m", "5", "--n", "5", "--method", "both")
        assert code == 0 and out.splitlines()[0] == "methods agree: 210 minimal primes"
        code, _, _ = run_cli(capsys, "primes", "--m", "4", "--n", "4", "--method", "both")
        assert code == 0


class TestInvariantsCommand:
    def test_three_by_three_json(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--m", "3", "--n", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["reg"] == 4 and payload["depth"] == 4
        assert payload["dim"] == 6 and payload["height"] == 3 and payload["bight"] == 4
        assert payload["a_invariant"] == 0

    def test_power_case(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--m", "2", "--n", "2", "--power", "3")
        payload = json.loads(out)
        assert code == 0 and payload["reg"] == 6 and payload["depth"] == 2

    def test_json_stable_without_timing(self, capsys):
        _, first, _ = run_cli(capsys, "invariants", "--m", "2", "--n", "3")
        _, second, _ = run_cli(capsys, "invariants", "--m", "2", "--n", "3")
        a, b = json.loads(first), json.loads(second)
        a.pop("wall_ms"), b.pop("wall_ms")
        assert a == b

    def test_guard_trips_without_flag(self, capsys):
        # 2x5 t=4 takes about 44 s with --allow-long
        code, out, err = run_cli(capsys, "invariants", "--m", "2", "--n", "5", "--power", "4")
        assert code == 3 and out == ""
        assert err == f"predicted sweep cost 976562500 exceeds {1 << 29}; rerun with --allow-long\n"

    @pytest.mark.parametrize("m, n, power", [(4, 4, 1), (3, 5, 1), (3, 3, 4)])
    def test_sub_second_inputs_run_without_flag(self, capsys, m, n, power):
        code, out, err = run_cli(capsys, "invariants", "--m", str(m), "--n", str(n), "--power", str(power))
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["board"] == [m, n] and payload["power"] == power

    def test_gf2_char(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--m", "2", "--n", "2", "--char", "2")
        payload = json.loads(out)
        assert code == 0 and payload["field"] == 2 and payload["reg"] == 2

    def test_composite_char_rejected(self, capsys):
        code, _, err = run_cli(capsys, "invariants", "--m", "2", "--n", "2", "--char", "6")
        assert code == 1

    def test_char_beyond_exact_prime_test_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "invariants", "--m", "2", "--n", "2", "--char", str(10**25 + 13)
        )
        assert code == 1 and out == ""
        assert "3317044064679887385961981" in err and len(err.splitlines()) == 1

    def test_ambient_below_support_is_a_clean_error(self, capsys):
        code, out, err = run_cli(
            capsys, "invariants", "--m", "2", "--n", "2", "--ambient", "1"
        )
        assert code == 1 and out == ""
        assert err == "error: declared ambient is smaller than the support\n"

    def test_a_subset_of_the_generators_gives_the_same_report(self, capsys, monkeypatch):
        from rookideal import board_symmetries, cli

        # the 2x3 board's generators without the column cycle generate a
        # subgroup of order 4; the sweep uses its orbits, and the report
        # does not change
        reports = []
        for subset in (lambda board: board_symmetries(board), lambda board: board_symmetries(board)[:-1]):
            monkeypatch.setattr(cli, "board_symmetries", subset)
            betti.clear_table_cache()
            code, out, err = run_cli(capsys, "invariants", "--m", "2", "--n", "3")
            assert code == 0 and err == ""
            reports.append({k: v for k, v in json.loads(out).items() if k != "wall_ms"})
        betti.clear_table_cache()
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("command", [
        ["invariants", "--m", "2", "--n", "3"], ["betti", "-"], ["verify"],
    ])
    @pytest.mark.parametrize("threads", ["0", str((os.cpu_count() or 1) + 1), "-1", "two", "1"])
    def test_thread_count_out_of_range_rejected(self, capsys, monkeypatch, command, threads):
        # there is no --threads option: the worker count comes from the plan
        # and the CPUs, so every count is a usage error, the old default too
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        code, out, err = run_cli(capsys, *command, "--threads", threads)
        assert code == 1 and out == ""
        assert err == f"usage error: unrecognized arguments: --threads {threads}\n"

    def test_torsion_flag_reports_the_gf2_cross_run(self, capsys, monkeypatch):
        from rookideal import GF2, BettiTable

        _, out, _ = run_cli(capsys, "invariants", "--m", "2", "--n", "3")
        assert json.loads(out)["torsion_warning"] is False
        real = betti.betti_table

        def doctored(ideal, field, *args):
            table = real(ideal, field, *args)
            if field != GF2:
                return table
            entries = dict(table.entries)
            entries[(0, 1)] = 1
            return BettiTable(table.subject, table.ambient, field, entries)

        monkeypatch.setattr(betti, "betti_table", doctored)
        _, out, _ = run_cli(capsys, "invariants", "--m", "2", "--n", "3")
        assert json.loads(out)["torsion_warning"] is True

    def test_threads_flag_gives_same_numbers(self, capsys, force_pool):
        # the report is the same whether its sweep runs here or on a pool;
        # the 3x4 plan has enough distinct cores for two workers
        betti.clear_table_cache()
        _, one, _ = run_cli(capsys, "invariants", "--m", "3", "--n", "4")
        betti.clear_table_cache()
        started = force_pool()
        _, two, _ = run_cli(capsys, "invariants", "--m", "3", "--n", "4")
        betti.clear_table_cache()
        a, b = json.loads(one), json.loads(two)
        a.pop("wall_ms"), b.pop("wall_ms")
        assert started == [2] and a == b

    def test_failed_consistency_check_exits_2(self, capsys, monkeypatch):
        # one pivot too many on every boundary map makes a Betti number
        # negative, and the rank kernel's check raises ArithmeticError
        from rookideal import homology

        real = homology._boundary_ranks
        monkeypatch.setattr(
            homology, "_boundary_ranks", lambda by_dim, field: {d: r + 1 for d, r in real(by_dim, field).items()}
        )
        betti.clear_table_cache()
        code, out, err = run_cli(capsys, "invariants", "--m", "2", "--n", "3")
        betti.clear_table_cache()
        assert code == 2 and out == ""
        assert err.startswith("error: boundary ranks exceed") and len(err.splitlines()) == 1


class TestVerifyCommand:
    def test_wrong_prime_family_fails_the_profile_cases(self, capsys, monkeypatch):
        # prime_profile reads the enumerated primes; a wrong family is a
        # failed case against the closed forms, not an exception
        from rookideal import boards

        real = boards.minimal_primes_formula
        monkeypatch.setattr(boards, "minimal_primes_formula", lambda board: tuple(p[1:] for p in real(board)))
        code, out, err = run_cli(capsys, "verify")
        failed = [line.split()[0] for line in out.splitlines() if " FAIL " in line]
        assert code == 2 and err == ""
        assert len(failed) == 13 and all(case.startswith("profile-") for case in failed)
        assert out.splitlines()[-1].endswith(", 13 failed")


class TestBettiCommand:
    def test_from_file(self, capsys, tmp_path):
        path = tmp_path / "ideal.txt"
        path.write_text(facet_ideal(Board(2, 2)).to_text())
        code, out, _ = run_cli(capsys, "betti", str(path))
        assert code == 0
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["entries"] == [[0, 2, 2], [1, 4, 1]]

    def test_fixture_regularity(self, capsys, tmp_path):
        from rookideal import fixture_ideal

        for name, n, expected in (("L_six", None, 3), ("L_2n3", 4, 5), ("L_2n5", 4, 3)):
            path = tmp_path / "fixture.txt"
            path.write_text(fixture_ideal(name, n).to_text())
            code, out, _ = run_cli(capsys, "betti", str(path))
            payload = json.loads(out.strip().splitlines()[-1])
            assert code == 0 and payload["reg"] == expected

    def test_forty_variables_with_small_cores(self, capsys, tmp_path):
        # the 39-subsets of 40 variables: its swept cores are 40 isolated points
        rows = [" ".join("0" if v == skip else "1" for v in range(40)) for skip in range(40)]
        path = tmp_path / "ideal.txt"
        path.write_text("vars 40\n" + "\n".join(rows) + "\n")
        code, out, _ = run_cli(capsys, "betti", str(path))
        betti.clear_table_cache()
        assert code == 0
        assert json.loads(out.strip().splitlines()[-1])["entries"] == [[0, 39, 40], [1, 40, 39]]

    def test_from_stdin(self, capsys, monkeypatch, tmp_path):
        text = facet_ideal(Board(2, 3)).to_text()
        path = tmp_path / "ideal.txt"
        path.write_text(text)
        _, from_file, _ = run_cli(capsys, "betti", str(path))
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = run_cli(capsys, "betti", "-")
        assert code == 0 and err == "" and out == from_file

    @pytest.mark.parametrize("text", ["vars 2\n", "vars 2\n0 0\n1 1\n"])
    def test_zero_and_unit_ideals_are_usage_errors(self, capsys, tmp_path, text):
        path = tmp_path / "ideal.txt"
        path.write_text(text)
        code, out, err = run_cli(capsys, "betti", str(path))
        assert code == 1 and out == ""
        assert err == "usage error: the zero and unit ideals have no Betti table here\n"

    def test_route_mismatch_exits_2(self, capsys, monkeypatch, tmp_path):
        from rookideal import BettiTable, cli

        def doctored(ideal, field):
            table = betti.betti_table_hochster(ideal, field)
            entries = dict(table.entries)
            entries[(0, 1)] = 1
            return BettiTable(table.subject, table.ambient, field, entries)

        monkeypatch.setattr(cli, "betti_table_hochster", doctored)
        path = tmp_path / "ideal.txt"
        path.write_text(facet_ideal(Board(2, 3)).to_text())
        code, out, err = run_cli(capsys, "betti", str(path))
        assert code == 2 and out == ""
        assert err == "route mismatch: lattice and restriction sweeps disagree\n"

    def test_parse_error_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("vars 2\n1 zz\n")
        code, _, err = run_cli(capsys, "betti", str(path))
        assert code == 1 and "line 2" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "betti", "/nonexistent/ideal.txt")
        assert code == 1


class TestMatchingCommand:
    def test_three_by_three(self, capsys):
        code, out, _ = run_cli(capsys, "matching", "--m", "3", "--n", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "bound 4"
        assert len(lines) == 3  # two witness facets

    @pytest.mark.parametrize("m", [5, 6])
    def test_guard_trips_without_flag(self, capsys, monkeypatch, m):
        # 720 facets: C(720, 3) + C(720, 2) + 720 triples, pairs and singles;
        # without the guard 5x6 did not finish in 60 s
        from rookideal import cli

        def search(cx, k_max):
            return 0, ()

        monkeypatch.setattr(cli, "induced_matching_bound", search)
        code, out, err = run_cli(capsys, "matching", "--m", str(m), "--n", "6")
        assert code == 3 and out == ""
        assert err == (
            f"predicted matching cost 62208600 exceeds {1 << 20}; rerun with --allow-long or lower --k-max\n"
        )
        # the flag lets the same search start (stubbed here: it takes minutes)
        code, out, _ = run_cli(capsys, "matching", "--m", str(m), "--n", "6", "--allow-long")
        assert code == 0 and out == "bound 0\n"

    @pytest.mark.parametrize("m, n, k_max", [(3, 4, 3), (4, 5, 3), (5, 5, 3), (6, 6, 2)])
    def test_sub_second_inputs_run_without_flag(self, capsys, m, n, k_max):
        # 3x4: 2,324 facet combinations; 4x5 and 5x5: 288,100; 6x6 at
        # k_max 2: 259,560, each under the limit
        code, out, err = run_cli(capsys, "matching", "--m", str(m), "--n", str(n), "--k-max", str(k_max))
        assert code == 0 and err == "" and out.startswith("bound ")


class TestUsage:
    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
