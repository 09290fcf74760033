import importlib.util
import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_depth_power_sweep_small_grid():
    proc = run_script("depth_power_sweep.py", "--n-max", "2", "--t-max", "2")
    assert proc.returncode == 0
    assert "r2 d2" in proc.stdout and "r4 d2" in proc.stdout


def test_scripts_refuse_zero_threads_before_any_work():
    # the scripts have no --threads option: the library picks the worker count
    for name in ("reproduce_results.py", "depth_power_sweep.py"):
        proc = run_script(name, "--threads", "0")
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage:") and "unrecognized arguments: --threads 0" in proc.stderr
        assert proc.stdout == ""


def test_reproduce_results_writes_report(tmp_path):
    out = tmp_path / "report.json"
    proc = run_script("reproduce_results.py", "--out", str(out))
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert report["failures"] == 0
    assert set(report["suites"]) == {"paper", "properties"}
    statuses = {c["status"] for cases in report["suites"].values() for c in cases}
    assert statuses == {"pass"}


def load_script(name):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_on_synthetic_lines():
    bench = load_script("bench_pairs.py")

    def line(solve_s, rss, failed=0):
        metrics = {"solve_s": {"value": solve_s, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}
        return {"correct": not failed, "attempted": 10, "failed": failed, "metrics": metrics}

    parent = [1.0, 1.2, 1.1, 1.3, 0.9]
    change = [0.5, 0.7, 1.2, 0.6, 0.4]
    pairs = [
        {"seed": s, "parent": line(b, 40.0), "change": line(c, 40.0 + s, failed=int(s == 3))}
        for s, (b, c) in enumerate(zip(parent, change), start=1)
    ]
    summary = bench.summarize(pairs)
    solve = summary["solve_s"]
    assert solve["parent"] == {"q1": 1.0, "median": 1.1, "q3": 1.2}
    assert solve["change"] == {"q1": 0.5, "median": 0.6, "q3": 0.7}
    assert solve["unit"] == "s" and solve["pairs"] == 5
    assert abs(solve["ratio_of_medians"] - 0.6 / 1.1) < 1e-12
    assert abs(solve["parent_quartile_distance"] - 0.2) < 1e-12
    # seed 3: 1.2 against 1.1, the one pair the change lost
    assert solve["change_lower_in_pairs"] == 4
    rss = summary["peak_rss_mb"]
    assert rss["change_lower_in_pairs"] == 0 and rss["ratio_of_medians"] == 43.0 / 40.0
    assert summary["failed"] == {"parent": 0, "change": 1}
    assert summary["attempted"] == {"parent": 50, "change": 50}
    assert summary["all_correct"] is False
    assert solve["claim_rule_met"] is False  # 4 of 5 pairs is under nine tenths


def test_bench_pairs_claim_rule():
    bench = load_script("bench_pairs.py")

    def pairs_of(parent, change):
        def line(value):
            return {"correct": True, "attempted": 1, "failed": 0, "metrics": {"solve_s": {"value": value, "unit": "s"}}}

        return [{"seed": s, "parent": line(b), "change": line(c)} for s, (b, c) in enumerate(zip(parent, change), 1)]

    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]  # quartiles 1.1 and 1.3
    # lower in all ten pairs, medians 1.2 and 0.8: met
    met = bench.summarize(pairs_of(parent, [b - 0.4 for b in parent]))["solve_s"]
    assert met["change_lower_in_pairs"] == 10 and met["claim_rule_met"] is True
    # lower in nine pairs, by more than the spread: met
    nine = bench.summarize(pairs_of(parent, [b - 0.4 for b in parent[:9]] + [1.5]))["solve_s"]
    assert nine["change_lower_in_pairs"] == 9 and nine["claim_rule_met"] is True
    # lower in eight pairs: not met
    eight = bench.summarize(pairs_of(parent, [b - 0.4 for b in parent[:8]] + [1.5, 1.5]))["solve_s"]
    assert eight["change_lower_in_pairs"] == 8 and eight["claim_rule_met"] is False
    # lower in every pair, but by less than the parent's quartile distance: not met
    close = bench.summarize(pairs_of(parent, [b - 0.1 for b in parent]))["solve_s"]
    assert close["change_lower_in_pairs"] == 10 and close["claim_rule_met"] is False
    # higher in every pair: not met
    assert bench.summarize(pairs_of(parent, [b + 1 for b in parent]))["solve_s"]["claim_rule_met"] is False


def test_bench_pairs_all_runs_each_workload_on_its_own(tmp_path, monkeypatch):
    # "all" is expanded here, so every workload keeps its own pass counts
    # instead of perfbench's one line summed over the three
    bench = load_script("bench_pairs.py")
    runs = []

    def fake_run(checkout, workload, seed, seconds, trace):
        runs.append(workload)
        return {"correct": True, "attempted": len(workload), "failed": 0, "metrics": {"solve_s": {"value": 1.0, "unit": "s"}}}

    monkeypatch.setattr(bench, "extract_revision", lambda rev, dest: "0" * 40)
    monkeypatch.setattr(bench, "copy_working_tree", lambda dest: None)
    monkeypatch.setattr(bench, "run_once", fake_run)
    out = tmp_path / "bench.json"
    args = ["--base", "HEAD", "--workload", "all", "--seeds", "2", "--seconds", "1", "--out", str(out)]
    assert bench.main(args) == 0
    declared = [w["name"] for w in json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())["workloads"]]
    assert "all" not in runs and sorted(set(runs)) == sorted(declared) and len(runs) == 4 * len(declared)
    report = json.loads(out.read_text())
    for name in declared:
        summary = report[f"{name} --trace 0 seeds 1-2"]["summary"]
        assert summary["attempted"] == {"parent": 2 * len(name), "change": 2 * len(name)}


def test_bench_pairs_first_seed(tmp_path, monkeypatch):
    bench = load_script("bench_pairs.py")
    runs = []

    def fake_run(checkout, workload, seed, seconds, trace):
        runs.append((checkout.name, seed))
        value = 1.0 if checkout.name == "parent" else 0.5
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": {"solve_s": {"value": value, "unit": "s"}}}

    monkeypatch.setattr(bench, "extract_revision", lambda rev, dest: "0" * 40)
    monkeypatch.setattr(bench, "copy_working_tree", lambda dest: None)
    monkeypatch.setattr(bench, "run_once", fake_run)
    out = tmp_path / "bench.json"
    args = ["--base", "HEAD", "--workload", "random-ideals", "--seeds", "3", "--first-seed", "11",
            "--seconds", "1", "--out", str(out)]
    assert bench.main(args) == 0
    # odd seeds run the parent first, even seeds the change
    assert runs == [("parent", 11), ("change", 11), ("change", 12), ("parent", 12), ("parent", 13), ("change", 13)]
    report = json.loads(out.read_text())
    entry = report["random-ideals --trace 0 seeds 11-13"]
    assert [p["seed"] for p in entry["runs"]] == [11, 12, 13]
    assert "seeds 11-13" in entry["command"]
    assert entry["summary"]["solve_s"]["claim_rule_met"] is True


def test_table_digest_repeats():
    runs = [run_script("table_digest.py", "--quick") for _ in range(2)]
    assert [p.returncode for p in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.split() == [
        "sha256",
        "ad4f99f35e9d863c143059139d9c2be9cff88d36358d003657ed3f36e7142e42",
        "tables",
        "72",
    ]
    # other tables give another digest
    script = load_script("table_digest.py")
    ideals = [(name, ideal, None) for name, ideal in script.random_ideals(3, script.SEED)]
    full, fewer = script.digest(ideals), script.digest(ideals[:2])
    assert full[0] != fewer[0] and full[1] > fewer[1]


def test_table_digest_full():
    proc = run_script("table_digest.py")
    assert proc.returncode == 0
    assert proc.stdout.split() == [
        "sha256",
        "4c80af9665d46458c03d9a174dcdddd22a7a4ad0be72e84e7935cf781d8baa37",
        "tables",
        "1290",
    ]


def test_bench_inprocess_one_round():
    # one round of random-ideals against the committed tree: every case of
    # both sides passes its check, and the per-case and summary lines print
    proc = run_script("bench_inprocess.py", "--base", "HEAD", "--workload", "random-ideals", "--rounds", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "random-ideals: case, parent ms, change ms, ratio"
    assert len(lines) == 1 + 120 + 2 and lines[1].startswith("  random-000 ")
    assert lines[-2].startswith("random-ideals solve ms ") and " ratio " in lines[-2]
    assert lines[-1].startswith("random-ideals median case ms ") and " ratio " in lines[-1]
