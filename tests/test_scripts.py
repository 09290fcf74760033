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
    for name in ("reproduce_results.py", "depth_power_sweep.py"):
        proc = run_script(name, "--threads", "0")
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage:") and "need 1 <= threads" in proc.stderr
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
