#!/usr/bin/env python3
"""Benchmark a git revision against the working tree in alternating pairs.

    python3 scripts/bench_pairs.py --base HEAD --workload squarefree-boards \
        --seeds 10 --first-seed 11 --seconds 40 --out BENCH_name.json

The base revision is extracted with ``git archive`` and the working tree
(tracked and untracked files, ignored ones left out) is copied, both into a
temporary directory, so neither side runs with compiled bytecode or traces
left over from earlier runs. For each workload and each of the N seeds from
--first-seed on (1 by default; seeds not used while a change was written
check its claim), ``perfbench/run.py --workload W --seed s --seconds S
--trace T`` runs once on each side, one run at a time; odd seeds run the base
first, even seeds the change first. ``--workload all`` stands for every
workload BENCHMARK.json declares, each run and reported on its own, so each
keeps its own ``attempted`` and ``failed`` counts. The JSON report holds,
per workload, --trace setting and seed range, every run's last line
(perfbench's result object) and, per metric, the quartiles of each side, the ratio of the medians
(change over base), the number of pairs in which the change read lower, and
whether a claim that the change lowers the metric meets the rule for a gain:
lower in at least 9/10 of the pairs, and the median lower by more than the
distance between the base's quartiles. Entries already in the --out file
under other keys are kept, so one file can collect several invocations.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def workload_names(requested: list[str]) -> list[str]:
    """The workloads to run, with ``all`` expanded into the names that
    BENCHMARK.json declares."""
    declared = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]
    return [name for want in requested for name in (declared if want == "all" else [want])]


def extract_revision(rev: str, dest: Path) -> str:
    """Write the files of ``rev`` under ``dest``; return its full hash."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def copy_working_tree(dest: Path) -> None:
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout.decode().split("\0")
    for name in filter(None, listed):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict]) -> dict:
    """Per metric of the result lines in ``pairs`` (each {"seed", "parent",
    "change"}): each side's quartiles, the ratio of medians, how many pairs
    the change read lower, the distance between the base's quartiles, and
    whether the change's reading lower meets the rule for claiming a gain."""
    names = [n for n in pairs[0]["parent"]["metrics"] if all(n in p[s]["metrics"] for p in pairs for s in SIDES)]
    out = {}
    for name in names:
        values = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in SIDES}
        sides = {s: quartiles(values[s]) for s in SIDES}
        base = sides["parent"]["median"]
        lower = sum(c < b for b, c in zip(values["parent"], values["change"]))
        spread = sides["parent"]["q3"] - sides["parent"]["q1"]
        out[name] = {
            **sides,
            "unit": pairs[0]["parent"]["metrics"][name]["unit"],
            "ratio_of_medians": sides["change"]["median"] / base if base else None,
            "change_lower_in_pairs": lower,
            "pairs": len(pairs),
            "parent_quartile_distance": spread,
            "claim_rule_met": 10 * lower >= 9 * len(pairs) and base - sides["change"]["median"] > spread,
        }
    out["failed"] = {s: sum(p[s]["failed"] for p in pairs) for s in SIDES}
    out["attempted"] = {s: sum(p[s]["attempted"] for p in pairs) for s in SIDES}
    out["all_correct"] = all(p[s]["correct"] for p in pairs for s in SIDES)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--seeds", type=int, default=10, help="run N seeds")
    parser.add_argument("--first-seed", type=int, default=1, help="the first seed to run")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="write the JSON report here")
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("--seeds must be at least 2 for quartiles")

    out = Path(args.out)
    report = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        checkouts = {s: Path(tmp) / s for s in SIDES}
        for path in checkouts.values():
            path.mkdir()
        report["parent_commit"] = extract_revision(args.base, checkouts["parent"])
        report["change"] = "working tree"
        copy_working_tree(checkouts["change"])
        for workload in workload_names(args.workload):
            pairs = []
            seeds = range(args.first_seed, args.first_seed + args.seeds)
            for seed in seeds:
                order = SIDES if seed % 2 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(checkouts[side], workload, seed, args.seconds, args.trace)
                    print(f"{workload} seed {seed} {side}: {json.dumps(pair[side]['metrics'])}", flush=True)
                pairs.append(pair)
            seed_range = f"{seeds[0]}-{seeds[-1]}"
            report[f"{workload} --trace {args.trace} seeds {seed_range}"] = {
                "command": f"python3 perfbench/run.py --workload {workload} --seed N --seconds {args.seconds:g} "
                           f"--trace {args.trace}, seeds {seed_range}, odd seeds parent first, "
                           "even seeds change first",
                "summary": summarize(pairs),
                "runs": pairs,
            }
            out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
