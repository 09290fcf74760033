#!/usr/bin/env python3
"""Time a git revision against the working tree in one interpreter, case by case.

    python3 scripts/bench_inprocess.py --base HEAD --workload random-ideals --rounds 12

A quick A/B for sizing a change, not a benchmark result: a speed claim needs
a committed BENCH_*.json from scripts/bench_pairs.py, which runs perfbench in
fresh interpreters.

The base revision is extracted with ``git archive`` into a temporary
directory, as bench_pairs.py does. Both rookideal trees are then imported
into this interpreter, one after the other, with every ``rookideal`` module
cleared from sys.modules in between, and perfbench/workloads.py (read, never
written) is loaded once per tree under its own module name, so each tree
builds its own cases from --seed. Each round runs every case on both sides,
one after the other, the base first in even rounds and the change first in
odd ones; each side's modules are put back into sys.modules and its table
cache is cleared before each case, and every result must pass the case's own
check. The report gives each case's median time per side, and the
change-over-base ratios of solve (the sum of the case medians, as
perfbench's solve_s) and of the median case (as case_ms_p50).
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import ROOT, SIDES, extract_revision


def _library_modules() -> dict:
    return {name: module for name, module in sys.modules.items() if name.split(".")[0] == "rookideal"}


def load_side(side: str, src: Path):
    """(the rookideal modules of the tree under ``src``, its workloads module)."""
    for name in _library_modules():
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        library = importlib.import_module("rookideal")
        if Path(library.__file__).resolve().parent != src.resolve() / "rookideal":
            raise ImportError(f"rookideal was imported from {library.__file__}, not {src}")
        spec = importlib.util.spec_from_file_location(f"workloads_{side}", ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads  # dataclasses look their module up
        spec.loader.exec_module(workloads)
    finally:
        sys.path.remove(str(src))
    return _library_modules(), workloads


def run(sides: dict, workload: str, seed: int, rounds: int) -> dict:
    """{side: {case name: [seconds per round]}}; raises on a failed check."""
    cases = {side: workloads.WORKLOADS[workload].build(seed) for side, (_, workloads) in sides.items()}
    names = [case.name for case in cases["parent"]]
    if names != [case.name for case in cases["change"]]:
        raise RuntimeError("the two trees build different cases")
    times = {side: {name: [] for name in names} for side in SIDES}
    for k in range(rounds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for at, name in enumerate(names):
            for side in order:
                modules, workloads = sides[side]
                sys.modules.update(modules)
                workloads.betti.clear_table_cache()
                case = cases[side][at]
                start = time.perf_counter()
                result = case.solve()
                times[side][name].append(time.perf_counter() - start)
                problems = case.check(result)
                if problems:
                    raise RuntimeError(f"{side} {name}: {'; '.join(problems)}")
    for _, workloads in sides.values():
        workloads.betti.clear_table_cache()
    return times


def report(workload: str, times: dict) -> list[str]:
    medians = {side: {name: statistics.median(ts) for name, ts in times[side].items()} for side in SIDES}
    lines = [f"{workload}: case, parent ms, change ms, ratio"]
    for name, base in medians["parent"].items():
        change = medians["change"][name]
        lines.append(f"  {name} {base * 1e3:.3f} {change * 1e3:.3f} {change / base:.3f}")
    solve = {side: sum(medians[side].values()) for side in SIDES}
    p50 = {side: statistics.median(medians[side].values()) for side in SIDES}
    lines.append(f"{workload} solve ms {solve['parent'] * 1e3:.2f} -> {solve['change'] * 1e3:.2f}"
                 f" ratio {solve['change'] / solve['parent']:.3f}")
    lines.append(f"{workload} median case ms {p50['parent'] * 1e3:.3f} -> {p50['change'] * 1e3:.3f}"
                 f" ratio {p50['change'] / p50['parent']:.3f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--seed", type=int, default=1, help="the seed the cases are built from")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sys.dont_write_bytecode = True  # leave no bytecode in perfbench/ or the base's tree
    with tempfile.TemporaryDirectory(prefix="bench_inprocess_") as tmp:
        extract_revision(args.base, Path(tmp))
        sides = {"parent": load_side("parent", Path(tmp) / "src")}
        sides["change"] = load_side("change", ROOT / "src")
        for workload in args.workload:
            print("\n".join(report(workload, run(sides, workload, args.seed, args.rounds))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
