"""Benchmark runner for rookideal: one seeded workload per process.

    python3 perfbench/run.py --workload squarefree-boards --seed 1 --seconds 40 --trace 0

Builds the workload's inputs from the seed, then solves its cases in a closed
loop (one caller, the next case only after the previous one returned,
threads=1) for about --seconds, checking every result. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics of
perfbench/README.md with --trace 1. ``--workload all`` runs every workload,
each in its own interpreter.

Exit codes: 0 a result was printed (``correct`` says whether it is right),
2 the library sources are missing, 3 a span that must fire on the workload
never did.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACE_DIR = BENCH_DIR / "traces"
WORKLOAD_NAMES = ("lattice-powers", "squarefree-boards", "random-ideals")
SETUP_PROBES = 9
REFERENCE_EVERY_S = 0.5
REFERENCE_PRIME = 32003
# Times are reported as they would read on a host that runs the reference
# work in this many seconds (about its median on a vCPU of a 2-vCPU Xeon KVM
# guest).
REFERENCE_S = 0.025
CHILD_TIMEOUT_S = 170


class MissingSpan(Exception):
    pass


def load_library():
    """Import rookideal from this checkout's src/ and nowhere else."""
    if not (SRC / "rookideal" / "__init__.py").is_file():
        raise ImportError(f"no rookideal sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rookideal

    if Path(rookideal.__file__).resolve().parent != SRC / "rookideal":
        raise ImportError(f"rookideal was imported from {rookideal.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# the closed loop


@dataclass
class Pass:
    """One pass over the cases: per-case seconds, the reference work's
    seconds measured just before each case, the number of tables each case
    left in the table cache, and failures as (case name, problems) pairs, at
    most one per case."""

    times: list[float] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)
    tables: list[int] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.times)

    @property
    def at_reference_speed(self) -> float:
        return sum(t / r for t, r in zip(self.times, self.refs)) * REFERENCE_S


@functools.cache
def _reference_inputs():
    rng = random.Random(20221017)
    masks = [rng.getrandbits(20) & rng.getrandbits(20) & rng.getrandbits(20) | 1 << rng.randrange(20)
             for _ in range(24)]
    matrix = np.array([[rng.randrange(REFERENCE_PRIME) for _ in range(160)] for _ in range(160)], dtype=np.int64)
    return masks, matrix


def reference_seconds() -> float:
    """Seconds this process takes for a fixed miniature of the library's two
    kinds of work, written here so that no change to the library can speed
    it up: closing bitmasks under OR in Python sets (like the lcm lattice)
    and eliminating an int64 matrix mod a prime in numpy (like the rank
    kernel). It measures how fast the host runs this process right now."""
    masks, matrix = _reference_inputs()
    t0 = time.perf_counter()
    seen, frontier = set(masks), list(masks)
    while frontier and len(seen) < 8000:
        grown = []
        for a in frontier:
            for b in masks:
                if a | b not in seen:
                    seen.add(a | b)
                    grown.append(a | b)
        frontier = grown
    m, r = matrix.copy(), 0
    for c in range(m.shape[1]):
        nonzero = np.nonzero(m[r:, c])[0]
        if len(nonzero):
            k = r + nonzero[0]
            m[[r, k]] = m[[k, r]]
            m[r] = m[r] * pow(int(m[r, c]), REFERENCE_PRIME - 2, REFERENCE_PRIME) % REFERENCE_PRIME
            m[r + 1:] = (m[r + 1:] - np.outer(m[r + 1:, c], m[r])) % REFERENCE_PRIME
            r += 1
    return time.perf_counter() - t0


def solve_pass(cases, tracer=None, first_tables=None) -> Pass:
    """Solve every case once, in order, timing the reference work before a
    case whenever the last reference is older than REFERENCE_EVERY_S.

    A result carried over between passes would read as a speed-up, so a case
    fails when the table cache is not empty after clearing it, or when it
    leaves another number of cached tables than on the first pass
    (``first_tables``, what the first pass returned)."""
    from rookideal import betti

    out = Pass()
    ref, ref_at = 0.0, float("-inf")
    for k, case in enumerate(cases):
        if time.perf_counter() - ref_at > REFERENCE_EVERY_S:
            ref, ref_at = reference_seconds(), time.perf_counter()
        # fresh tables per case, so repeated passes redo the same work
        betti.clear_table_cache()
        stale = len(betti._TABLE_CACHE)
        t0 = time.perf_counter()
        try:
            with tracer.span(f"case.{case.name}") if tracer else contextlib.nullcontext():
                result = case.solve()
            problems = None
        except Exception as exc:  # a case that raises counts as failed and the loop goes on
            problems = [f"{type(exc).__name__}: {exc}"]
        out.times.append(time.perf_counter() - t0)
        out.refs.append(ref)
        out.tables.append(len(betti._TABLE_CACHE))
        if problems is None:
            problems = case.check(result)
        if stale:
            problems.append(f"{stale} tables still cached after clear_table_cache()")
        if first_tables is not None and out.tables[k] != first_tables[k]:
            problems.append(f"left {out.tables[k]} cached tables, {first_tables[k]} on the first pass")
        if problems:
            out.failures.append((case.name, "; ".join(problems)))
    return out


def pin_to_cpu(k: int, cpus: list[int]) -> None:
    """Run on the k-th usable CPU (round robin), so that the repeats of a
    case spread over the vCPUs, which a shared host slows independently."""
    os.sched_setaffinity(0, {cpus[k % len(cpus)]})


def setup_probe_seconds(workload: str, seed: int) -> float:
    """Time from starting a fresh interpreter on this script to the moment its
    inputs are built and the first timed call could start."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


# ---------------------------------------------------------------------------
# metrics


def at_reference_speed(seconds, refs) -> float:
    """Median over the repeats of each time scaled to a host that runs the
    reference work in REFERENCE_S: on a shared host whole minutes run up to
    twice as slow or as fast, and the reference work timed next to each
    repeat moves with them."""
    return statistics.median(t / r * REFERENCE_S for t, r in zip(seconds, refs))


def end_to_end(untraced, setup_times, setup_refs) -> tuple[dict, list[float]]:
    """The gated metrics, and each case's time at reference speed."""
    per_case = [
        at_reference_speed(times, refs)
        for times, refs in zip(zip(*(p.times for p in untraced)), zip(*(p.refs for p in untraced)))
    ]
    return {
        "setup_s": (at_reference_speed(setup_times, setup_refs), "s"),
        "solve_s": (sum(per_case), "s"),
        "case_ms_p50": (statistics.median(per_case) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, per_case


def pass_layers(tracer) -> dict:
    """Per-layer figures of one traced pass, as name: (value, unit)."""
    from tracing import busy_seconds, cache_hits, self_seconds

    counts = tracer.counts
    out = {
        "complexes.covers_s": (busy_seconds(tracer, "complexes.covers"), "s"),
        "complexes.covers_calls": (sum(s.name == "complexes.covers" for s in tracer.spans), "count"),
        "betti.table_s": (busy_seconds(tracer, "betti.table"), "s"),
        "betti.tables": (sum(v for k, v in counts.items() if k.startswith("betti.tables.")), "count"),
        "betti.self_s": (self_seconds(tracer, "betti.table"), "s"),
        "betti.cache_hits": (cache_hits(tracer), "count"),
        "betti.hilbert_s": (busy_seconds(tracer, "betti.hilbert"), "s"),
        "homology.faces_s": (busy_seconds(tracer, "homology.faces"), "s"),
        "homology.jobs": (counts.get("homology.jobs", 0), "count"),
        "homology.faces": (counts.get("homology.faces", 0), "count"),
        "homology.max_faces": (counts.get("homology.max_faces", 0), "count"),
        "homology.boundary_nnz": (counts.get("homology.boundary_nnz", 0), "count"),
        "homology.useful_frac": (
            counts.get("homology.useful_jobs", 0) / max(1, counts.get("homology.jobs", 0)), "ratio",
        ),
    }
    for fld in ("modp", "gf2"):
        out[f"homology.reduce_s.{fld}"] = (busy_seconds(tracer, f"homology.reduce.{fld}"), "s")
    for route, fld in (("hochster", "modp"), ("hochster", "gf2"), ("koszul", "modp"), ("koszul", "gf2")):
        out[f"betti.table_s.{route}.{fld}"] = (busy_seconds(tracer, f"betti.table.{route}.{fld}"), "s")
        out[f"betti.tables.{route}.{fld}"] = (counts.get(f"betti.tables.{route}.{fld}", 0), "count")
    return out


def per_layer(setup_tracer, cases, traced, untraced) -> dict:
    """Times from the fastest traced pass; every figure that is not a time is
    an exact count and must repeat on every traced pass. The overhead
    compares median passes at reference speed (see at_reference_speed)."""
    from tracing import busy_seconds

    layers = [pass_layers(tracer) for _, tracer in traced]
    for name, (_, unit) in layers[0].items():
        if unit != "s":
            values = {layer[name][0] for layer in layers}
            if len(values) != 1:
                raise RuntimeError(f"exact count {name} changed between passes: {sorted(values)}")
    fastest = min(range(len(traced)), key=lambda k: traced[k][0].wall)
    out = {
        "boards.setup_s": (busy_seconds(setup_tracer, "boards"), "s"),
        "boards.symmetries": (setup_tracer.counts.get("boards.symmetries", 0), "count"),
        "monomials.power_s": (busy_seconds(setup_tracer, "monomials.power"), "s"),
        "monomials.generators": (sum(len(case.ideal.gens) for case in cases), "count"),
    }
    out.update(layers[fastest])
    overhead = (statistics.median(p.at_reference_speed for p, _ in traced)
                / statistics.median(p.at_reference_speed for p in untraced) - 1.0)
    out["trace.overhead_frac"] = (overhead, "ratio")
    return out


def check_spans(tracer, required, where: str) -> None:
    names = {s.name for s in tracer.spans}
    for name in required:
        if name not in names:
            raise MissingSpan(f"span {name!r} never fired {where}")


# ---------------------------------------------------------------------------
# entry points


def run_workload(args) -> dict:
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    setup_tracer = Tracer()
    if args.trace:
        with setup_tracer.installed():
            cases = workload.build(args.seed)
        check_spans(setup_tracer, workload.setup_spans, f"while building {args.workload}")
    else:
        cases = workload.build(args.seed)
    if args.setup_probe:
        return {}

    cpus = sorted(os.sched_getaffinity(0))
    try:
        return measure(args, workload, cases, setup_tracer, cpus)
    finally:
        os.sched_setaffinity(0, cpus)


def measure(args, workload, cases, setup_tracer, cpus) -> dict:
    from tracing import Tracer, write_spans

    setup_times, setup_refs = [], []
    if not args.trace:
        for k in range(SETUP_PROBES):
            pin_to_cpu(k, cpus)
            setup_refs.append(reference_seconds())
            setup_times.append(setup_probe_seconds(args.workload, args.seed))

    untraced, traced = [], []
    failures, first_tables = [], None
    loop_start = time.perf_counter()
    while True:
        tracer = Tracer() if args.trace and len(traced) < len(untraced) else None
        pin_to_cpu(len(untraced) if tracer is None else len(traced), cpus)
        if tracer is None:
            done = solve_pass(cases, first_tables=first_tables)
            untraced.append(done)
        else:
            with tracer.installed():
                done = solve_pass(cases, tracer, first_tables)
            check_spans(tracer, workload.solve_spans, f"on {args.workload}")
            traced.append((done, tracer))
        first_tables = first_tables or done.tables
        failures.extend(done.failures)
        # stop before a pass that would end past --seconds
        if (traced or not args.trace) and time.perf_counter() - loop_start + done.wall > args.seconds:
            break

    for name, problem in failures[:20]:
        print(f"FAIL {name}: {problem}", file=sys.stderr)
    passes = len(untraced) + len(traced)
    attempted = passes * len(cases)
    print(f"workload {args.workload} seed {args.seed}: {len(cases)} cases x {passes} passes")
    print(f"fail_frac {len(failures) / attempted} ratio ({len(failures)} of {attempted} case runs)")
    if args.trace:
        write_spans(TRACE_DIR / f"{args.workload}-seed{args.seed}.json", [setup_tracer] + [t for _, t in traced])
        metrics = per_layer(setup_tracer, cases, traced, untraced)
        print(f"per-layer figures: the fastest of {len(traced)} traced passes; overhead against "
              f"{len(untraced)} untraced passes at reference speed")
    else:
        metrics, per_case = end_to_end(untraced, setup_times, setup_refs)
        refs = [r for p in untraced for r in p.refs]
        print(f"timings: each case the median of {len(untraced)} passes over {len(cpus)} CPUs at "
              f"reference speed; setup_s the median of {len(setup_times)} fresh interpreters")
        print(f"host: reference {statistics.median(refs) * 1e3:.2f} ms median "
              f"({min(refs) * 1e3:.2f} to {max(refs) * 1e3:.2f}), {REFERENCE_S * 1e3:.0f} ms at reference speed; "
              f"raw wall per pass {statistics.median(p.wall for p in untraced):.4f} s median, "
              f"raw set-up {statistics.median(setup_times):.4f} s median")
        # not gated: only a workload of 100 cases or more has ten beyond it
        if len(per_case) >= 100:
            print(f"case_ms_p90 {statistics.quantiles(per_case, n=10, method='inclusive')[-1] * 1e3} ms")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in a fresh interpreter, so no cache carries over."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            raise RuntimeError(f"workload {name} exited with code {child.returncode}")
        result = json.loads(child.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        load_library()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        try:
            result = run_workload(args)
        except MissingSpan as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
