#!/usr/bin/env python3
"""Run the full reproduction catalog and write a JSON report.

The quick suites (paper, properties) finish in seconds; --long adds the long
suite, four-five: the 4x5 board ideal at 32003 with a GF(2) cross-run, whose
reg and depth are frozen as computed values, not taken from the paper.
"""

import argparse
import json
import sys
import time

from rookideal.verify import SUITES, run_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--long", action="store_true", help="include the stretch cases")
    parser.add_argument("--out", default=None, help="write the JSON report here")
    args = parser.parse_args()

    suites = [name for name in SUITES if args.long or name != "long"]
    report = {"suites": {}, "failures": 0}
    start = time.perf_counter()
    for suite in suites:
        cases = run_suite(suite)
        report["suites"][suite] = [
            {
                "id": c.id,
                "status": c.status,
                "expected": c.expected,
                "computed": c.computed,
                "seconds": round(c.seconds, 3),
            }
            for c in cases
        ]
        for c in cases:
            print(f"[{c.status.upper()}] {suite}/{c.id} ({c.seconds:.2f}s)")
            if c.status == "fail":
                report["failures"] += 1
                print(f"       expected {c.expected} got {c.computed}")
    report["total_seconds"] = round(time.perf_counter() - start, 2)
    print(f"done in {report['total_seconds']}s with {report['failures']} failures")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"report written to {args.out}")
    return 2 if report["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
