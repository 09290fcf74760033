#!/usr/bin/env python3
"""Sweep reg and depth of two-row board ideal powers over an (n, t) grid.

Prints one row per board width. reg grows as 2t everywhere; depth sits at 2
until the width/exponent threshold, where it drops to 1 (n = 3 needs t >= 4,
n >= 4 needs t >= 3). A cell that `rookideal invariants` refuses without
--allow-long prints '-' (2x5 t=4 and 2x6 t >= 3 among them). The default grid
(n <= 4, t <= 4) took 1.5-1.7 s end to end, interpreter start included, on one
CPU of a shared 2-vCPU host.
"""

import argparse
import sys
import time

from rookideal import Board, board_symmetries, facet_ideal, invariant_report
from rookideal.cli import LONG_GUARD_LIMIT, _guard_units


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=4)
    parser.add_argument("--t-max", type=int, default=4)
    args = parser.parse_args()

    print(f"{'board':>8} " + " ".join(f"{'t=' + str(t):>12}" for t in range(1, args.t_max + 1)))
    for n in range(2, args.n_max + 1):
        board = Board(2, n)
        ideal = facet_ideal(board)
        syms = board_symmetries(board)
        cells = []
        for t in range(1, args.t_max + 1):
            if _guard_units(2 * n, t) > LONG_GUARD_LIMIT:
                # what `rookideal invariants` refuses without --allow-long
                cells.append(f"{'-':>12}")
                continue
            start = time.perf_counter()
            rep = invariant_report(ideal**t, symmetries=syms)
            cells.append(f"r{rep.reg} d{rep.depth} {time.perf_counter() - start:5.1f}s".rjust(12))
        print(f"{f'2x{n}':>8} " + " ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
