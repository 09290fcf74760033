#!/usr/bin/env python3
"""Print one SHA-256 digest over the Betti tables of a fixed set of ideals.

    python3 scripts/table_digest.py            # the full set
    python3 scripts/table_digest.py --quick    # a small set, in seconds

Two revisions that print the same digest computed the same tables. The set:

* random ideals on 3 to 10 variables from a fixed seed, half squarefree
  (both routes) and half not (the lcm-lattice route);
* board facet ideals, Stanley-Reisner ideals of chessboard complexes and
  board ideal powers, each with its symmetry group and without it.

Every table is computed at 32003 and at GF(2), with the table cache cleared
before each one. The digest covers each table's case, route, field,
symmetry setting and sorted entries, in a fixed order; the last line is
``sha256 <hex> tables <count>``.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys

from rookideal import (
    GF2,
    DEFAULT_FIELD,
    Board,
    Monomial,
    VariableSet,
    betti_table,
    board_symmetries,
    facet_ideal,
    min_gens,
    stanley_reisner_ideal,
)
from rookideal.betti import clear_table_cache

FACETS = ((2, 3), (2, 4), (3, 3), (3, 4))
STANLEY_REISNER = ((2, 3), (3, 3), (3, 4))
POWERS = ((1, 4, 3), (2, 3, 2), (2, 3, 3), (2, 4, 2), (1, 6, 3), (2, 3, 4))
QUICK_BOARDS = ((2, 3, 1), (2, 3, 2))
RANDOM, QUICK_RANDOM, SEED = 400, 20, 2209


def random_ideals(count: int, seed: int):
    """``count`` (name, ideal) pairs, squarefree and not by turns."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        nvars = rng.randint(3, 10)
        ambient = VariableSet.generic(nvars)
        gens = []
        for _ in range(rng.randint(2, 6)):
            if k % 2 == 0:
                gens.append(Monomial.from_support(ambient, rng.sample(range(nvars), rng.randint(1, min(4, nvars)))))
            else:
                exponents = [rng.choice((0, 0, 1, 2, 3)) for _ in range(nvars)]
                exponents[rng.randrange(nvars)] = rng.randint(1, 3)
                gens.append(Monomial(ambient, tuple(exponents)))
        out.append((f"random-{k}", min_gens(gens, ambient)))
    return out


def board_ideals(quick: bool):
    """(name, ideal, symmetries) for the board cases."""
    if quick:
        return [(f"power-{m}x{n}-t{t}", facet_ideal(Board(m, n)) ** t, board_symmetries(Board(m, n)))
                for m, n, t in QUICK_BOARDS]
    out = [(f"facet-{m}x{n}", facet_ideal(Board(m, n)), board_symmetries(Board(m, n))) for m, n in FACETS]
    out += [(f"sr-{m}x{n}", stanley_reisner_ideal(Board(m, n)), board_symmetries(Board(m, n)))
            for m, n in STANLEY_REISNER]
    out += [(f"power-{m}x{n}-t{t}", facet_ideal(Board(m, n)) ** t, board_symmetries(Board(m, n)))
            for m, n, t in POWERS]
    return out


def digest(cases) -> tuple[str, int]:
    """The SHA-256 of every table of the (name, ideal, symmetries) cases, and
    the number of tables."""
    sha = hashlib.sha256()
    tables = 0
    for name, ideal, symmetries in cases:
        routes = ("hochster", "koszul") if ideal.is_squarefree else ("koszul",)
        for route in routes:
            for field in (DEFAULT_FIELD, GF2):
                for perms in ([symmetries, None] if symmetries else [None]):
                    clear_table_cache()
                    entries = sorted(betti_table(ideal, field, route, perms).entries.items())
                    key = (name, route, field.characteristic, perms is not None, entries)
                    sha.update(repr(key).encode() + b"\n")
                    tables += 1
    clear_table_cache()
    return sha.hexdigest(), tables


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--quick", action="store_true", help="20 random ideals and two small board cases")
    args = parser.parse_args(argv)
    count = QUICK_RANDOM if args.quick else RANDOM
    cases = [(name, ideal, None) for name, ideal in random_ideals(count, SEED)]
    cases += board_ideals(args.quick)
    hexdigest, tables = digest(cases)
    print(f"sha256 {hexdigest} tables {tables}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
