"""Command-line front end.

Exit codes: 0 success, 1 usage or input error (including a ValueError raised
by the library), 2 verification failure (including an ArithmeticError raised
by a consistency check of the library), 3 resource guard tripped (rerun with
--allow-long). A sweep big enough to pay for it runs on one process per CPU
that this process may use; run under taskset to keep it to one.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .betti import betti_table_hochster, betti_table_koszul, invariant_report
from .boards import (
    Board,
    board_symmetries,
    chessboard_complex,
    facet_ideal,
    minimal_primes_formula,
    stanley_reisner_ideal,
)
from .complexes import induced_matching_bound
from .homology import DEFAULT_FIELD, FieldSpec
from .monomials import IdealParseError, ideal_from_text
from .verify import SUITES, run_suite

# _guard_units over every board and power that invariants accepts (84
# inputs), each timed once end to end with --allow-long on one CPU of a
# shared 2-vCPU host, under a 3 GB address-space limit and a 45 s cap: the
# 51 inputs priced at most 2^29 all finish in 1.55 s or less (the slowest
# is 2x5 t=3), and the 33 priced above it each take 4.08 s or more (the
# fastest is 4x4 t=2; 23 of them, 5x6 and 6x6 among them, pass the cap)
LONG_GUARD_LIMIT = 1 << 29
# generators x primes^2 counts the subset tests of Berge's cover search to
# within a factor of two on every board up to 5x6; this limit lets 5x6
# (7.8e7, 1.6-1.8 s) run and stops 6x6 (4.5e8, 37 s), timed end to end as
# `rookideal primes --method brute` on a shared 2-vCPU host
COVER_GUARD_LIMIT = 1 << 27


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _board_args(sub, power=False):
    sub.add_argument("--m", type=int, required=True, help="rows (1..6, at most --n)")
    sub.add_argument("--n", type=int, required=True, help="columns (1..6)")
    if power:
        sub.add_argument("--power", type=int, default=1, help="ideal power t (1..4)")


def _checked_board(args, power=False) -> Board:
    if not (1 <= args.m <= args.n <= 6):
        raise UsageError(f"need 1 <= m <= n <= 6, got m={args.m} n={args.n}")
    if power and not (1 <= args.power <= 4):
        raise UsageError(f"need 1 <= power <= 4, got {args.power}")
    return Board(args.m, args.n)


def _field(args) -> FieldSpec:
    try:
        return FieldSpec(args.char)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_ideal(args) -> int:
    board = _checked_board(args, power=True)
    base = facet_ideal(board) if args.kind == "facet" else stanley_reisner_ideal(board)
    sys.stdout.write((base**args.power).to_text())
    return 0


def _refused(args, what: str, predicted: int, limit: int, instead: str = "") -> bool:
    """Whether a command stops at its resource guard: the predicted cost is
    above the limit and --allow-long was not given. A refusal says so on
    stderr; the command then exits 3."""
    if predicted <= limit or args.allow_long:
        return False
    sys.stderr.write(
        f"predicted {what} cost {predicted} exceeds {limit}; rerun with --allow-long{instead}\n"
    )
    return True


def cmd_primes(args) -> int:
    board = _checked_board(args)
    labels = board.vars.labels
    formula = minimal_primes_formula(board)
    # every grown set is tested against the kept sets, once per generator
    # (one generator per placement of m non-attacking rooks)
    predicted = math.perm(board.n, board.m) * len(formula) ** 2
    if args.method != "formula" and _refused(
        args, "cover-search", predicted, COVER_GUARD_LIMIT, " or use --method formula"
    ):
        return 3
    if args.method == "formula":
        primes = formula
    elif args.method == "brute":
        primes = facet_ideal(board).minimal_primes()
    else:
        brute = facet_ideal(board).minimal_primes()
        if set(formula) != set(brute):
            sys.stderr.write(
                "method mismatch: formula and cover search disagree "
                f"({len(formula)} vs {len(brute)} primes)\n"
            )
            return 2
        primes = formula
        print(f"methods agree: {len(primes)} minimal primes")
    for prime in primes:
        print(" ".join(labels[i] for i in prime))
    return 0


def _guard_units(support_size: int, power: int) -> int:
    # lattice-size estimate times a per-multidegree rank cost factor
    return (power + 1) ** support_size * support_size**2


def cmd_invariants(args) -> int:
    board = _checked_board(args, power=True)
    if _refused(args, "sweep", _guard_units(board.m * board.n, args.power), LONG_GUARD_LIMIT):
        return 3
    ideal = facet_ideal(board) ** args.power
    report = invariant_report(
        ideal,
        ambient_count=args.ambient,
        field=_field(args),
        symmetries=board_symmetries(board),
        cross_check=True,
    )
    payload = {"board": [board.m, board.n], "power": args.power, "subject": "quotient"}
    payload.update(report.to_dict())
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_betti(args) -> int:
    if args.file == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise UsageError(f"cannot read {args.file}: {exc}") from None
    try:
        ideal = ideal_from_text(text)
    except IdealParseError as exc:
        raise UsageError(str(exc)) from None
    if ideal.is_zero or ideal.is_unit:
        raise UsageError("the zero and unit ideals have no Betti table here")
    field = _field(args)
    table = betti_table_koszul(ideal, field)
    if ideal.is_squarefree:
        cross = betti_table_hochster(ideal, field)
        if cross.entries != table.entries:
            sys.stderr.write("route mismatch: lattice and restriction sweeps disagree\n")
            return 2
    print(table.to_text())
    print(json.dumps(table.to_json_dict(), sort_keys=True))
    return 0


def cmd_matching(args) -> int:
    board = _checked_board(args)
    value, witness = induced_matching_bound(chessboard_complex(board), args.k_max)
    labels = board.vars.labels
    print(f"bound {value}")
    for facet in witness:
        print("witness " + " ".join(labels[i] for i in facet))
    return 0


def cmd_verify(args) -> int:
    cases = run_suite(args.suite)
    width = max(len(c.id) for c in cases)
    failed = 0
    for case in cases:
        line = f"{case.id:<{width}}  {case.status.upper():<12} {case.seconds:7.2f}s  {case.description}"
        print(line)
        if case.status == "fail":
            failed += 1
            print(f"{'':<{width}}  expected {case.expected} got {case.computed}")
    print(f"{len(cases) - failed} passed, {failed} failed")
    return 2 if failed else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="rookideal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ideal", help="print a board ideal in the text format")
    _board_args(p, power=True)
    p.add_argument("--kind", choices=("facet", "stanley-reisner"), default="facet")
    p.set_defaults(func=cmd_ideal)

    p = sub.add_parser("primes", help="minimal primes of the board facet ideal")
    _board_args(p)
    p.add_argument("--method", choices=("formula", "brute", "both"), default="formula")
    p.add_argument("--allow-long", action="store_true")
    p.set_defaults(func=cmd_primes)

    p = sub.add_parser("invariants", help="JSON invariant report of a board ideal power")
    _board_args(p, power=True)
    p.add_argument("--char", type=int, default=DEFAULT_FIELD.characteristic)
    p.add_argument("--ambient", type=int, default=None)
    p.add_argument("--allow-long", action="store_true")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("betti", help="Betti table of an ideal file ('-' for stdin)")
    p.add_argument("file")
    p.add_argument("--char", type=int, default=DEFAULT_FIELD.characteristic)
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("matching", help="induced-matching regularity lower bound")
    _board_args(p)
    p.add_argument("--k-max", type=int, default=3)
    p.set_defaults(func=cmd_matching)

    p = sub.add_parser("verify", help="run a reproduction suite")
    p.add_argument("--suite", choices=tuple(SUITES), default="paper")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ArithmeticError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
