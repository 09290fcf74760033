"""The three benchmark workloads: their inputs, their timed calls and the
checks every result must pass.

Each case is one call a user makes: ``rookideal invariants`` on a board ideal
power (an invariant report at 32003 with a GF(2) cross-run) or ``rookideal
betti`` on an ideal file (the lattice and restriction tables at 32003, which
must agree). The seed relabels the variables of every ideal, and conjugates
the board symmetry group to match, so two seeds solve isomorphic problems
with different variable orders and different orbit representatives.

Every call into the library goes through a module attribute (``boards.*``,
``betti.*``) so that the tracer's wrappers see it.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from rookideal import betti, boards
from rookideal.homology import DEFAULT_FIELD, GF2
from rookideal.monomials import Monomial, MonomialIdeal, VariableSet, min_gens

# The random-ideals pool is drawn once from this seed; --seed only relabels it.
# Drawing fresh ideals per seed moved the per-case median by a quarter between
# seeds, which no regression bound could absorb.
POOL_SEED = 20221017
POOL_SIZE = 120
POOL_VARIABLES = 10


@dataclass
class Case:
    name: str
    ideal: MonomialIdeal
    solve: Callable[[], object]
    check: Callable[[object], list[str]]


def relabel(ideal: MonomialIdeal, perms, rng: random.Random):
    """Move variable i to position sigma[i] for a random sigma, and conjugate
    each symmetry g to sigma g sigma^-1 so it still fixes the generators."""
    n = ideal.ambient.count
    sigma = list(range(n))
    rng.shuffle(sigma)
    inverse = [0] * n
    for i, s in enumerate(sigma):
        inverse[s] = i
    conjugated = [tuple(sigma[g[inverse[j]]] for j in range(n)) for g in perms]
    return ideal.permuted(sigma), conjugated


# ---------------------------------------------------------------------------
# frozen invariants (the paper's integers)


def power_invariants(m: int, n: int, t: int) -> dict:
    """reg and depth of S/I^t for the facet ideal I of a one- or two-row board."""
    if m == 1:
        return {"reg": t - 1, "depth": 0}
    if m == 2:
        drops = (n == 3 and t >= 4) or (n == 4 and t >= 3)
        return {"reg": 2 * t, "depth": 1 if drops else 2}
    raise ValueError("powers are frozen for one- and two-row boards only")


def board_invariants(m: int, n: int) -> dict:
    if m == 3:
        return {"reg": 4, "depth": 4, "a_invariant": 0}
    if (m, n) == (4, 4):
        return {"reg": 6, "depth": 6}
    raise ValueError(f"no frozen invariants for the {m}x{n} board")


def face_ring_invariants(m: int, n: int) -> dict:
    return {"depth": min(m, n, (m + n + 1) // 3)}


def report_check(expected: dict) -> Callable[[object], list[str]]:
    """Compare an InvariantReport with frozen integers; a torsion flag (the
    GF(2) cross-run disagreeing with 32003) is always a failure."""

    def check(report) -> list[str]:
        problems = [
            f"{key} expected {want} got {getattr(report, key)}"
            for key, want in expected.items()
            if getattr(report, key) != want
        ]
        if report.torsion_warning:
            problems.append("torsion flag: GF(2) and 32003 tables differ")
        return problems

    return check


def routes_check(ideal: MonomialIdeal) -> Callable[[object], list[str]]:
    """The lattice and restriction tables must agree, and the table's first
    column must count the generators by degree."""
    degrees = Counter(g.degree for g in ideal.gens)

    def check(tables) -> list[str]:
        koszul, hochster = tables
        problems = []
        if koszul.entries != hochster.entries:
            problems.append("route mismatch: lattice and restriction tables differ")
        first = {j: b for (i, j), b in koszul.entries.items() if i == 0}
        if first != dict(degrees):
            problems.append(f"beta_0 expected {dict(degrees)} got {first}")
        return problems

    return check


# ---------------------------------------------------------------------------
# workloads


def _invariants_case(name, ideal, perms, expected, rng, field=DEFAULT_FIELD, cross_check=True):
    ideal, perms = relabel(ideal, perms, rng)

    def solve():
        return betti.invariant_report(ideal, field=field, symmetries=perms, cross_check=cross_check)

    return Case(name, ideal, solve, report_check(expected))


def lattice_powers(seed: int) -> list[Case]:
    """Non-squarefree powers, so every table goes through the lcm lattice."""
    rng = random.Random(seed)
    cases = []
    for m, n, t in ((1, 6, 3), (2, 3, 3), (2, 4, 2), (2, 3, 4)):
        board = boards.Board(m, n)
        ideal = boards.facet_ideal(board) ** t
        perms = boards.board_symmetries(board)
        cases.append(
            _invariants_case(f"power-{m}x{n}-t{t}", ideal, perms, power_invariants(m, n, t), rng)
        )
    return cases


def squarefree_boards(seed: int) -> list[Case]:
    """Squarefree board ideals, so every table goes through the restriction
    sweep. The 4x4 facet ideal runs at GF(2) only: at 32003 it takes 34 s."""
    rng = random.Random(seed)
    cases = []
    for m, n in ((3, 4), (3, 5), (4, 4)):
        board = boards.Board(m, n)
        ideal = boards.facet_ideal(board) ** 1  # what `rookideal invariants` computes at power 1
        perms = boards.board_symmetries(board)
        if m == 4:
            cases.append(
                _invariants_case(
                    f"facet-{m}x{n}-gf2", ideal, perms, board_invariants(m, n), rng,
                    field=GF2, cross_check=False,
                )
            )
        else:
            cases.append(_invariants_case(f"facet-{m}x{n}", ideal, perms, board_invariants(m, n), rng))
    for m, n in ((3, 5), (4, 4)):
        board = boards.Board(m, n)
        ideal = boards.stanley_reisner_ideal(board)
        perms = boards.board_symmetries(board)
        cases.append(_invariants_case(f"sr-{m}x{n}", ideal, perms, face_ring_invariants(m, n), rng))
    return cases


def random_pool() -> list[MonomialIdeal]:
    """POOL_SIZE distinct squarefree ideals on POOL_VARIABLES variables, with
    3 to 7 generators of degree 2 to 6."""
    rng = random.Random(POOL_SEED)
    ambient = VariableSet.generic(POOL_VARIABLES)
    pool, seen = [], set()
    while len(pool) < POOL_SIZE:
        gens = [
            Monomial.from_support(ambient, rng.sample(range(POOL_VARIABLES), rng.randint(2, 6)))
            for _ in range(rng.randint(3, 7))
        ]
        ideal = min_gens(gens, ambient)
        key = tuple(g.exponents for g in ideal.gens)
        if key not in seen:
            seen.add(key)
            pool.append(ideal)
    return pool


def random_ideals(seed: int) -> list[Case]:
    """What `rookideal betti` does to each ideal: both routes at 32003, no
    symmetry group."""
    rng = random.Random(seed)
    cases = []
    for k, base in enumerate(random_pool()):
        ideal, _ = relabel(base, [], rng)

        def solve(ideal=ideal):
            return betti.betti_table_koszul(ideal), betti.betti_table_hochster(ideal)

        cases.append(Case(f"random-{k:03d}", ideal, solve, routes_check(ideal)))
    return cases


@dataclass(frozen=True)
class Workload:
    build: Callable[[int], list[Case]]
    setup_spans: tuple[str, ...]  # must fire while the inputs are built
    solve_spans: tuple[str, ...]  # must fire on every traced pass


_SOLVE_SPANS = ("complexes.covers", "homology.faces", "homology.reduce.modp")

WORKLOADS = {
    "lattice-powers": Workload(
        lattice_powers,
        ("boards.facet_ideal", "boards.board_symmetries", "monomials.power"),
        _SOLVE_SPANS
        + ("betti.table.koszul.modp", "betti.table.koszul.gf2", "homology.reduce.gf2"),
    ),
    "squarefree-boards": Workload(
        squarefree_boards,
        (
            "boards.facet_ideal",
            "boards.stanley_reisner_ideal",
            "boards.board_symmetries",
            "monomials.power",
        ),
        _SOLVE_SPANS
        + (
            "betti.table.hochster.modp",
            "betti.table.hochster.gf2",
            "betti.hilbert",
            "homology.reduce.gf2",
        ),
    ),
    "random-ideals": Workload(
        random_ideals,
        (),
        _SOLVE_SPANS + ("betti.table.koszul.modp", "betti.table.hochster.modp"),
    ),
}
