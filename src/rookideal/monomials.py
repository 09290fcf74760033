"""Monomials and monomial ideals over a fixed ordered variable set.

All arithmetic is exact. Ideals are kept in a canonical minimal-generator
form (graded, then lexicographically largest first, following the fixed
variable order), so ideal equality is a plain tuple comparison.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


def _mask_of(indices) -> int:
    """The bitmask with bit i set for each index i."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _bits(mask: int):
    """The set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _maximal_masks(masks) -> list[int]:
    """The inclusion-maximal masks among ``masks``, once each, largest first:
    a mask inside another has fewer bits, so it is compared only with the
    masks already kept."""
    kept: list[int] = []
    for f in sorted(set(masks), key=int.bit_count, reverse=True):
        for g in kept:
            if f & g == f:
                break
        else:
            kept.append(f)
    return kept


class AmbientMismatch(ValueError):
    """Two objects live over different variable sets."""


class IdealParseError(ValueError):
    """Malformed ideal text; message carries the 1-based line number."""


@dataclass(frozen=True)
class VariableSet:
    """An ordered list of variable names; the order is the monomial order base."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("variable labels must be unique")
        for lab in self.labels:
            if not lab or any(ch.isspace() for ch in lab):
                raise ValueError(f"bad variable label {lab!r}")

    @classmethod
    def generic(cls, count: int, prefix: str = "x") -> "VariableSet":
        return cls(tuple(f"{prefix}{i}" for i in range(1, count + 1)))

    @property
    def count(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class Monomial:
    """Exponent vector over a fixed ambient variable set."""

    ambient: VariableSet
    exponents: tuple[int, ...]

    def __post_init__(self):
        if len(self.exponents) != self.ambient.count:
            raise ValueError("exponent vector length does not match ambient")
        if any(e < 0 for e in self.exponents):
            raise ValueError("exponents must be non-negative")

    @classmethod
    def unit(cls, ambient: VariableSet) -> "Monomial":
        return cls(ambient, (0,) * ambient.count)

    @classmethod
    def variable(cls, ambient: VariableSet, index: int) -> "Monomial":
        exps = [0] * ambient.count
        exps[index] = 1
        return cls(ambient, tuple(exps))

    @classmethod
    def from_support(cls, ambient: VariableSet, indices) -> "Monomial":
        exps = [0] * ambient.count
        for i in indices:
            exps[i] = 1
        return cls(ambient, tuple(exps))

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def is_unit(self) -> bool:
        return all(e == 0 for e in self.exponents)

    @property
    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exponents)

    def support(self) -> frozenset[int]:
        return frozenset(i for i, e in enumerate(self.exponents) if e)

    def support_mask(self) -> int:
        return _mask_of(i for i, e in enumerate(self.exponents) if e)

    def _check(self, other: "Monomial"):
        if self.ambient != other.ambient:
            raise AmbientMismatch("monomials over different variable sets")

    def divides(self, other: "Monomial") -> bool:
        self._check(other)
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def __mul__(self, other: "Monomial") -> "Monomial":
        self._check(other)
        return Monomial(self.ambient, tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def after_colon(self, f: "Monomial") -> "Monomial":
        """self divided by gcd(self, f); the generator image under (I : f)."""
        self._check(f)
        return Monomial(self.ambient, tuple(a - min(a, b) for a, b in zip(self.exponents, f.exponents)))

    def sort_key(self):
        # graded, then lexicographically largest first in the fixed variable order
        return (self.degree, tuple(-e for e in self.exponents))

    def __str__(self) -> str:
        if self.is_unit:
            return "1"
        parts = []
        for lab, e in zip(self.ambient.labels, self.exponents):
            if e == 1:
                parts.append(lab)
            elif e > 1:
                parts.append(f"{lab}^{e}")
        return "*".join(parts)


def min_gens(monomials, ambient: VariableSet) -> "MonomialIdeal":
    """Canonical ideal generated by the given monomials (empty list -> zero ideal)."""
    uniq = []
    seen = set()
    for m in monomials:
        if m.ambient != ambient:
            raise AmbientMismatch("generator over a different variable set")
        if m.exponents not in seen:
            seen.add(m.exponents)
            uniq.append(m)
    uniq.sort(key=Monomial.sort_key)
    # a divisor of m other than m has lower degree, so each candidate is
    # compared only with the kept generators of lower degree
    kept: list[Monomial] = []
    for _, same_degree in itertools.groupby(uniq, key=lambda m: m.degree):
        lower = kept[:]
        for m in same_degree:
            if not any(g.divides(m) for g in lower):
                kept.append(m)
    return MonomialIdeal(ambient, tuple(kept))


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal with a canonical minimal generating set.

    Build instances through :func:`min_gens` (or the arithmetic below); direct
    construction assumes ``gens`` is already a sorted divisibility antichain.
    """

    ambient: VariableSet
    gens: tuple[Monomial, ...]

    @classmethod
    def zero(cls, ambient: VariableSet) -> "MonomialIdeal":
        return cls(ambient, ())

    @classmethod
    def unit_ideal(cls, ambient: VariableSet) -> "MonomialIdeal":
        return cls(ambient, (Monomial.unit(ambient),))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].is_unit

    @property
    def is_proper(self) -> bool:
        return not self.is_unit

    @property
    def is_squarefree(self) -> bool:
        return all(g.is_squarefree for g in self.gens)

    def support(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for g in self.gens:
            out |= g.support()
        return out

    def _check(self, other: "MonomialIdeal"):
        if self.ambient != other.ambient:
            raise AmbientMismatch("ideals over different variable sets")

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        return min_gens(self.gens + other.gens, self.ambient)

    def __mul__(self, other) -> "MonomialIdeal":
        if isinstance(other, Monomial):
            return min_gens([g * other for g in self.gens], self.ambient)
        self._check(other)
        return min_gens([a * b for a in self.gens for b in other.gens], self.ambient)

    def __pow__(self, t: int) -> "MonomialIdeal":
        if t < 1:
            raise ValueError("power exponent must be a positive integer")
        out = self
        for _ in range(t - 1):
            out = out * self
        return out

    def colon(self, f: Monomial) -> "MonomialIdeal":
        """The colon ideal (I : f) for a single monomial f."""
        if f.ambient != self.ambient:
            raise AmbientMismatch("monomial over a different variable set")
        return min_gens([g.after_colon(f) for g in self.gens], self.ambient)

    def radical(self) -> "MonomialIdeal":
        return min_gens(
            [Monomial.from_support(self.ambient, g.support()) for g in self.gens],
            self.ambient,
        )

    def minimal_primes(self) -> tuple[tuple[int, ...], ...]:
        """Minimal primes as sorted variable-index tuples, in sorted order: the
        tuple view of the minimal vertex covers of the generator supports,
        which Berge's sequential transversal method finds as masks on every
        call."""
        self._require_squarefree_proper()
        from . import complexes

        covers = complexes.minimal_vertex_covers([g.support_mask() for g in self.gens])
        return tuple(sorted(tuple(_bits(m)) for m in covers))

    def alexander_dual(self) -> "MonomialIdeal":
        """Squarefree dual generated by the variable products of the minimal primes."""
        self._require_squarefree_proper()
        return min_gens(
            [Monomial.from_support(self.ambient, p) for p in self.minimal_primes()],
            self.ambient,
        )

    def _require_squarefree_proper(self):
        if not self.is_squarefree:
            raise ValueError("operation requires a squarefree ideal")
        if self.is_zero or self.is_unit:
            raise ValueError("operation requires a nonzero proper ideal")

    def permuted(self, perm, new_ambient: VariableSet | None = None) -> "MonomialIdeal":
        """Relabel variables: old position i goes to position perm[i]."""
        amb = new_ambient if new_ambient is not None else self.ambient
        if amb.count != self.ambient.count:
            raise ValueError("permutation target has a different variable count")
        out = []
        for g in self.gens:
            exps = [0] * amb.count
            for i, e in enumerate(g.exponents):
                exps[perm[i]] = e
            out.append(Monomial(amb, tuple(exps)))
        return min_gens(out, amb)

    def to_text(self) -> str:
        """Serialize in the exchange format: header, labels, one exponent row per generator."""
        lines = [f"vars {self.ambient.count}", "labels " + " ".join(self.ambient.labels)]
        for g in self.gens:
            lines.append(" ".join(str(e) for e in g.exponents))
        return "\n".join(lines) + "\n"

    def __str__(self) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.gens) + ")"


def ideal_from_text(text: str) -> MonomialIdeal:
    """Parse the ideal exchange format; generators in any order are canonicalized."""
    lines = text.splitlines()
    header = None
    header_no = 0
    for no, raw in enumerate(lines, start=1):
        if raw.strip():
            header, header_no = raw.strip(), no
            break
    if header is None:
        raise IdealParseError("line 1: empty input, expected 'vars <count>'")
    parts = header.split()
    if len(parts) != 2 or parts[0] != "vars" or not parts[1].isdigit():
        raise IdealParseError(f"line {header_no}: expected 'vars <count>', got {header!r}")
    count = int(parts[1])
    ambient = None
    gens = []
    for no, raw in enumerate(lines[header_no:], start=header_no + 1):
        line = raw.strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] == "labels":
            if ambient is not None or gens:
                raise IdealParseError(f"line {no}: labels line must come right after the header")
            if len(toks) != count + 1:
                raise IdealParseError(f"line {no}: expected {count} labels, got {len(toks) - 1}")
            ambient = VariableSet(tuple(toks[1:]))
            continue
        if ambient is None:
            ambient = VariableSet.generic(count)
        if len(toks) != count:
            raise IdealParseError(f"line {no}: expected {count} exponents, got {len(toks)}")
        try:
            exps = tuple(int(t) for t in toks)
        except ValueError:
            raise IdealParseError(f"line {no}: non-integer exponent in {line!r}") from None
        if any(e < 0 for e in exps):
            raise IdealParseError(f"line {no}: negative exponent in {line!r}")
        gens.append(Monomial(ambient, exps))
    if ambient is None:
        ambient = VariableSet.generic(count)
    return min_gens(gens, ambient)


def path_ideal(kind: str, n: int, m: int) -> MonomialIdeal:
    """Path ideal of a path or cycle graph on n vertices: degree-m windows of
    consecutive vertices (cyclic windows for kind='cycle')."""
    if m > n:
        raise ValueError("window length m must not exceed the vertex count n")
    if m < 1 or n < 1:
        raise ValueError("n and m must be positive")
    ambient = VariableSet.generic(n)
    gens = []
    if kind == "path":
        for i in range(n - m + 1):
            gens.append(Monomial.from_support(ambient, range(i, i + m)))
    elif kind == "cycle":
        for i in range(n):
            gens.append(Monomial.from_support(ambient, [(i + j) % n for j in range(m)]))
    else:
        raise ValueError(f"unknown kind {kind!r}, expected 'path' or 'cycle'")
    return min_gens(gens, ambient)
