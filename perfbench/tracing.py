"""In-memory spans around the benchmark's calls into each rookideal layer.

The layers are the library modules: ``boards``, ``monomials``, ``complexes``,
``betti`` and ``homology``. A :class:`Tracer` replaces the public functions
that the workloads reach with wrappers that record a span (name, start, end,
parent) and a few exact work counts, and puts the originals back on exit.
Functions are replaced where their caller looks them up: ``betti`` imported
``faces_by_dim_masks`` and ``betti_of_face_masks`` into its own namespace, so
those are wrapped inside ``rookideal.betti``; ``MonomialIdeal.minimal_primes``
imports ``minimal_vertex_covers`` from ``rookideal.complexes`` on every call,
so that one is wrapped in ``complexes``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field

from rookideal import betti, boards, complexes, monomials
from rookideal.homology import DEFAULT_FIELD


def _field_tag(args, kwargs) -> str:
    # betti_table_* and betti_of_face_masks take the field second
    spec = kwargs.get("field", args[1] if len(args) > 1 else DEFAULT_FIELD)
    return "gf2" if spec.characteristic == 2 else "modp"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    children: int = 0


@dataclass
class Tracer:
    """Spans and exact counts of one traced pass (or of the set-up)."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def peak(self, key: str, value: int) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        if parent >= 0:
            self.spans[parent].children += 1
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def _wrap(self, fn, name_of, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name_of(args, kwargs)):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer entry points for the duration of the block."""

        def fixed(name):
            return lambda args, kwargs: name

        def by_field(prefix):
            return lambda args, kwargs: f"{prefix}.{_field_tag(args, kwargs)}"

        def after_reduce(args, kwargs, betti_numbers):
            by_dim = args[0]
            sizes = {d: len(faces) for d, faces in by_dim.items()}
            total = sum(sizes.values())
            self.count("homology.jobs")
            self.count("homology.faces", total)
            self.count("homology.boundary_nnz", sum((d + 1) * f for d, f in sizes.items() if d >= 1))
            self.peak("homology.max_faces", total)
            if any(betti_numbers.values()):
                self.count("homology.useful_jobs")

        def after_table(route):
            def after(args, kwargs, table):
                self.count(f"betti.tables.{route}.{_field_tag(args, kwargs)}")

            return after

        def after_symmetries(args, kwargs, perms):
            self.peak("boards.symmetries", len(perms))

        targets = [
            (boards, "facet_ideal", fixed("boards.facet_ideal"), None),
            (boards, "stanley_reisner_ideal", fixed("boards.stanley_reisner_ideal"), None),
            (boards, "board_symmetries", fixed("boards.board_symmetries"), after_symmetries),
            (monomials.MonomialIdeal, "__pow__", fixed("monomials.power"), None),
            (complexes, "minimal_vertex_covers", fixed("complexes.covers"), None),
            (betti, "betti_table_hochster", by_field("betti.table.hochster"), after_table("hochster")),
            (betti, "betti_table_koszul", by_field("betti.table.koszul"), after_table("koszul")),
            (betti, "hilbert_series", fixed("betti.hilbert"), None),
            (betti, "faces_by_dim_masks", fixed("homology.faces"), None),
            (betti, "betti_of_face_masks", by_field("homology.reduce"), after_reduce),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
        try:
            for owner, attr, name_of, after in targets:
                setattr(owner, attr, self._wrap(getattr(owner, attr), name_of, after))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)


def _matches(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


def busy_seconds(tracer: Tracer, prefix: str) -> float:
    """Total duration of the spans named ``prefix`` or ``prefix.<anything>``
    (no traced function calls another of the same name)."""
    return sum((s.end - s.start for s in tracer.spans if _matches(s.name, prefix)), 0.0)


def self_seconds(tracer: Tracer, prefix: str) -> float:
    """Duration of the matching spans minus the time their direct children
    cover (children never overlap: the program is single-threaded)."""
    child_time = [0.0] * len(tracer.spans)
    for s in tracer.spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    return sum(
        ((s.end - s.start) - child_time[i] for i, s in enumerate(tracer.spans) if _matches(s.name, prefix)),
        0.0,
    )


def cache_hits(tracer: Tracer) -> int:
    """Table calls that returned without reaching any other layer."""
    return sum(1 for s in tracer.spans if s.name.startswith("betti.table.") and s.children == 0)


def write_spans(path, passes: list[Tracer]) -> None:
    """Write every span of every traced pass as JSON lists
    [pass, name, start, end, parent]."""
    rows = [
        [k, s.name, round(s.start, 9), round(s.end, 9), s.parent]
        for k, tracer in enumerate(passes)
        for s in tracer.spans
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fields": ["pass", "name", "start", "end", "parent"], "spans": rows}, handle)
