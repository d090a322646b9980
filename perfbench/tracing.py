"""In-memory spans around calls into the package's public functions.

The benchmark wraps module attributes from here, for the traced run only;
nothing under src/ records spans.  A span records its name, its layer (the
module), start and end, its parent span and the counts taken from the
call's arguments and result.  A call made from inside a span of the same
layer is not a call into the layer, so it gets no span of its own.
"""
from __future__ import annotations

import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import ModuleType
from typing import Callable, Iterator

from ng_incentives import cli, closedform, concentration, feescan, mdp, simulator


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), parent, name, layer, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn: Callable, layer: str, name: Callable, count: Callable | None) -> Callable:
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            if self._stack and self._stack[-1].layer == layer:
                return fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            with self.span(name(bound.arguments), layer) as s:
                result = fn(*args, **kwargs)
            if count is not None:
                s.counts.update(count(bound.arguments, result))
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def to_records(self) -> list[dict]:
        """Spans as JSON records, times in seconds from the first span's start."""
        origin = self.spans[0].start if self.spans else 0.0
        return [
            {"id": s.id, "parent": s.parent, "name": s.name,
             "start": round(s.start - origin, 6), "end": round(s.end - origin, 6),
             **({"counts": s.counts} if s.counts else {})}
            for s in self.spans
        ]


def _fixed(name: str) -> Callable:
    return lambda arguments: name


def _table_counts(arguments: dict, table) -> dict:
    return {"states": len(table.states), "table_entries": len(table)}


def _solve_counts(arguments: dict, result) -> dict:
    return {"outer_iterations": result.outer_iterations}


def _run_name(arguments: dict) -> str:
    policy = isinstance(arguments["config"].strategy, simulator.MdpPolicy)
    return "simulator.run_policy" if policy else "simulator.run_interval"


def _run_counts(arguments: dict, report) -> dict:
    return {
        "keyblocks": arguments["config"].horizon_keyblocks,
        "boundary_visits": report.boundary_visits,
    }


def _pair_counts(arguments: dict, summary) -> dict:
    return {"bits": arguments["trials"] * arguments["m"]}


def _public_functions(module: ModuleType) -> list[str]:
    return [
        name for name, value in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(value)
        and value.__module__ == module.__name__
    ]


def _targets() -> list[tuple[ModuleType, str, str, Callable, Callable | None]]:
    """(module, attribute, layer, span namer, counter) for every wrapped name.

    The CLI imported build_transitions, solve and run by name, so its own
    bindings are wrapped next to the defining modules' ones.  mdp and
    simulator helpers other than these are not wrapped: the solver calls
    some of them per transition, and they are all inside solve or run.
    """
    targets = []
    for module in (cli, mdp):
        targets.append((module, "build_transitions", "mdp",
                        _fixed("mdp.build_transitions"), _table_counts))
        targets.append((module, "solve", "mdp", _fixed("mdp.solve"), _solve_counts))
    for module in (cli, simulator):
        targets.append((module, "run", "simulator", _run_name, _run_counts))
    for module in (closedform, concentration, feescan):
        layer = module.__name__.rsplit(".", 1)[1]
        for name in _public_functions(module):
            count = _pair_counts if name == "empirical_pair_summary" else None
            targets.append((module, name, layer, _fixed(f"{layer}.{name}"), count))
    return targets


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for module, attr, layer, name, count in _targets():
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, layer, name, count))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
