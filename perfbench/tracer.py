"""Spans around calls that cross spinchain's module boundaries.

The program carries no instrumentation: ``Tracer.install`` replaces the
module attributes that callers look up (``spinchain.cli.column_dp_min``,
``spinchain.solve._anneal``, ...) with timing wrappers.  Spans are kept in
memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

# (layer, module, attribute): every place a caller looks the function up
TARGETS = [
    ("solve.column_dp", "spinchain.cli", "column_dp_min"),
    ("solve.column_dp", "spinchain.solve", "column_dp_min"),
    ("solve.brute", "spinchain.cli", "brute_force_min"),
    ("solve.brute", "spinchain.solve", "brute_force_min"),
    ("solve.periodic", "spinchain.cli", "periodic_min"),
    ("solve.cyclic_dp", "spinchain.cli", "_cyclic_dp"),
    ("solve.cyclic_dp", "spinchain.solve", "_cyclic_dp"),
    ("solve.anneal", "spinchain.cli", "_anneal"),
    ("solve.anneal", "spinchain.solve", "_anneal"),
    ("lattice.energy", "spinchain.cli", "energy_open"),
    ("lattice.energy", "spinchain.cli", "energy_periodic"),
    ("lattice.energy", "spinchain.solve", "energy_open"),
    ("lattice.energy", "spinchain.solve", "energy_periodic"),
    ("lattice.energy", "spinchain.recover", "energy_open"),
    ("classify", "spinchain.cli", "classify_open"),
    ("classify", "spinchain.cli", "classify_periodic"),
    ("classify", "spinchain.classify", "classify_open"),
    ("classify", "spinchain.classify", "classify_periodic"),
    ("continuum", "spinchain.classify", "continuum_energy"),
    ("continuum", "spinchain.classify", "continuum_energy_periodic"),
    ("continuum", "spinchain.recover", "continuum_energy"),
    ("recover", "spinchain.cli", "recovery_constrained"),
    ("recover", "spinchain.cli", "recovery_unconstrained"),
    ("cli.sweep", "spinchain.cli", "run_sweep"),
]


@dataclass
class Span:
    id: int
    parent: Optional[int]
    request: Optional[int]
    layer: str
    name: str
    thread: int
    start: float
    end: float = 0.0
    child_s: float = 0.0  # time covered by direct children in the same thread
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


_DESCRIBED = {"solve.column_dp", "solve.brute", "solve.anneal", "solve.periodic"}


def _describe(layer: str, bound: inspect.BoundArguments, result) -> dict:
    """The few argument and result fields the per-layer metrics need."""
    a = bound.arguments
    if layer == "solve.column_dp":
        return {"n": a["n"], "L": str(Fraction(a["L"])), "k": a["k"]}
    if layer == "solve.brute":
        return {"shape": [a["n"], str(Fraction(a["L"])), a["boundary"] == "periodic"],
                "returned": result is not None}
    if layer == "solve.anneal":
        return {"steps": a["steps"]}
    if layer == "solve.periodic" and result is not None:
        return {"method": result.method, "exact": result.exact}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request: Optional[int] = None
        self.missing: list[str] = []
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._main = threading.get_ident()
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, layer: str, name: str) -> Span:
        stack = self._stack()
        # a worker thread's outermost span was caused by the main thread's open span
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = Span(next(self._ids), parent.id if parent else None, self.request, layer, name,
                    threading.get_ident(), time.perf_counter())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child_s += span.duration
        self.spans.append(span)

    def request_span(self, request_id: int, fn, *args):
        """Root span of one request (layer 'cli'), around spinchain.cli.main."""
        self.request = request_id
        span = self._open("cli", "spinchain.cli:main")
        try:
            return fn(*args)
        finally:
            self._close(span)

    def _wrap(self, layer: str, name: str, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(layer, name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(span)
                if layer in _DESCRIBED:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.info = _describe(layer, bound, result)

        return traced

    def install(self) -> None:
        """Wrap every target present in the imported spinchain modules."""
        for layer, module, attr in TARGETS:
            mod = sys.modules.get(module)
            fn = getattr(mod, attr, None) if mod else None
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            setattr(mod, attr, self._wrap(layer, f"{module}:{attr}", fn))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "request": s.request, "layer": s.layer,
                    "name": s.name, "thread": s.thread, "start": s.start, "end": s.end,
                    "info": s.info}) + "\n")
