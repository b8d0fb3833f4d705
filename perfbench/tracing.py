"""Span recording around the public functions each densewire layer exposes.

Wrappers are installed from the benchmark's own files onto module
attributes, at the name the caller resolves at call time (for example
`densewire.cli.generate_layout`, which the CLI looks up in its own module
globals).  Each call records one span: name, start, end, parent span and
iteration id.  Spans stay in memory until the run ends.

A target whose module or attribute is missing at the commit under test is
skipped: only the per-layer metrics fed by that target go absent.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

ROOT = "driver"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    iteration: int


@dataclass(frozen=True)
class Target:
    """One wrapped public name.

    `layer` is the span name, or a function of the call's (args, kwargs)
    when one function serves two layers (JSON versus SVG export).
    `count` maps (args, kwargs, result) to exact counter increments.
    """

    module: str
    attr: str
    layer: str | Callable
    count: Callable | None = None
    counters: tuple[str, ...] = ()
    layer_names: tuple[str, ...] = ()  # every span name a callable `layer` returns

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"

    def layers(self) -> tuple[str, ...]:
        return (self.layer,) if isinstance(self.layer, str) else self.layer_names


def _export_layer(args, kwargs) -> str:
    fmt = args[1] if len(args) > 1 else kwargs.get("fmt")
    return f"layout.export_{fmt}"


def _export_count(args, kwargs, result) -> dict:
    fmt = args[1] if len(args) > 1 else kwargs.get("fmt")
    n = len(result) if result.isascii() else len(result.encode("utf-8"))
    return {f"layout.{fmt}_bytes": n}


def _layout_sites(args, kwargs, result) -> dict:
    return {"layout.sites": len(result.hole_centers)}


def _golden_counts(args, kwargs, result) -> dict:
    return {"golden.rows": len(result),
            "golden.failed_rows": sum(1 for r in result if not r.passed)}


def _cascade_counts(args, kwargs, result) -> dict:
    elements = args[0] if args else kwargs["elements"]
    return {"rfnet.elements": len(elements),
            "rfnet.points": int(result.frequencies.size)}


def _calls(counter: str) -> tuple[Callable, tuple[str]]:
    return (lambda args, kwargs, result: {counter: 1}), (counter,)


_LAYOUT_SITES = (_layout_sites, ("layout.sites",))


_SCALING = ("lateral_scaling_report", "vertical_scaling_report",
            "required_pitch_for_full_chip", "logical_qubit_estimate")
_TLINES = ("coax_impedance", "cpw_impedance", "cpw_effective_permittivity",
           "line_propagation", "pin_outer_diameter")

# interpolate_conductivity is deliberately not wrapped: it runs thousands
# of times per conduction integral, so a wrapper would cost more than the
# work it measures.
TARGETS: tuple[Target, ...] = (
    Target("densewire.cli", "main", "cli.main"),
    Target("densewire.cli", "parse_design_config", "config.parse", *_calls("config.parse_calls")),
    Target("densewire.cli", "load_design_config", "config.parse", *_calls("config.parse_calls")),
    *(Target("densewire.cli", name, "scaling.report") for name in _SCALING),
    *(Target("densewire.cli", name, "tlines.impedance") for name in _TLINES),
    Target("densewire.cli", "mismatch_report", "rfnet.report"),
    Target("densewire.cli", "response_csv", "rfnet.csv"),
    Target("densewire.cli", "touchstone", "rfnet.touchstone"),
    Target("densewire.cli", "generate_layout", "layout.generate", *_LAYOUT_SITES),
    Target("densewire.cli", "run_drc", "layout.drc"),
    Target("densewire.cli", "export_layout", _export_layer, _export_count,
           ("layout.json_bytes", "layout.svg_bytes"),
           ("layout.export_json", "layout.export_svg")),
    Target("densewire.cli", "stage_report", "thermal.stage_report"),
    Target("densewire.cli", "golden_rows", "golden.rows", _golden_counts,
           ("golden.rows", "golden.failed_rows")),
    Target("densewire.golden", "generate_layout", "layout.generate", *_LAYOUT_SITES),
    Target("densewire.golden", "run_drc", "layout.drc"),
    Target("densewire.rfnet", "cascade", "rfnet.cascade", _cascade_counts,
           ("rfnet.elements", "rfnet.points")),
    Target("densewire.rfnet", "to_s_parameters", "rfnet.sparams"),
    Target("densewire.thermal", "conduction_load", "thermal.conduction",
           *_calls("thermal.conduction_calls")),
    Target("densewire.layout", "layout_from_json", "layout.from_json"),
    Target("densewire.layout", "run_drc", "layout.drc"),
)


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[tuple[int, str], int] = field(default_factory=dict)
    count_errors: set[str] = field(default_factory=set)
    missing: set[str] = field(default_factory=set)
    installed: list[tuple[object, str, object]] = field(default_factory=list)
    iteration: int = -1
    _stack: list[int] = field(default_factory=list)

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.iteration))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def add(self, counter: str, n: int) -> None:
        key = (self.iteration, counter)
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, fn, target: Target):
        tracer = self

        def traced(*args, **kwargs):
            layer = target.layer if isinstance(target.layer, str) else target.layer(args, kwargs)
            idx = tracer.begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if target.count is not None:
                try:
                    increments = target.count(args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError):
                    tracer.count_errors.update(target.counters)
                else:
                    for counter, n in increments.items():
                        tracer.add(counter, n)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for t in TARGETS:
            try:
                module = importlib.import_module(t.module)
            except ImportError:
                self.missing.add(t.name)
                continue
            fn = getattr(module, t.attr, None)
            if not callable(fn):
                self.missing.add(t.name)
                continue
            setattr(module, t.attr, self._wrap(fn, t))
            self.installed.append((module, t.attr, fn))

    def available(self) -> tuple[set[str], set[str]]:
        """Span names and counters that some wrapped target can feed."""
        found = [t for t in TARGETS if t.name not in self.missing]
        layers = {name for t in found for name in t.layers()}
        counters = {c for t in found for c in t.counters} - self.count_errors
        return layers, counters

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self.installed):
            setattr(module, attr, fn)
        self.installed.clear()

    @contextmanager
    def iteration_span(self, iteration: int):
        """Record the driver's root span around one iteration."""
        self.iteration = iteration
        idx = self.begin(ROOT)
        try:
            yield
        finally:
            self.end(idx)
            self.iteration = -1


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reached = 0.0, s.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reached), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reached = hi
        out.append((s.end - s.start) - covered)
    return out


def layer_times(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Per iteration: summed self time per span name, in `<name>_s` keys,
    plus `cli.main_s`, the inclusive time of the CLI entry point."""
    selfs = self_times(spans)
    out: dict[int, dict[str, float]] = {}
    for s, own in zip(spans, selfs):
        per = out.setdefault(s.iteration, {})
        if s.name == "cli.main":
            key = "cli.self_s"
        elif s.name == ROOT:
            key = "driver.self_s"
        else:
            key = f"{s.name}_s"
        per[key] = per.get(key, 0.0) + own
        if s.name == "cli.main":
            per["cli.main_s"] = per.get("cli.main_s", 0.0) + (s.end - s.start)
        if s.name == ROOT:
            per["driver.wall_s"] = per.get("driver.wall_s", 0.0) + (s.end - s.start)
    return out


def spans_to_records(spans: list[Span]) -> list[dict]:
    return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "iteration": s.iteration} for s in spans]
