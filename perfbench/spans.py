"""Per-layer spans, recorded by wrapping oblot's public functions from outside.

Nothing under ``src/`` knows about tracing.  :func:`traced` replaces every
public function of the layer modules, on its own module and under every name
another ``oblot`` module imported it as (``oblot.moves.canonical_form`` is the
same wrapper as ``oblot.canonical.canonical_form``), and puts the originals
back when the block ends.  A span is (name, start, end, parent, instance);
spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import pathlib
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("canonical", "moves", "hypergraph", "problems", "solver", "simulate", "cli")

CACHE_WRITE = "cli.cache_write"

_MARK = "__perfbench_wrapper__"


class Tracer:
    """Spans of one traced pass, in call order, in parallel arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.instances = array("l")
        self.counts = array("d")
        self.instance = -1
        self.encodings: set[bytes] = set()
        self.build_keys: set[tuple] = set()
        self.cache_dirs: set[Path] = set()
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.instances.append(self.instance)
        self.counts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.starts)

    def span_name(self, i: int) -> str:
        return self.names[self.name_ids[i]]


def self_times(parents, durations) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Spans come from synchronous calls on one thread, so a span's children lie
    inside it and never overlap each other.
    """
    out = list(durations)
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= durations[i]
    return out


def _scheduler_arg(args, kwargs) -> str:
    return args[2] if len(args) > 2 else kwargs.get("scheduler", "fsync")


def _observe_encoding(t: Tracer, args, kwargs, result) -> float:
    t.encodings.add(result.encoding)
    return 0.0


def _observe_build(t: Tracer, args, kwargs, result) -> float:
    k = args[1] if len(args) > 1 else kwargs["k"]
    t.build_keys.add((args[0], k, _scheduler_arg(args, kwargs)))
    return float(len(result.hyperarcs))


def _observe_len(t: Tracer, args, kwargs, result) -> float:
    return float(len(result))


def _observe_forms(t: Tracer, args, kwargs, result) -> float:
    return float(len(result.forms))


def _observe_levels(t: Tracer, args, kwargs, result) -> float:
    return float(max((e.distance for e in result.values()), default=0))


def _observe_rounds(t: Tracer, args, kwargs, result) -> float:
    return float(len(result.rounds))


# What each span counts, beside its time: the size of the work it returned.
OBSERVERS = {
    "canonical.canonical_form": _observe_encoding,
    "moves.enumerate_moves": _observe_len,
    "moves.raw_fsync_outcomes": _observe_len,
    "moves.raw_ssync_outcomes": _observe_len,
    "moves.fsync_outcomes": _observe_forms,
    "moves.ssync_outcomes": _observe_forms,
    "hypergraph.build": _observe_build,
    "problems.resolve_final_set": _observe_len,
    "solver.plan": _observe_levels,
    "simulate.run_fsync": _observe_rounds,
}


def _wrap(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)
    observe = OBSERVERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if observe is not None:
            tracer.counts[i] = observe(tracer, args, kwargs, result)
        return result

    setattr(wrapper, _MARK, True)
    return wrapper


def _wrap_write_text(tracer: Tracer, fn):
    """Span the CLI's cache-file writes; other writes stay in their caller."""
    nid = tracer.name_id(CACHE_WRITE)

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        if self.parent not in tracer.cache_dirs:
            return fn(self, *args, **kwargs)
        i = tracer.open(nid)
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.close(i)

    setattr(wrapper, _MARK, True)
    return wrapper


def _oblot_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "oblot" or name.startswith("oblot."))]


@contextmanager
def traced(tracer: Tracer):
    """Record spans into ``tracer`` for the duration of the block."""
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"oblot.{layer}")
        for attr, fn in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            wrappers[fn] = _wrap(tracer, f"{layer}.{attr}", fn)
    patches = []
    for mod in _oblot_modules():
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                patches.append((mod, attr, value))
                setattr(mod, attr, wrappers[value])
    original_write = pathlib.Path.write_text
    pathlib.Path.write_text = _wrap_write_text(tracer, original_write)
    try:
        yield tracer
    finally:
        pathlib.Path.write_text = original_write
        for mod, attr, value in reversed(patches):
            setattr(mod, attr, value)


def leftover_wrappers() -> list[str]:
    """Names still bound to a tracing wrapper; empty outside :func:`traced`."""
    found = [f"{mod.__name__}.{attr}" for mod in _oblot_modules()
             for attr, value in vars(mod).items() if getattr(value, _MARK, False)]
    if getattr(pathlib.Path.write_text, _MARK, False):
        found.append("pathlib.Path.write_text")
    return found


def _by_name(tracer: Tracer) -> dict[str, list[float]]:
    """Per span name: [calls, self seconds, summed count]."""
    durations = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    selfs = self_times(tracer.parents, durations)
    out: dict[str, list[float]] = {}
    for i, s in enumerate(selfs):
        row = out.setdefault(tracer.span_name(i), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s
        row[2] += tracer.counts[i]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass, keyed by metric name."""
    rows = _by_name(tracer)

    def calls(*names: str) -> float:
        return float(sum(rows[n][0] for n in names if n in rows))

    def self_s(*names: str) -> float:
        return float(sum(rows[n][1] for n in names if n in rows))

    def count(*names: str) -> float:
        return float(sum(rows[n][2] for n in names if n in rows))

    outcomes = ("moves.fsync_outcomes", "moves.ssync_outcomes")
    # Raw placements behind the Δ sets: raw spans directly under an outcomes span.
    raw_under_outcomes = sum(
        tracer.counts[i] for i, p in enumerate(tracer.parents)
        if p >= 0 and tracer.span_name(p) in outcomes
    )
    m = {
        "canonical.canonical_form.calls": calls("canonical.canonical_form"),
        "canonical.canonical_form.self_s": self_s("canonical.canonical_form"),
        "canonical.automorphism_orbits.calls": calls("canonical.automorphism_orbits"),
        "canonical.automorphism_orbits.self_s": self_s("canonical.automorphism_orbits"),
        "canonical.new_class_ratio": _ratio(len(tracer.encodings), calls("canonical.canonical_form")),
        "moves.enumerate_moves.calls": calls("moves.enumerate_moves"),
        "moves.enumerate_moves.self_s": self_s("moves.enumerate_moves"),
        "moves.moves": count("moves.enumerate_moves"),
        "moves.outcomes.calls": calls(*outcomes),
        "moves.outcomes.self_s": self_s(*outcomes),
        "moves.raw_outcomes": count("moves.raw_fsync_outcomes", "moves.raw_ssync_outcomes"),
        "moves.class_per_raw_ratio": _ratio(count(*outcomes), raw_under_outcomes),
        "hypergraph.enumerate_configurations.self_s": self_s("hypergraph.enumerate_configurations"),
        "hypergraph.build.calls": calls("hypergraph.build"),
        "hypergraph.build.self_s": self_s("hypergraph.build"),
        "hypergraph.hyperarcs": count("hypergraph.build"),
        "hypergraph.builds_per_instance": _ratio(calls("hypergraph.build"), len(tracer.build_keys)),
        "hypergraph.loads.calls": calls("hypergraph.loads"),
        "hypergraph.loads.self_s": self_s("hypergraph.loads"),
        "hypergraph.export.self_s": self_s("hypergraph.export"),
        "problems.resolve_final_set.calls": calls("problems.resolve_final_set"),
        "problems.resolve_final_set.self_s": self_s("problems.resolve_final_set"),
        "problems.final_classes": count("problems.resolve_final_set"),
        "solver.solve.calls": calls("solver.solve"),
        "solver.solve.self_s": self_s("solver.solve"),
        "solver.plan.calls": calls("solver.plan"),
        "solver.plan.self_s": self_s("solver.plan"),
        "solver.plan.levels": count("solver.plan"),
        "simulate.run_fsync.calls": calls("simulate.run_fsync"),
        "simulate.run_fsync.self_s": self_s("simulate.run_fsync"),
        "simulate.rounds": count("simulate.run_fsync"),
        "simulate.enumerate_adversary_plays.calls": calls("simulate.enumerate_adversary_plays"),
        "simulate.enumerate_adversary_plays.self_s": self_s("simulate.enumerate_adversary_plays"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.cache_write_s": self_s(CACHE_WRITE),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(sum(row[1] for name, row in rows.items()
                                         if name.split(".", 1)[0] == layer))
    return m


def write_spans(path: Path, tracers: list[Tracer], instance_labels: list[str]) -> None:
    """One gzipped JSON line per span: [pass, name, start, end, parent, instance]."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as out:
        out.write(json.dumps({"instances": instance_labels}) + "\n")
        for n, t in enumerate(tracers):
            for i in range(len(t)):
                out.write(json.dumps([n, t.span_name(i), t.starts[i], t.ends[i],
                                      t.parents[i], t.instances[i]]) + "\n")
