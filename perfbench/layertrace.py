"""Outside-in tracing of the `markov_id` layers, for the benchmark's traced run.

The program is not edited. Instead, `Tracer.install()` replaces each public
function of the timed layers with a wrapper that records a span, under every
module attribute (and module-level registry entry, such as
`markov_id.testing.TESTERS`) through which callers reach it, and
`uninstall()` puts the originals back. Spans stay in memory; the runner
aggregates them per op when the traced run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

# Layers on the op path, in pipeline order. `paths` (brute-force oracles),
# `generate` (benchmark inputs) and `errors` (no work) are not timed.
LAYERS = ("cli", "markov_core", "embedding", "contrast", "sampling", "testing")

# Methods traced besides the layers' module-level public functions.
METHODS = (
    ("markov_core", "EdgeSet", "from_pairs"),
    ("markov_core", "EdgeSet", "mask"),
    ("markov_core", "TransitionMatrix", "from_dense"),
)

# The cli layer only parses and emits; its root span is `main`.
CLI_FUNCTIONS = ("main", "build_parser", "_emit")
ROOT = "cli.main"


def _risk_counts(report) -> dict:
    chains = 1 + len(report.type2_by_alternative)
    rejected = report.type1 * report.trials + sum(
        (1.0 - t2) * report.trials for t2 in report.type2_by_alternative
    )
    return {"testing.trials": chains * report.trials, "testing.rejections": round(rejected)}


# Counters taken from a traced call's result, keyed by span name; dense
# matrix bytes are 8 * Delta^2 per embedded matrix.
COUNTERS = {
    "embedding.embed_matrix": lambda m: {"embedding.embed_matrix.bytes": 8 * m.state_count**2},
    "sampling.simulate": lambda t: {"sampling.simulate.steps": len(t)},
    "sampling.embed_trajectory": lambda t: {"sampling.embed_trajectory.steps": len(t)},
    "testing.estimate_risk": _risk_counts,
}


def _targets() -> dict[str, object]:
    """Span name -> original function, for every traced module-level function."""
    out = {}
    for layer in LAYERS:
        module = importlib.import_module(f"markov_id.{layer}")
        if layer == "cli":
            names = CLI_FUNCTIONS
        else:
            names = [
                n for n, obj in vars(module).items()
                if not n.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ]
        for n in names:
            out[f"{layer}.{n}"] = getattr(module, n)
    return out


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at the root
    op: int
    nested: bool  # a span of the same name is already open around this one
    counters: dict | None = None


class Tracer:
    """Records spans of the wrapped layer functions while `op` is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.errors = 0
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            stack = self._stack
            parent = stack[-1] if stack else None
            nested = any(self.spans[i].name == name for i in stack)
            index = len(self.spans)
            span = Span(name, clock(), 0.0, parent, self.op, nested)
            self.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors += 1
                raise
            finally:
                span.end = clock()
                stack.pop()
            if counter is not None:
                span.counters = counter(result)
            return result

        return traced

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._patched.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patched.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def install(self) -> None:
        """Wrap every traced function at every place callers look it up."""
        targets = _targets()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in targets.items()}
        modules = [m for name, m in sys.modules.items()
                   if name == "markov_id" or name.startswith("markov_id.")]
        for module in modules:
            for key, value in list(vars(module).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._set(module, key, wrappers[id(value)])
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if inspect.isfunction(v) and id(v) in wrappers:
                            self._set(value, k, wrappers[id(v)])
        for layer, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"markov_id.{layer}"), cls_name)
            raw = vars(cls)[attr]
            name = f"{layer}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._set(cls, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched.clear()


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds over an untraced one, measured here."""
    def noop():
        return None

    probe = Tracer()
    wrapped = probe._wrap("calibration", noop)
    probe.op = -1
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        wrapped()
    t1 = clock()
    for _ in range(calls):
        noop()
    t2 = clock()
    return max((t1 - t0) - (t2 - t1), 0.0) / calls


def op_profile(spans: list[Span], wall: float) -> dict:
    """Per-op aggregates: inclusive time and calls per span name, self time
    per layer, summed counters, and the share of `wall` that spans below the
    root cover."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s = {layer: 0.0 for layer in LAYERS}
    counters: dict[str, float] = {}
    root_self = 0.0
    root_wall = 0.0
    for span, children in zip(spans, child_time):
        duration = span.end - span.start
        calls[span.name] = calls.get(span.name, 0) + 1
        if not span.nested:
            inclusive[span.name] = inclusive.get(span.name, 0.0) + duration
        self_s[span.name.split(".", 1)[0]] += duration - children
        if span.parent is None:
            root_wall += duration
            if span.name == ROOT:
                root_self += duration - children
        for key, value in (span.counters or {}).items():
            counters[key] = counters.get(key, 0) + value
    # Time in the root's own frame, or outside any span, is not attributed
    # to a named function.
    uncovered = root_self + max(wall - root_wall, 0.0)
    return {
        "wall_s": wall,
        "inclusive_s": inclusive,
        "calls": calls,
        "self_s": self_s,
        "counters": counters,
        "coverage": 1.0 - uncovered / wall if wall > 0 else 0.0,
        "spans": len(spans),
    }
