"""Spans recorded around calls into each layer, from outside the program.

``instrument`` replaces each layer's public entry points at the sites that
import them with wrappers that record a span, and puts the originals back on
exit.  Nothing in ``src/`` changes.  Estimator ``population`` calls are far
too many to keep one span each, so each parent span keeps one roll-up span
per leaf name that sums their durations and counts the calls.

A span's self time is its duration minus the durations of its direct
children; summed over one query's spans it equals the query's root span.
"""
from __future__ import annotations

import functools
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    qid: int | None
    dur: float = 0.0   # end - start for a call; the summed durations for a roll-up
    count: int = 1     # calls covered (above 1 only for roll-ups)


class Tracer:
    """Spans in memory, with the query id of whatever query is running."""

    def __init__(self):
        self.spans: list[Span] = []
        self.qid: int | None = None
        self.max_tick: dict[int, int] = {}   # qid -> furthest tick derived past t_l
        self.captured: dict[str, list] = {}
        self._stack: list[int] = []
        self._rollups: dict[tuple[int | None, str], Span] = {}
        self._in_leaf = False
        self._next_qid = 0

    def next_qid(self) -> int:
        """Start a new query: later spans belong to it until ``qid`` is reset."""
        self.qid = self._next_qid
        self._next_qid += 1
        return self.qid

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.qid)
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            self._stack.pop()
            s.end = time.perf_counter()
            s.dur = s.end - s.start

    def add_leaf(self, name: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else None
        r = self._rollups.get((parent, name))
        if r is None:
            r = Span(len(self.spans), name, start, end, parent, self.qid, 0.0, 0)
            self.spans.append(r)
            self._rollups[(parent, name)] = r
        r.end = end
        r.dur += end - start
        r.count += 1

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name + ("[tracemalloc]" if tracemalloc.is_tracing() else "")
            with self.span(label):
                return fn(*args, **kwargs)

        return traced

    def wrap_population(self, fn):
        """Leaf wrapper for ``Estimator.population``; nested calls pass through."""

        @functools.wraps(fn)
        def traced(est, v, tick):
            if self._in_leaf:
                return fn(est, v, tick)
            self._in_leaf = True
            t0 = time.perf_counter()
            try:
                return fn(est, v, tick)
            finally:
                self.add_leaf("estimators.population", t0, time.perf_counter())
                self._in_leaf = False
                if self.qid is not None:
                    k = int(tick) - int(est.tick0)
                    if k > self.max_tick.get(self.qid, 0):
                        self.max_tick[self.qid] = k

        return traced

    def capture(self, fn, key: str):
        """Keep every return value of ``fn`` (for counts taken after the builds)."""

        @functools.wraps(fn)
        def kept(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.captured.setdefault(key, []).append(out)
            return out

        return kept

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    child: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0.0) + s.dur
    return {s.id: s.dur - child.get(s.id, 0.0) for s in spans}


# (owner module path, attribute, span name): the import sites wrapped.
SITES = (
    ("repro.experiments.world", "build_synthetic_world", "world.build_synthetic_world"),
    ("repro.experiments.world", "build_mall_world", "world.build_mall_world"),
    ("repro.experiments.world", "synthetic_space", "space.synthetic_space"),
    ("repro.experiments.world", "simulate", "sim.simulate"),
    ("repro.experiments.world", "install_snapshot", "sim.install_snapshot"),
    ("repro.experiments.world", "generate_instances", "space.generate_instances"),
    ("repro.space.mall", "mall_space", "space.mall_space"),
    ("repro.space.mall", "simulate_trajectories", "space.simulate_trajectories"),
    ("repro.dataflow.trajectory_flows", "count_door_flows", "trajectory_flows.count_door_flows"),
    ("repro.dataflow.trajectory_flows", "fit_edge_lambdas", "trajectory_flows.fit_edge_lambdas"),
    ("repro.experiments.harness", "run_query", "harness.run_query"),
    ("repro.experiments.harness", "gold_result", "harness.gold_result"),
    ("repro.experiments.harness", "measure_query", "harness.measure_query"),
    ("repro.experiments.harness", "search", "search.search"),
    ("repro.experiments.harness", "gtg_search", "gtg.gtg_search"),
    ("repro.experiments.harness", "adaptive_search", "adaptive.adaptive_search"),
    ("repro.gtg.search", "build_gtg", "gtg.build_gtg"),
    ("repro.core.adaptive", "search", "search.search"),
)
ESTIMATORS = ("GlobalEstimator", "LocalEstimator", "PPEstimator", "NTEstimator")


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every site in ``SITES`` and the estimators' ``population``; undo on exit.

    Spark jobs inside this block must not ship a wrapped function to the
    executors, which cannot import the wrappers; the counting job ships only
    its own closure over ``resolve_pairs``, which is not wrapped.
    """
    import importlib

    from repro.core import estimators

    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    try:
        for mod_name, attr, name in SITES:
            mod = importlib.import_module(mod_name)
            fn = tracer.wrap(getattr(mod, attr), name)
            if attr == "simulate_trajectories":
                fn = tracer.capture(fn, "trajectories")
            patch(mod, attr, fn)
        for cls_name in ESTIMATORS:
            cls = getattr(estimators, cls_name)
            patch(cls, "population", tracer.wrap_population(cls.population))
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
