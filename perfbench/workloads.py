"""The benchmark's two workloads.

Both are closed loops with one caller: the next query (or ``run_batch``)
starts only after the previous one returned.  A run builds several fixed
worlds, each with a fixed set of query instances (the accuracy set) and a
few more that the workload seed draws, and pools their queries.  The
program only ever sees the generated inputs.

* ``synthetic_serial`` — Table-2 default synthetic worlds; all 12 variants
  through ``harness.run_query`` in the driver, then the table pass through
  ``harness.measure_query`` in the driver.  World build is cheap, so query
  time is nearly all estimators, search, GTG and -A.  No Spark.
* ``mall_pipeline`` — the Table-4 job path: ``build_mall_world`` over the
  full 977-partition mall with Spark door-flow counting, the 12 variants in
  the driver, then the table pass through ``run_batch`` +
  ``aggregate_table`` in a ``local[nproc]`` session.

Query and world-build times are corrected for the machine's speed (``speed.py``).
"""
from __future__ import annotations

import contextlib
import pickle
import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from perfbench import layers
from perfbench.metrics import (
    GROUPS,
    Tally,
    accuracy,
    check_variants,
    latency_summary,
    same_measure,
)
from perfbench.speed import Timer
from perfbench.trace import Tracer, instrument

QTS = ("FPQ", "LCPQ")


@dataclass(frozen=True)
class Scale:
    worlds: int               # worlds built per run; setup_s is the median build
    instances: int            # fixed query instances per world (the accuracy set)
    drawn: int                # query instances per world drawn from the workload seed
    table: int                # fixed instances of the first world in the table pass
    floors: int = 5
    s2t: float = 1300.0
    mall: dict | None = None  # build_mall_world sizes (Spark counting); None: synthetic world


# 200 objects (the test suite's mini-mall) cost ~100 s per Spark build on
# 4 cores, which would not leave room for several builds in one run.
MALL = dict(horizon_ticks=420, n_objects=30, session_ticks=60)

SCALES = {
    "synthetic_serial": Scale(worlds=5, instances=9, drawn=1, table=2),
    "mall_pipeline": Scale(worlds=3, instances=17, drawn=1, table=4, mall=MALL),
}

# One-floor / few-object worlds for the smoke tests: every code path, a few seconds each.
TINY = {
    "synthetic_serial": Scale(worlds=2, instances=1, drawn=1, table=1, floors=1, s2t=600.0),
    "mall_pipeline": Scale(
        worlds=1, instances=2, drawn=1, table=2, mall=dict(horizon_ticks=420, n_objects=8, session_ticks=30)
    ),
}


# Fixes every world (space, sim, trajectories, accuracy set); the first draw, not a chosen one.
WORLD_SEED = 0


def derive_seeds(seed: int, n: int) -> list[dict[str, int]]:
    """Space, sim, query, trajectory and drawn-query seeds of ``n`` worlds.

    The worlds and their fixed instances come from ``WORLD_SEED``; the
    workload seed draws only the extra instances (``drawn_seed``).
    """
    def draw(s: int) -> list[np.ndarray]:
        return [child.generate_state(5) for child in np.random.SeedSequence(s).spawn(n)]

    worlds, drawn = draw(WORLD_SEED), draw(seed)
    return [
        {
            "space_seed": int(w[0]),
            "sim_seed": int(w[1]),
            "query_seed": int(w[2]),
            "traj_seed": int(w[3]),
            "drawn_seed": int(d[4]),
        }
        for w, d in zip(worlds, drawn)
    ]


@dataclass
class Query:
    world: int
    instance: int
    qt: str
    alg: str
    cycle: int
    ms: float           # at reference speed (speed.py)
    raw_ms: float       # as timed
    result: object      # PathResult, None (no path), or the exception raised
    qid: int


@dataclass
class Outcome:
    """What one run measured: end-to-end metrics, per-layer metrics, details."""

    metrics: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    tally: Tally = field(default_factory=Tally)
    checks: dict[str, bool] = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.tally.failed == 0 and all(self.checks.values())


def build_world(scale: Scale, seeds: dict[str, int], spark=None):
    from repro.experiments import world as world_mod
    from repro.experiments.params import Settings

    settings = Settings(
        floors=scale.floors,
        s2t=scale.s2t,
        n_instances=scale.instances,
        space_seed=seeds["space_seed"],
        sim_seed=seeds["sim_seed"],
        query_seed=seeds["query_seed"],
    )
    if scale.mall is None:
        return world_mod.build_synthetic_world(settings)
    return world_mod.build_mall_world(
        settings, spark, traj_seed=seeds["traj_seed"], **scale.mall
    )


def timed_builds(scale: Scale, seed_list, timer: Timer, spark=None):
    """Build one world per seed set, each under its own Spark job group.

    Returns the worlds and each build's corrected and raw seconds.
    """
    worlds, secs, raw = [], [], []
    for i, seeds in enumerate(seed_list):
        if spark is not None:
            spark.sparkContext.setJobGroup(f"build-{i}", "world build")
        w, r, s = timer(build_world, scale, seeds, spark)
        worlds.append(w)
        secs.append(s)
        raw.append(r)
    return worlds, secs, raw


def with_drawn(worlds, scale: Scale, seed_list):
    """Each world with its seed-drawn instances after its fixed ones."""
    from repro.experiments.world import World
    from repro.space.queries import generate_instances

    return [
        World(w.settings, w.bs, w.gold_pop,
              w.instances + generate_instances(w.bs, n=scale.drawn, s2t=scale.s2t, seed=s["drawn_seed"]))
        for w, s in zip(worlds, seed_list)
    ]


def all_jobs(worlds) -> list[tuple[int, int]]:
    return [(w, k) for w, world in enumerate(worlds) for k in range(len(world.instances))]


def golds_for(worlds) -> dict[tuple[int, int, str], object]:
    from repro.experiments import harness

    return {
        (w, k, qt): harness.gold_result(worlds[w].model, worlds[w].gold_pop, worlds[w].instances[k], qt)
        for w, k in all_jobs(worlds)
        for qt in QTS
    }


def _attempt(world, k: int, qt: str, alg: str):
    from repro.experiments import harness

    try:
        return harness.run_query(world.model, world.gold_pop, world.instances[k], qt, alg)
    except Exception as e:  # counted as a failed query
        return e


def run_queries(worlds, jobs, timer: Timer, *, seconds: float = 0.0, tracer: Tracer | None = None) -> list[Query]:
    """The 12 queries of each (world, instance) job, in whole passes until ``seconds`` passed.

    Only whole passes, so every run weighs each world and instance the same.
    """
    from repro.experiments.harness import ALGORITHMS

    out: list[Query] = []
    spent = 0.0
    i = 0
    while i % len(jobs) or not i or spent < seconds:
        w, k = jobs[i % len(jobs)]
        for qt in QTS:
            for alg in ALGORITHMS:
                qid = tracer.next_qid() if tracer is not None else -1
                r, raw, s = timer(_attempt, worlds[w], k, qt, alg)
                out.append(Query(w, k, qt, alg, i // len(jobs), s * 1e3, raw * 1e3, r, qid))
                spent += s
        i += 1
    if tracer is not None:
        tracer.qid = None
    return out


def paired_passes(worlds, timer: Timer, tracer: Tracer) -> tuple[list[Query], list[Query]]:
    """Each job untraced and traced, so their difference is the tracing overhead.

    The order alternates by job: whichever pass runs second finds the same
    query's data warm in the CPU caches.
    """
    plain: list[Query] = []
    traced: list[Query] = []
    for n, job in enumerate(all_jobs(worlds)):
        for with_trace in ((False, True) if n % 2 == 0 else (True, False)):
            if with_trace:
                with instrument(tracer):
                    traced += run_queries(worlds, [job], timer, tracer=tracer)
            else:
                plain += run_queries(worlds, [job], timer)
    return plain, traced


def score(worlds, queries: list[Query], golds, tally: Tally) -> dict[tuple, tuple[bool, float]]:
    """Count failures of every query; (hit, γ) per (world, instance, qt, alg) from the first cycle."""
    crossings = [
        set(zip(w.model.e_src.tolist(), w.model.e_dst.tolist(), w.model.e_door.tolist())) for w in worlds
    ]
    by_case: dict[tuple[int, int, int, str], dict[str, Query]] = {}
    for q in queries:
        by_case.setdefault((q.cycle, q.world, q.instance, q.qt), {})[q.alg] = q
    acc = {}
    for (cycle, w, k, qt), qs in by_case.items():
        gold = golds[(w, k, qt)]
        reasons = check_variants({alg: q.result for alg, q in qs.items()}, qt, crossings[w])
        for alg, q in qs.items():
            tally.add(reasons[alg] or (None if gold is not None else "no_gold"))
            if cycle == 0:
                acc[(w, k, qt, alg)] = accuracy(q.result, gold, qt)
    return acc


def accuracy_metrics(acc, n_fixed: list[int]) -> dict[str, float]:
    """Hit rate and mean γ over the fixed instances, so they repeat exactly from run to run."""
    fixed = [v for (w, k, _, _), v in acc.items() if k < n_fixed[w]]
    hits = [h for h, _ in fixed]
    errs = [e for _, e in fixed if not np.isnan(e)]
    if not errs:
        raise RuntimeError("no query of the accuracy set returned a path")
    return {"hit_rate_pct": 100.0 * float(np.mean(hits)), "rel_err_mean": float(np.mean(errs))}


def latency_metrics(queries: list[Query], detail: dict) -> dict[str, float]:
    out = {}
    for group, algs in GROUPS.items():
        qs = [q for q in queries if q.alg in algs]
        summary = latency_summary([q.ms for q in qs])
        detail[f"{group}_query_ms"] = summary
        detail[f"{group}_query_ms_raw"] = latency_summary([q.raw_ms for q in qs])
        out[f"{group}_query_ms_p50"] = summary["p50"]
        out[f"{group}_query_ms_p90"] = summary["tail"]
    return out


def table_pass(world, scale: Scale, golds, acc, o: Outcome, spark=None) -> tuple[pd.DataFrame, float]:
    """The paper's table columns for the first ``scale.table`` fixed instances of the first world.

    One row per (instance, qt, alg): time, tracemalloc peak, hit and γ.  On
    Spark through ``run_batch`` + ``aggregate_table`` (the Table-4 job path),
    otherwise through ``harness.measure_query`` in the driver.  Every row
    must equal the driver's run of the same query in hit and γ.  Returns the
    rows and the pass's wall time as timed.
    """
    from repro.experiments.world import World

    sub = World(world.settings, world.bs, world.gold_pop, world.instances[: scale.table])
    if spark is None:
        t0 = time.perf_counter()
        rows = _serial_rows(sub, golds)
        wall = time.perf_counter() - t0
    else:
        from repro.dataflow import batch

        # Warm the Python workers (one task per core) before anything is timed.
        cores = spark.sparkContext.defaultParallelism
        warm = World(sub.settings, sub.bs, sub.gold_pop, sub.instances[:1] * cores)
        batch.run_batch(spark, warm, qts=("FPQ",), algs=("-NT",)).toPandas()
        spark.sparkContext.setJobGroup("batch", "run_batch")
        t0 = time.perf_counter()
        measures = batch.run_batch(spark, sub).persist()
        rows = measures.toPandas()
        agg = batch.aggregate_table(measures).toPandas()
        wall = time.perf_counter() - t0
        measures.unpersist()
        o.checks["aggregate_table_matches_rows"] = layers.aggregate_matches(rows, agg)
        o.detail["broadcast_mb"] = len(pickle.dumps(sub, protocol=pickle.HIGHEST_PROTOCOL)) / 1e6
    _check_rows(rows, acc, o.tally)
    return rows, wall


def _serial_rows(sub, golds) -> pd.DataFrame:
    from dataclasses import asdict

    from repro.experiments import harness
    from repro.experiments.harness import ALGORITHMS

    return pd.DataFrame(
        [
            asdict(harness.measure_query(sub.model, sub.gold_pop, inst, k, qt, alg, gold=golds[(0, k, qt)]))
            for k, inst in enumerate(sub.instances)
            for qt in QTS
            for alg in ALGORITHMS
        ]
    )


def _check_rows(rows: pd.DataFrame, acc, tally: Tally) -> None:
    for row in rows.itertuples(index=False):
        got = (bool(row.hit), float(row.rel_err))
        if np.isnan(got[1]):
            tally.add("no_path")
        elif not same_measure(got, acc[(0, int(row.instance), row.qt, row.alg)]):
            tally.add("differs_from_serial")
        else:
            tally.add(None)


def run(name: str, seed: int, seconds: float, trace: bool, spark=None, scale: Scale | None = None) -> Outcome:
    """Build the worlds, query them in the driver, then run the table pass."""
    scale = scale or SCALES[name]
    seed_list = derive_seeds(seed, scale.worlds)
    o = Outcome(detail={"seeds": seed_list, "scale": scale.__dict__})
    if spark is not None:  # warm the session on a tiny build of the same path
        build_world(TINY["mall_pipeline"], seed_list[0], spark)
    tracer = Tracer() if trace else None
    timer = Timer()
    with instrument(tracer) if trace else contextlib.nullcontext():
        built, secs, raw_secs = timed_builds(scale, seed_list, timer, spark)
        worlds = with_drawn(built, scale, seed_list)
        golds = golds_for(worlds)
    n_fixed = [len(w.instances) for w in built]
    if trace:
        plain, traced = paired_passes(worlds, timer, tracer)
        acc = score(worlds, plain, golds, o.tally)
        score(worlds, traced, golds, o.tally)
    else:
        plain = run_queries(worlds, all_jobs(worlds), timer, seconds=seconds)
        acc = score(worlds, plain, golds, o.tally)
    with instrument(tracer) if trace else contextlib.nullcontext():
        rows, table_s = table_pass(worlds[0], scale, golds, acc, o, spark)
    if spark is not None:  # see speed.py
        secs = [timer.at_run_speed(r) for r in raw_secs]
    o.detail.update(
        setup_s_all=secs,
        setup_raw_s_all=raw_secs,
        fixed_instances=n_fixed,
        queries=len(plain),
        table_rows=len(rows),
        table_raw_s=table_s,
    )
    if trace:
        o.layer = layers.from_trace(tracer, worlds, traced, plain, o.checks, o.detail)
        if spark is not None:
            o.layer.update(layers.counting_stages(spark, tracer, o.detail))
            o.layer.update(layers.batch_stages(spark, "batch", rows, table_s, plain, o.detail))
            o.layer["batch.broadcast_mb"] = o.detail["broadcast_mb"]
        o.spans = tracer.dump()
    else:
        query_s = sum(q.ms for q in plain) / 1e3
        o.metrics = {
            "setup_s": float(np.median(secs)),
            **latency_metrics(plain, o.detail),
            "queries_per_s": len(plain) / query_s,
            "query_mem_kb_mean": float(rows["mem_kb"].mean()),
            **accuracy_metrics(acc, n_fixed),
        }
        o.detail["query_phase_raw_s"] = sum(q.raw_ms for q in plain) / 1e3
    return o
