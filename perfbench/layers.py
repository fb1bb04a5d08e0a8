"""Per-layer metrics of a traced run, computed from its spans.

Per-query metrics are medians per (qt, alg), averaged over the variants
that exercise the layer.  A layer a workload does not run reads 0.
"""
from __future__ import annotations

import inspect
from collections import defaultdict

import numpy as np

from perfbench.metrics import mean_of_group_medians
from perfbench.spark_env import group_task_seconds, stage_metrics
from perfbench.trace import Tracer, self_times

# Which variants each per-query layer metric is averaged over.
_APPLIES = {
    "estimators.population_calls": ("", "-G", "-PP", "-NT", "-GTG"),
    "estimators.self_ms": ("", "-G", "-PP", "-NT", "-GTG"),
    "estimators.ticks_derived": ("", "-G", "-PP", "-NT", "-GTG"),
    "search.self_ms": ("", "-G", "-PP", "-NT", "-A"),
    "gtg.build_gtg_ms": ("-GTG",),
    "gtg.search_self_ms": ("-GTG",),
    "adaptive.replans": ("-A",),
}
_BUILDS = ("world.build_synthetic_world", "world.build_mall_world")
_SETUP = {
    "space.synthetic_space_s": ("space.synthetic_space",),
    "space.mall_space_s": ("space.mall_space",),
    "space.simulate_trajectories_s": ("space.simulate_trajectories",),
    "space.generate_instances_s": ("space.generate_instances",),
    "sim.simulate_s": ("sim.simulate",),
    "trajectory_flows.count_s": (
        "trajectory_flows.count_door_flows",
        "trajectory_flows.fit_edge_lambdas",
    ),
}
# Spark stage metrics; 0 on a workload whose path has no such stage.
ZERO_STAGES = {
    f"{layer}.{m}": 0.0
    for layer in ("trajectory_flows", "batch")
    for m in ("tasks", "task_s_sum", "task_skew", "parallel_eff")
}


def per_query(tracer: Tracer) -> dict[int, dict[str, float]]:
    """Layer metrics per query id."""
    spans = tracer.spans
    st = self_times(spans)
    names = {s.id: s.name for s in spans}
    per: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        if s.qid is None:
            continue
        m = per[s.qid]
        if s.name == "estimators.population":
            m["estimators.population_calls"] += s.count
            m["estimators.self_ms"] += s.dur * 1e3
        elif s.name == "search.search":
            m["search.self_ms"] += st[s.id] * 1e3
            if names.get(s.parent) == "adaptive.adaptive_search":
                m["adaptive.replans"] += 1
        elif s.name == "gtg.build_gtg":
            m["gtg.build_gtg_ms"] += s.dur * 1e3
        elif s.name == "gtg.gtg_search":
            m["gtg.search_self_ms"] += st[s.id] * 1e3
    for qid, k in tracer.max_tick.items():
        per[qid]["estimators.ticks_derived"] = float(k)
    return per


# Slack allowed between a traced query's root span and the driver's timing of it.
ROOT_SLACK_S = 1e-3
ROOT_SLACK_SHARE = 0.05


def trace_faults(spans, queries) -> dict[str, int]:
    """Spans that break the trace's arithmetic, and queries whose root span disagrees.

    ``nesting``: spans that start before or end after their parent, or
    whose children add up to more than their duration (negative self time,
    as a roll-up counting a call twice would give).  ``root``: traced
    queries whose root span is missing, outlasts the driver's own timing
    of the call (``raw_ms``), or falls short of it by more than the slack.
    """
    by_id = {s.id: s for s in spans}
    st = self_times(spans)
    eps = 1e-9
    nesting = 0
    for s in spans:
        p = by_id.get(s.parent)
        if st[s.id] < -eps or (p is not None and (s.start < p.start - eps or s.end > p.end + eps)):
            nesting += 1
    roots = {s.qid: s.dur for s in spans if s.qid is not None and s.parent is None}
    root = 0
    for q in queries:
        timed = q.raw_ms / 1e3
        dur = roots.get(q.qid)
        if dur is None or dur > timed + eps or timed - dur > ROOT_SLACK_S + ROOT_SLACK_SHARE * timed:
            root += 1
    return {"nesting": nesting, "root": root}


def from_trace(tracer: Tracer, worlds, traced, plain, checks: dict, detail: dict) -> dict[str, float]:
    """Every per-layer metric that the query passes and the builds give."""
    from repro.gtg.graph import gtg_sizes

    per = per_query(tracer)
    out: dict[str, float] = {}
    table: dict[str, dict[str, float]] = {}
    for metric, algs in _APPLIES.items():
        groups: dict[tuple[str, str], list[float]] = defaultdict(list)
        for q in traced:
            if q.alg in algs:
                groups[(q.qt, q.alg)].append(per[q.qid].get(metric, 0.0))
        out[metric] = mean_of_group_medians(groups)
        table[metric] = {f"{qt}{alg}": float(np.median(v)) for (qt, alg), v in groups.items()}
    detail["per_variant_medians"] = table

    guard = adaptive_max_steps()
    out["adaptive.step_guard_hits"] = float(
        sum(
            1
            for q in traced
            if q.alg == "-A" and q.result is None and per[q.qid].get("adaptive.replans", 0) >= guard
        )
    )
    out["gtg.edges"] = float(np.median([gtg_sizes(w.model)[1] for w in worlds]))

    top = [s for s in tracer.spans if s.qid is None and s.parent is None]
    gold = [s.dur * 1e3 for s in top if s.name == "harness.gold_result"]
    mem = [s.dur * 1e3 for s in tracer.spans if s.name == "harness.run_query[tracemalloc]"]
    out["harness.gold_ms"] = float(np.median(gold)) if gold else 0.0
    out["harness.memory_pass_ms"] = float(np.median(mem)) if mem else 0.0
    out.update(setup_layers(tracer))

    traced_ms = np.median([s.dur * 1e3 for s in tracer.spans if s.qid is not None and s.parent is None])
    plain_ms = np.median([q.raw_ms for q in plain])
    out["trace.overhead_ms"] = float(traced_ms - plain_ms)
    out["trace.overhead_pct"] = float(100.0 * (traced_ms - plain_ms) / plain_ms)
    detail["trace_untraced_median_ms"] = float(plain_ms)
    detail["trace_traced_median_ms"] = float(traced_ms)
    faults = trace_faults(tracer.spans, traced)
    detail["trace_faults"] = faults
    checks["trace_spans_nest"] = faults["nesting"] == 0
    checks["trace_roots_match_driver"] = faults["root"] == 0

    # simulate_trajectories runs once per mall build, in world order
    trajs = tracer.captured.get("trajectories", [])
    counts = [trajectory_pairs(w.model, t.fixes) for w, t in zip(worlds, trajs)] or [(0, 0)]
    out["trajectory_flows.pairs"] = float(np.median([c[0] for c in counts]))
    out["trajectory_flows.distinct_gap_pairs"] = float(np.median([c[1] for c in counts]))
    out.update(ZERO_STAGES)
    out.update({"batch.wall_s": 0.0, "batch.wall_ms_inflation": 0.0, "batch.broadcast_mb": 0.0})
    return out


def setup_layers(tracer: Tracer) -> dict[str, float]:
    """Medians over the traced builds of each set-up layer's time."""
    spans = tracer.spans
    st = self_times(spans)
    parent = {s.id: s.parent for s in spans}

    def build_of(sid):
        while parent[sid] is not None:
            sid = parent[sid]
        return sid

    builds = [s for s in spans if s.name in _BUILDS and s.parent is None]
    sums: dict[int, dict[str, float]] = {b.id: defaultdict(float) for b in builds}
    for s in spans:
        b = build_of(s.id)
        if b in sums:
            for metric, names in _SETUP.items():
                if s.name in names:
                    sums[b][metric] += s.dur
    out = {m: float(np.median([sums[b.id][m] for b in builds])) if builds else 0.0 for m in _SETUP}
    mall = [st[b.id] for b in builds if b.name == "world.build_mall_world"]
    out["world.build_mall_world_self_s"] = float(np.median(mall)) if mall else 0.0
    return out


def trajectory_pairs(model, fixes) -> tuple[int, int]:
    """Consecutive-fix pairs that change partition, and distinct non-adjacent ones."""
    df = fixes.sort_values(["mac", "t"])
    v0 = df.groupby("mac")["partition"].shift(1)
    moved = v0.notna() & (v0 != df["partition"])
    a = v0[moved].astype(np.int64).to_numpy()
    b = df["partition"][moved].astype(np.int64).to_numpy()
    adjacent = set(zip(model.e_src.tolist(), model.e_dst.tolist()))
    gaps = {(x, y) for x, y in zip(a.tolist(), b.tolist()) if (x, y) not in adjacent}
    return len(a), len(gaps)


def counting_stages(spark, tracer: Tracer, detail: dict) -> dict[str, float]:
    """Stage metrics of each traced mall build's counting jobs, median over builds."""
    cores = spark.sparkContext.defaultParallelism
    builds = [s for s in tracer.spans if s.name == "world.build_mall_world" and s.parent is None]
    per_build = []
    for i, b in enumerate(builds):
        wall = sum(
            s.dur for s in tracer.spans
            if s.parent == b.id and s.name.startswith("trajectory_flows.")
        )
        per_build.append(stage_metrics(group_task_seconds(spark, f"build-{i}"), wall, cores))
    detail["counting_stages"] = per_build
    return {
        f"trajectory_flows.{k}": float(np.median([m[k] for m in per_build]))
        for k in ("tasks", "task_s_sum", "task_skew", "parallel_eff")
    }


def batch_stages(spark, group: str, rows, wall_s: float, plain, detail: dict) -> dict[str, float]:
    """Stage metrics of the ``run_batch`` run under ``group``, and its timing inflation.

    ``rows`` are its measurements of world 0; inflation is the median ratio
    of a row's ``wall_ms`` to the driver's time for the same query.
    """
    m = stage_metrics(group_task_seconds(spark, group), wall_s, spark.sparkContext.defaultParallelism)
    detail["batch_stages"] = m
    serial_ms = {(q.instance, q.qt, q.alg): q.raw_ms for q in plain if q.world == 0}
    ratios = [
        float(ms) / serial_ms[(int(k), qt, alg)]
        for k, qt, alg, ms in zip(rows["instance"], rows["qt"], rows["alg"], rows["wall_ms"])
    ]
    out = {f"batch.{k}": float(v) for k, v in m.items()}
    out["batch.wall_s"] = wall_s
    out["batch.wall_ms_inflation"] = float(np.median(ratios))
    return out


def aggregate_matches(rows, agg) -> bool:
    """``aggregate_table``'s output equals the same averages taken in pandas."""
    g = rows.groupby(["qt", "alg"])
    want = {
        "running_time_ms": g["wall_ms"].mean(),
        "memory_kb": g["mem_kb"].mean(),
        "hit_rate_pct": g["hit"].mean() * 100.0,
        "relative_error": g["rel_err"].mean(),  # pandas skips NaN, as the SQL does
    }
    got = agg.set_index(["qt", "alg"])
    if len(got) != len(g):
        return False
    for col, ser in want.items():
        a = got[col].reindex(ser.index).to_numpy(dtype=float)
        if not np.allclose(a, ser.to_numpy(dtype=float), rtol=1e-9, atol=1e-12, equal_nan=True):
            return False
    return True


def adaptive_max_steps() -> int:
    from repro.core.adaptive import adaptive_search

    return int(inspect.signature(adaptive_search).parameters["max_steps"].default)
