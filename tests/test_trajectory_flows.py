"""Tests: probabilistic door-flow counting from trajectories (Section 6.2)."""
import math

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.dataflow.trajectory_flows import (
    consecutive_pairs,
    count_door_flows,
    count_door_flows_pandas,
    fit_edge_lambdas,
    _segments_cache,
    resolve_pairs,
    subpath_edge_weights,
    symmetrize_per_door,
)
from repro.oracle import assert_equivalent
from repro.space.mall import mall_space, simulate_trajectories
from tests.conftest import make_tiny_space


@pytest.fixture(scope="module")
def world():
    bs = make_tiny_space()
    tw = simulate_trajectories(bs, n_objects=50, session_ticks=25, seed=9)
    return bs, tw


@pytest.fixture(scope="module")
def mall():
    """The 977-partition mall, 30 tracked objects (68 distinct gap pairs)."""
    bs = mall_space(horizon_ticks=420)
    tw = simulate_trajectories(bs, n_objects=30, session_ticks=60, seed=4)
    return bs, tw


# --- independent reference: per-call segments, unpruned enumeration ----------


def _ref_seg(model, u, w):
    """Cheapest (u, w) edge and its length, recomputing both centroids."""

    def centroid(v):
        return model.door_xyz[model.partition_doors(v)].mean(axis=0)

    best_e, best_len = None, math.inf
    for e in model.out_edges[u]:
        if int(model.e_dst[e]) != w:
            continue
        d = int(model.e_door[e])
        length = float(np.linalg.norm(model.door_xyz[d] - centroid(u))) + float(
            np.linalg.norm(model.door_xyz[d] - centroid(w))
        )
        if length < best_len:
            best_e, best_len = e, length
    return best_e, best_len


def _ref_subpath_edge_weights(model, v0, v1, max_extra_hops=3):
    """Every simple path within the hop bound, then the 2× cutoff."""
    nbrs = [
        sorted({int(model.e_dst[e]) for e in model.out_edges[v]})
        for v in range(model.n_partitions)
    ]
    hops = {v0: 0}
    frontier = [v0]
    while frontier and v1 not in hops:
        nxt = []
        for u in frontier:
            for wv in nbrs[u]:
                if wv not in hops:
                    hops[wv] = hops[u] + 1
                    nxt.append(wv)
        frontier = nxt
    if v1 not in hops:
        return []
    max_hops = hops[v1] + max_extra_hops
    seg = {}
    paths = []

    def dfs(u, edges, length, seen):
        if u == v1:
            paths.append((edges.copy(), max(length, 1.0)))
            return
        if len(edges) >= max_hops:
            return
        for wv in nbrs[u]:
            if wv in seen:
                continue
            if (u, wv) not in seg:
                seg[(u, wv)] = _ref_seg(model, u, wv)
            e, slen = seg[(u, wv)]
            seen.add(wv)
            edges.append(e)
            dfs(wv, edges, length + slen, seen)
            edges.pop()
            seen.remove(wv)

    dfs(v0, [], 0.0, {v0})
    shortest = min(length for _, length in paths)
    kept = [(es, length) for es, length in paths if length <= 2.0 * shortest]
    norm = sum(1.0 / length for _, length in kept)
    return [(e, (1.0 / length) / norm) for es, length in kept for e in es]


def _gap_pairs(model, fixes):
    df = fixes.sort_values(["mac", "t"])
    v0 = df.groupby("mac")["partition"].shift(1)
    moved = v0.notna() & (v0 != df["partition"])
    adj = set(zip(model.e_src.tolist(), model.e_dst.tolist()))
    pairs = zip(v0[moved].astype(int).tolist(), df["partition"][moved].tolist())
    return sorted({p for p in pairs if p not in adj})


@pytest.mark.parametrize("which", ["world", "mall"])
def test_segment_table_matches_reference(which, request):
    m = request.getfixturevalue(which)[0].model
    table = _segments_cache(m).seg
    adjacent = set(zip(m.e_src.tolist(), m.e_dst.tolist()))
    assert set(table) == adjacent
    for (u, w), got in table.items():
        assert got == _ref_seg(m, u, w)


def test_pruned_subpaths_equal_unpruned_tiny(world):
    m = world[0].model
    adjacent = set(zip(m.e_src.tolist(), m.e_dst.tolist()))
    gaps = [
        (a, b)
        for a in range(m.n_partitions)
        for b in range(m.n_partitions)
        if a != b and (a, b) not in adjacent
    ]
    for v0, v1 in gaps:
        assert subpath_edge_weights(m, v0, v1) == _ref_subpath_edge_weights(m, v0, v1)


def test_pruned_subpaths_equal_unpruned_mall(mall):
    bs, tw = mall
    gaps = _gap_pairs(bs.model, tw.fixes)
    assert len(gaps) >= 10
    for v0, v1 in gaps:
        got = subpath_edge_weights(bs.model, v0, v1)
        assert got == _ref_subpath_edge_weights(bs.model, v0, v1)


def test_consecutive_pairs_basics(spark, world):
    bs, tw = world
    pairs = consecutive_pairs(spark.createDataFrame(tw.fixes)).toPandas()
    assert (pairs["t0"] < pairs["t1"]).all()
    assert (pairs["v0"] != pairs["v1"]).all()


def test_consecutive_pairs_per_device(spark, world):
    bs, tw = world
    got = consecutive_pairs(spark.createDataFrame(tw.fixes)).count()
    # reference with pandas
    df = tw.fixes.sort_values(["mac", "t"])
    v0 = df.groupby("mac")["partition"].shift(1)
    ref = ((v0.notna()) & (v0 != df["partition"])).sum()
    assert got == ref


def test_spark_equals_pandas_counting(spark, world):
    bs, tw = world
    sp = (
        count_door_flows(spark, bs.model, spark.createDataFrame(tw.fixes))
        .toPandas()
        .sort_values(["edge", "bucket"], ignore_index=True)
    )
    pdp = count_door_flows_pandas(bs.model, tw.fixes)
    merged = sp.merge(
        pdp, on=["edge", "bucket"], how="outer", suffixes=("_s", "_p")
    ).fillna(0.0)
    assert np.allclose(merged["flow_s"], merged["flow_p"], atol=1e-9)


def test_spark_equals_pandas_counting_mall(spark, mall):
    """Multi-floor mall: stairways and long gap pairs, several Spark tasks."""
    bs, tw = mall
    sp = count_door_flows(spark, bs.model, spark.createDataFrame(tw.fixes)).toPandas()
    pdp = count_door_flows_pandas(bs.model, tw.fixes)
    merged = sp.merge(
        pdp, on=["edge", "bucket"], how="outer", suffixes=("_s", "_p")
    ).fillna(0.0)
    assert len(merged) == len(pdp)
    assert np.allclose(merged["flow_s"], merged["flow_p"], atol=1e-9)


def test_aggregation_oracle(spark, world):
    """Per-edge totals of the flow table vs DuckDB."""
    bs, tw = world
    flows = count_door_flows(spark, bs.model, spark.createDataFrame(tw.fixes))
    got = flows.groupBy("edge").agg(F.sum("flow").alias("total"))
    sql = "SELECT edge, SUM(flow) AS total FROM flows GROUP BY edge"
    assert_equivalent(got, sql, flows=flows)


def test_adjacent_pair_unit_flow(world):
    """A topologically-connected pair contributes exactly total flow 1."""
    bs, _ = world
    m = bs.model
    e = 0
    pdf = pd.DataFrame(
        {"v0": [int(m.e_src[e])], "v1": [int(m.e_dst[e])], "bucket": [3]}
    )
    rows = resolve_pairs(m, pdf)
    assert rows["flow"].sum() == pytest.approx(1.0)
    assert (rows["bucket"] == 3).all()


def test_gap_pair_probabilities_normalized(world):
    """Sub-path probabilities are 1/length-normalized: per-hop mass ≤ 1,
    and the first-hop mass sums to 1 across alternatives."""
    bs, _ = world
    m = bs.model
    # find a non-adjacent pair two hops apart
    adj = {(int(s), int(d)) for s, d in zip(m.e_src, m.e_dst)}
    pair = None
    for v0 in range(m.n_partitions):
        for v1 in range(m.n_partitions):
            if v0 != v1 and (v0, v1) not in adj:
                pair = (v0, v1)
                break
        if pair:
            break
    weights = subpath_edge_weights(m, *pair)
    assert weights, "expected at least one valid sub-path"
    assert all(0 < p <= 1 for _, p in weights)
    # every sub-path passes one out-edge of v0, so their mass sums to 1
    first_hop = [p for e, p in weights if int(m.e_src[e]) == pair[0]]
    assert sum(first_hop) == pytest.approx(1.0)


def test_subpath_excludes_long_paths(world):
    bs, _ = world
    m = bs.model
    # all returned edges belong to paths ≤ 2× shortest by construction;
    # sanity: no edge is ridiculously far from the straight line
    weights = subpath_edge_weights(m, 0, 5)
    assert all(p >= 0 for _, p in weights)


def test_unreachable_pair_empty():
    bs = make_tiny_space()
    m = bs.model
    out = subpath_edge_weights(m, 0, 0)  # same partition: no path needed
    assert out == [] or all(p >= 0 for _, p in out)


def test_fit_edge_lambdas(spark, world):
    bs, tw = world
    flows = count_door_flows(spark, bs.model, spark.createDataFrame(tw.fixes))
    lam = fit_edge_lambdas(flows, bs.model, n_buckets=80, penetration=0.5)
    assert lam.shape == (bs.model.n_edges,)
    assert (lam >= 0).all()
    # halving the penetration doubles λ
    lam2 = fit_edge_lambdas(flows, bs.model, n_buckets=80, penetration=0.25)
    assert np.allclose(lam2, 2 * lam)


def test_counting_only_credits_real_edges(world):
    bs, tw = world
    pdp = count_door_flows_pandas(bs.model, tw.fixes)
    assert pdp["edge"].between(0, bs.model.n_edges - 1).all()
    assert (pdp["flow"] > 0).all()


def test_fit_edge_lambdas_pandas_equals_spark(spark, world):
    bs, tw = world
    sp = count_door_flows(spark, bs.model, spark.createDataFrame(tw.fixes))
    pdp = count_door_flows_pandas(bs.model, tw.fixes)
    a = fit_edge_lambdas(sp, bs.model, n_buckets=80, penetration=0.5)
    b = fit_edge_lambdas(pdp, bs.model, n_buckets=80, penetration=0.5)
    assert np.allclose(a, b, rtol=1e-12, atol=0.0)


def test_symmetrize_per_door(world):
    m = world[0].model
    lam = np.random.default_rng(1).random(m.n_edges)
    got = symmetrize_per_door(m, lam)
    by_key = {
        (int(s), int(d), int(k)): e
        for e, (s, d, k) in enumerate(zip(m.e_src, m.e_dst, m.e_door))
    }
    for (s, d, k), e in by_key.items():
        r = by_key.get((d, s, k), e)
        assert got[e] == (lam[e] + lam[r]) / 2.0
