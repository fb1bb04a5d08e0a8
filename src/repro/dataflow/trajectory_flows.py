"""Probabilistic door-flow counting from raw trajectories (Section 6.2).

The paper recovers door flows from positioning data where "nearly 12% of two
consecutive locations are not topologically-connected":

1. pair consecutive fixes per device (window function);
2. a topologically-connected pair contributes flow 1 to the connecting
   door(s) (split uniformly if several doors connect the two partitions);
3. a gap pair gets a set Φ of valid sub-paths; those longer than twice the
   shortest are discarded; sub-path φ_i is taken with probability
   ``P(φ_i) = (1/len(φ_i)) / Σ_k 1/len(φ_k)``, and every door on φ_i
   receives P(φ_i);
4. door flows are sampled per 10 s bucket; λ per directed edge is the mean
   flow per report interval, corrected by the tracked-device penetration
   (the positioning system only sees objects during their tracking session).

Steps 1 and 4 are pure DataFrame work.  Steps 2–3 run in ``mapInPandas``
over the pairs where the window left them (one partition per core), with
the broadcast model; each task resolves each of its distinct gap pairs
once.  The model carries a segment table (``_Segments``) built once per
model, and the sub-path enumeration is cut by two exact prunes (hop
reachability and the 2× length bound), so a gap pair costs milliseconds.
``count_door_flows_pandas`` runs the same resolution in one process.
"""
from __future__ import annotations

import math
from collections import defaultdict

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.window import Window

from repro.core.model import IndoorCrowdModel


def consecutive_pairs(fixes: DataFrame) -> DataFrame:
    """(mac, t0, v0, t1, v1) for each pair of consecutive fixes per device."""
    w = Window.partitionBy("mac").orderBy("t")
    return (
        fixes.select(
            "mac",
            F.lag("t").over(w).alias("t0"),
            F.lag("partition").over(w).alias("v0"),
            F.col("t").alias("t1"),
            F.col("partition").alias("v1"),
        )
        .where(F.col("t0").isNotNull())
        .where(F.col("v0") != F.col("v1"))
    )


def _partition_adjacency(model: IndoorCrowdModel) -> dict[tuple[int, int], list[int]]:
    """(src, dst) -> directed-edge ids connecting them."""
    adj: dict[tuple[int, int], list[int]] = defaultdict(list)
    for e in range(model.n_edges):
        adj[(int(model.e_src[e]), int(model.e_dst[e]))].append(e)
    return dict(adj)


class _Segments:
    """Per-model sub-path segments, built once and reused by every gap pair.

    A valid sub-path steps from partition to adjacent partition; each step
    ``(u, w)`` goes through the cheapest connecting door, and its length is
    the distance from ``u``'s door centroid to that door to ``w``'s door
    centroid.  ``seg`` maps each adjacent ``(u, w)`` to ``(edge, length)``;
    ``out[u]`` lists ``(w, edge, length)`` by ascending ``w`` (the DFS
    order) and ``pred[w]`` the partitions that step into ``w``.
    """

    def __init__(self, model: IndoorCrowdModel):
        adj = _adjacency_cache(model)
        xyz = model.door_xyz
        centroid = [
            xyz[model.partition_doors(v)].mean(axis=0)
            for v in range(model.n_partitions)
        ]
        self.seg: dict[tuple[int, int], tuple[int, float]] = {}
        for (u, w), edges in adj.items():
            best_e, best_len = None, math.inf
            for e in edges:
                d = int(model.e_door[e])
                length = float(np.linalg.norm(xyz[d] - centroid[u])) + float(
                    np.linalg.norm(xyz[d] - centroid[w])
                )
                if length < best_len:
                    best_e, best_len = e, length
            self.seg[(u, w)] = (best_e, best_len)
        self.out: list[list[tuple[int, int, float]]] = [
            [] for _ in range(model.n_partitions)
        ]
        self.pred: list[list[int]] = [[] for _ in range(model.n_partitions)]
        for (u, w), (e, length) in sorted(self.seg.items()):
            self.out[u].append((w, e, length))
            self.pred[w].append(u)


def subpath_edge_weights(
    model: IndoorCrowdModel, v0: int, v1: int, *, max_extra_hops: int = 3
) -> list[tuple[int, float]]:
    """Step 3 for one gap pair: ``[(edge_id, probability-weight)]``.

    Valid sub-paths are simple partition sequences from ``v0`` to ``v1`` of
    at most ``max_extra_hops`` more hops than the fewest; their length is
    the sum of segment lengths (``_Segments``).  Paths longer than twice the
    shortest are excluded; the remainder get 1/length-normalized
    probabilities and every directed edge on a path receives that path's
    probability.

    Two exact prunes keep the enumeration small: a branch is cut when its
    next partition cannot reach ``v1`` within the hops left, or when its
    partial length already exceeds twice the shortest length, which a
    hop-bounded Bellman–Ford gives up front.  Segment lengths are
    non-negative and float addition of non-negative terms is monotone, so
    neither prune drops a path that would be kept.
    """
    segs = _segments_cache(model)
    hops, max_hops = _hops_to(segs, v0, v1, max_extra_hops)
    if max_hops is None:
        return []
    cutoff = 2.0 * max(_shortest_length(segs, v0, v1, hops, max_hops), 1.0)

    paths: list[tuple[list[int], float]] = []  # (edge ids, length)
    edges: list[int] = []
    seen = {v0}

    def dfs(u: int, length: float) -> None:
        if u == v1:
            paths.append((edges.copy(), max(length, 1.0)))
            return
        room = max_hops - len(edges) - 1  # hops left after the next step
        for w, e, slen in segs.out[u]:
            if w in seen or hops.get(w, max_hops) > room:
                continue
            nxt = length + slen
            if nxt > cutoff:
                continue
            seen.add(w)
            edges.append(e)
            dfs(w, nxt)
            edges.pop()
            seen.remove(w)

    dfs(v0, 0.0)
    shortest = min(length for _, length in paths)
    kept = [(es, length) for es, length in paths if length <= 2.0 * shortest]
    norm = sum(1.0 / length for _, length in kept)
    out: list[tuple[int, float]] = []
    for es, length in kept:
        p = (1.0 / length) / norm
        out.extend((e, p) for e in es)
    return out


def _hops_to(
    segs: _Segments, v0: int, v1: int, max_extra_hops: int
) -> tuple[dict[int, int], int | None]:
    """Hop distance to ``v1`` of the partitions a sub-path can use, and its hop bound.

    Breadth-first from ``v1`` over reversed steps until ``v0`` is reached
    (the bound is then its distance + ``max_extra_hops``), then on to the
    depth that a partition one hop past ``v0`` may have.  The bound is
    ``None`` when ``v1`` cannot be reached from ``v0``.
    """
    hops = {v1: 0}
    frontier = [v1]
    max_hops = max_extra_hops if v0 == v1 else None
    level = 0
    while frontier and (max_hops is None or level < max_hops - 1):
        level += 1
        nxt = []
        for w in frontier:
            for u in segs.pred[w]:
                if u not in hops:
                    hops[u] = level
                    nxt.append(u)
        frontier = nxt
        if max_hops is None and v0 in hops:
            max_hops = level + max_extra_hops
    return hops, max_hops


def _shortest_length(
    segs: _Segments, v0: int, v1: int, hops: dict[int, int], max_hops: int
) -> float:
    """Shortest ``v0 → v1`` length over at most ``max_hops`` steps (Bellman–Ford).

    Round ``k`` relaxes only the partitions improved in round ``k - 1``,
    into partitions still within ``max_hops - k`` hops of ``v1``.  This
    minimum over walks equals the minimum over the DFS's simple paths:
    dropping a cycle from a walk never makes its float sum longer.
    """
    best = {v0: 0.0}
    frontier = {v0: 0.0}
    for k in range(1, max_hops + 1):
        improved: dict[int, float] = {}
        for u, du in frontier.items():
            for w, _, slen in segs.out[u]:
                if hops.get(w, max_hops) > max_hops - k:
                    continue
                d = du + slen
                if d < best.get(w, math.inf) and d < improved.get(w, math.inf):
                    improved[w] = d
        best.update(improved)
        frontier = improved
    return best[v1]


def _adjacency_cache(model: IndoorCrowdModel):
    got = getattr(model, "_adj_cache", None)
    if got is None:
        got = _partition_adjacency(model)
        model._adj_cache = got
    return got


def _segments_cache(model: IndoorCrowdModel) -> _Segments:
    got = getattr(model, "_seg_cache", None)
    if got is None:
        got = _Segments(model)
        model._seg_cache = got
    return got


def resolve_pairs(model: IndoorCrowdModel, pdf: pd.DataFrame) -> pd.DataFrame:
    """Steps 2–3 for a batch of consecutive pairs → (edge, bucket, flow)."""
    adj = _adjacency_cache(model)
    memo: dict[tuple[int, int], list[tuple[int, float]]] = {}
    rows = []
    for v0, v1, bucket in zip(pdf["v0"], pdf["v1"], pdf["bucket"]):
        key = (int(v0), int(v1))
        if key in adj:  # topologically connected: split over doors
            edges = adj[key]
            for e in edges:
                rows.append((int(e), int(bucket), 1.0 / len(edges)))
            continue
        w = memo.get(key)
        if w is None:
            w = subpath_edge_weights(model, *key)
            memo[key] = w
        for e, p in w:
            rows.append((int(e), int(bucket), float(p)))
    return pd.DataFrame(rows, columns=["edge", "bucket", "flow"])


def count_door_flows(
    spark: SparkSession,
    model: IndoorCrowdModel,
    fixes: DataFrame,
    *,
    bucket_s: float = 10.0,
) -> DataFrame:
    """Per-(edge, bucket) probabilistic flows: ``(edge, bucket, flow)``.

    The fixes are hashed by device onto one partition per core, which is
    the layout the pairing window needs anyway, and ``mapInPandas``
    resolves the pairs where they sit: no second shuffle, no regroup per
    ``v0``.  Each task memoises its gap pairs.  The model is broadcast with
    its segment table built, so no task rebuilds it.
    """
    n = spark.sparkContext.defaultParallelism
    pairs = consecutive_pairs(fixes.repartition(n, "mac")).select(
        "v0", "v1", F.floor(F.col("t1") / F.lit(bucket_s)).cast("long").alias("bucket")
    )
    _segments_cache(model)
    bc_model = spark.sparkContext.broadcast(model)

    def resolve(batches):
        pdfs = list(batches)  # one task's pairs, so one memo covers them
        if pdfs:
            yield resolve_pairs(bc_model.value, pd.concat(pdfs, ignore_index=True))

    per_pair = pairs.mapInPandas(resolve, schema="edge long, bucket long, flow double")
    return per_pair.groupBy("edge", "bucket").agg(F.sum("flow").alias("flow"))


def count_door_flows_pandas(
    model: IndoorCrowdModel, fixes: pd.DataFrame, *, bucket_s: float = 10.0
) -> pd.DataFrame:
    """Single-machine reference of ``count_door_flows`` (oracle for tests)."""
    df = fixes.sort_values(["mac", "t"])
    pairs = pd.DataFrame(
        {
            "mac": df["mac"],
            "t0": df.groupby("mac")["t"].shift(1),
            "v0": df.groupby("mac")["partition"].shift(1),
            "t1": df["t"],
            "v1": df["partition"],
        }
    ).dropna(subset=["t0"])
    pairs = pairs[pairs["v0"] != pairs["v1"]]
    pairs["bucket"] = (pairs["t1"] // bucket_s).astype(np.int64)
    rows = resolve_pairs(model, pairs)
    return (
        rows.groupby(["edge", "bucket"], as_index=False)["flow"]
        .sum()
        .sort_values(["edge", "bucket"], ignore_index=True)
    )


def fit_edge_lambdas(
    flows: DataFrame | pd.DataFrame,
    model: IndoorCrowdModel,
    *,
    n_buckets: int,
    penetration: float = 1.0,
) -> np.ndarray:
    """λ per directed edge: mean flow per report bucket / penetration.

    ``flows`` is the ``(edge, bucket, flow)`` table of either counting path:
    a Spark DataFrame is summed per edge in Spark, a pandas one in pandas.
    ``penetration`` is the fraction of door crossings the positioning system
    observes (tracked-session coverage × per-fix retention²), a deployment
    constant of the localization system, not an oracle quantity.
    """
    if isinstance(flows, pd.DataFrame):
        totals = flows.groupby("edge")["flow"].sum()
        edge, total = totals.index.to_numpy(), totals.to_numpy()
    else:
        pdf = flows.groupBy("edge").agg(F.sum("flow").alias("total")).toPandas()
        edge, total = pdf["edge"].to_numpy(), pdf["total"].to_numpy()
    lam = np.zeros(model.n_edges)
    if len(edge):
        lam[edge] = total
    lam /= max(n_buckets, 1) * max(penetration, 1e-9)
    return lam


def symmetrize_per_door(model: IndoorCrowdModel, lam: np.ndarray) -> np.ndarray:
    """Average each door's two directions; an edge without a reverse keeps its λ."""
    p, d = model.n_partitions, model.n_doors
    key = (model.e_src.astype(np.int64) * p + model.e_dst) * d + model.e_door
    back = (model.e_dst.astype(np.int64) * p + model.e_src) * d + model.e_door
    order = np.argsort(key, kind="stable")
    pos = np.minimum(np.searchsorted(key[order], back), len(key) - 1)
    found = key[order][pos] == back
    rev = np.where(found, order[pos], np.arange(model.n_edges))
    return (lam + lam[rev]) / 2.0
