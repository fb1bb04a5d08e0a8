"""Percentiles, correctness checks and failure counting for the benchmark.

Everything here is pure arithmetic on query records, so the tests can pin
it down on hand-built inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Latency groups of the 12 Table 3/4 variants (FPQ and LCPQ of each).
GROUPS = {
    "exact": ("", "-G"),
    "approx": ("-PP", "-NT"),
    "baseline": ("-GTG", "-A"),
}
MIN_BEYOND = 10  # samples that must lie beyond a reported tail percentile
REL_TOL = 1e-9   # agreement required between exact variants


def tail_quantile(n: int, want: float = 0.90) -> float:
    """Highest quantile ≤ ``want`` with at least ``MIN_BEYOND`` of ``n`` samples beyond it.

    Floored to a whole percent; never below the median, so a group with
    fewer than ``2 * MIN_BEYOND`` samples reports its median as its tail.
    """
    if n < 1:
        raise ValueError("no samples")
    supported = math.floor(100.0 * (1.0 - MIN_BEYOND / n) + 1e-9) / 100.0
    return min(want, max(0.5, supported))


def latency_summary(ms: list[float]) -> dict:
    """Median and supported tail of one latency group, with the sample count."""
    q = tail_quantile(len(ms))
    return {
        "n": len(ms),
        "p50": float(np.percentile(ms, 50)),
        "tail_q": q,
        "tail": float(np.percentile(ms, 100.0 * q)),
    }


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def same_costs(a, b) -> bool:
    return all(_close(x, y) for x, y in ((a.dist, b.dist), (a.time, b.time), (a.contact, b.contact)))


def pq_moves_only(path, crossings: set[tuple[int, int, int]]) -> bool:
    """Whether each door of ``path`` is crossed as one of the model's directed edges.

    ``crossings`` holds ``(from_partition, to_partition, door)``.  GTG's door
    graph also has moves *PQ cannot make: a one-way door crossed backwards,
    or a door walked up to and left on the same side.
    """
    p = path.partitions
    return all((p[i], p[i + 1], d) in crossings for i, d in enumerate(path.doors))


def check_variants(results: dict, qt: str, crossings: set[tuple[int, int, int]]) -> dict[str, str | None]:
    """Failure reason per algorithm for one (instance, qt), or None if it passed.

    ``results`` maps each algorithm to its PathResult, None (no path), or an
    exception it raised.  *PQ-G must equal *PQ in doors and costs.  *PQ-GTG
    must equal *PQ in costs when its path uses only moves *PQ can make (it
    may tie with other doors); otherwise its richer graph may only lower the
    query's primary cost.
    """
    out: dict[str, str | None] = {}
    for alg, r in results.items():
        if isinstance(r, BaseException):
            out[alg] = f"raised {type(r).__name__}"
        elif r is None:
            out[alg] = "no_path"
        else:
            out[alg] = None
    pq = results.get("")
    if out.get("") is not None or pq is None:
        return out
    g = results.get("-G")
    if out.get("-G") is None and g is not None:
        if g.doors != pq.doors or not same_costs(g, pq):
            out["-G"] = "differs_from_exact"
    gtg = results.get("-GTG")
    if out.get("-GTG") is None and gtg is not None:
        if pq_moves_only(gtg, crossings):
            ok = same_costs(gtg, pq)
        else:
            ok = gtg.cost(qt) <= pq.cost(qt) or _close(gtg.cost(qt), pq.cost(qt))
        if not ok:
            out["-GTG"] = "differs_from_exact"
    return out


def accuracy(result, gold, qt: str) -> tuple[bool, float]:
    """(hit, γ) of one result against the gold path, as the harness scores it."""
    if result is None or gold is None or isinstance(result, BaseException):
        return False, float("nan")
    gold_cost = gold.cost(qt)
    rel_err = abs(result.cost(qt) - gold_cost) / gold_cost if gold_cost > 0 else 0.0
    return result.doors == gold.doors, rel_err


def same_measure(a: tuple[bool, float], b: tuple[bool, float]) -> bool:
    """Equal (hit, γ) pairs, with NaN equal to NaN."""
    (ha, ea), (hb, eb) = a, b
    return bool(ha) == bool(hb) and (ea == eb or (math.isnan(ea) and math.isnan(eb)))


@dataclass
class Tally:
    """Queries attempted and failed, with a count per failure reason."""

    attempted: int = 0
    failed: int = 0
    reasons: dict[str, int] = field(default_factory=dict)

    def add(self, reason: str | None) -> None:
        """Count one query run that failed for ``reason`` (None: it passed)."""
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons[reason] = self.reasons.get(reason, 0) + 1

    @property
    def failed_pct(self) -> float:
        return 100.0 * self.failed / self.attempted if self.attempted else 0.0


def mean_of_group_medians(values: dict[tuple[str, str], list[float]]) -> float:
    """Median per (qt, alg), averaged over the groups that have samples."""
    meds = [float(np.median(v)) for v in values.values() if v]
    return float(np.mean(meds)) if meds else 0.0


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (the stability gate)."""
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
