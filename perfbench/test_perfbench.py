"""Tests of the benchmark's own arithmetic, and a tiny smoke run of each workload.

Run from the repository root::

    python3 -m pytest perfbench -q -p no:cacheprovider
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pandas as pd
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import run, workloads  # noqa: E402
from perfbench.layers import aggregate_matches, trace_faults  # noqa: E402
from perfbench.metrics import (  # noqa: E402
    Tally,
    check_variants,
    latency_summary,
    pq_moves_only,
    tail_quantile,
)
from perfbench.speed import REF_MS, scale  # noqa: E402
from perfbench.trace import Span, self_times  # noqa: E402
from repro.core.search import PathResult  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize(
    "n, q",
    [(1, 0.5), (19, 0.5), (20, 0.5), (25, 0.6), (32, 0.68), (99, 0.89), (100, 0.9), (5000, 0.9)],
)
def test_tail_quantile_keeps_ten_samples_beyond(n, q):
    assert tail_quantile(n) == pytest.approx(q)
    if q > 0.5:
        assert n * (1 - q) >= 10 - 1e-9


def test_tail_quantile_rejects_no_samples():
    with pytest.raises(ValueError):
        tail_quantile(0)


def test_latency_summary_reports_count_and_quantile():
    s = latency_summary([float(x) for x in range(1, 101)])
    assert s["n"] == 100 and s["tail_q"] == 0.9
    assert s["p50"] == pytest.approx(50.5)
    assert s["tail"] == pytest.approx(90.1)


def _path(doors, dist=10.0, time=20.0, contact=5.0, parts=None):
    parts = parts if parts is not None else tuple(range(len(doors) + 1))
    return PathResult(doors=tuple(doors), partitions=tuple(parts), dist=dist, time=time, contact=contact)


# Directed crossings (from, to, door) of a toy model: door d joins d and d+1.
CROSSINGS = {(d, d + 1, d) for d in range(10)} | {(d + 1, d, d) for d in range(10)}


def test_check_variants_passes_agreeing_results():
    pq = _path([0, 1, 2])
    res = {"": pq, "-G": _path([0, 1, 2]), "-GTG": _path([0, 1, 2]), "-NT": _path([9], parts=(9, 10))}
    assert check_variants(res, "FPQ", CROSSINGS) == {"": None, "-G": None, "-GTG": None, "-NT": None}


def test_check_variants_flags_disagreement_and_missing_results():
    pq = _path([0, 1, 2])
    res = {
        "": pq,
        "-G": _path([0, 1, 3]),                        # same costs, other doors
        "-GTG": _path([0, 1, 2], time=20.0 * (1 + 1e-6)),
        "-A": None,                                    # e.g. the 500-step guard
        "-PP": ValueError("boom"),
    }
    out = check_variants(res, "FPQ", CROSSINGS)
    assert out["-G"] == out["-GTG"] == "differs_from_exact"
    assert out["-A"] == "no_path"
    assert out["-PP"] == "raised ValueError"
    assert out[""] is None


def test_check_variants_tolerates_rounding_within_1e_9():
    pq = _path([1], time=100.0, parts=(1, 2))
    g = _path([1], time=100.0 * (1 + 1e-12), parts=(1, 2))
    assert check_variants({"": pq, "-G": g}, "FPQ", CROSSINGS)["-G"] is None


def test_gtg_move_pq_cannot_make_may_only_lower_the_primary_cost():
    pq = _path([0, 1], contact=103.46)
    # door 0 reached from partition 0 and left again inside partition 0
    detour = (0, 0, 1, 2)
    assert not pq_moves_only(_path([0, 1, 1], parts=detour), CROSSINGS)
    assert pq_moves_only(pq, CROSSINGS)
    lower = _path([0, 1, 1], dist=30.0, contact=99.19, parts=detour)
    higher = _path([0, 1, 1], dist=30.0, contact=104.0, parts=detour)
    assert check_variants({"": pq, "-GTG": lower}, "LCPQ", CROSSINGS)["-GTG"] is None
    assert check_variants({"": pq, "-GTG": higher}, "LCPQ", CROSSINGS)["-GTG"] == "differs_from_exact"


def test_tally_counts_failures_against_attempts():
    t = Tally()
    for r in (None, None, "no_path", None, "no_path", "differs_from_exact"):
        t.add(r)
    assert (t.attempted, t.failed) == (6, 3)
    assert t.reasons == {"no_path": 2, "differs_from_exact": 1}
    assert t.failed_pct == pytest.approx(50.0)


def test_score_counts_none_results_instead_of_dropping_them():
    gold = _path([1, 2])
    qs = [
        workloads.Query(0, 0, "FPQ", "", 0, 1.0, 1.0, _path([1, 2]), 0),
        workloads.Query(0, 0, "FPQ", "-A", 0, 1.0, 1.0, None, 1),
        workloads.Query(0, 0, "FPQ", "", 1, 1.0, 1.0, _path([1, 2]), 2),
        workloads.Query(0, 0, "FPQ", "-A", 1, 1.0, 1.0, None, 3),
    ]
    src, dst, door = zip(*sorted(CROSSINGS))
    world = SimpleNamespace(model=SimpleNamespace(e_src=np.array(src), e_dst=np.array(dst), e_door=np.array(door)))
    t = Tally()
    acc = workloads.score([world], qs, {(0, 0, "FPQ"): gold}, t)
    assert (t.attempted, t.failed) == (4, 2)
    assert t.reasons == {"no_path": 2}
    assert acc[(0, 0, "FPQ", "")] == (True, 0.0)
    hit, err = acc[(0, 0, "FPQ", "-A")]
    assert hit is False and math.isnan(err)
    m = workloads.accuracy_metrics(acc, n_fixed=[1])
    assert m["hit_rate_pct"] == pytest.approx(50.0)   # the failed query counts as a miss
    assert m["rel_err_mean"] == pytest.approx(0.0)


def test_accuracy_metrics_score_only_the_fixed_instances():
    acc = {
        (0, 0, "FPQ", ""): (True, 0.0),
        (0, 1, "FPQ", ""): (False, 0.5),   # seed-drawn: left out
        (1, 0, "FPQ", ""): (False, 0.25),
    }
    m = workloads.accuracy_metrics(acc, n_fixed=[1, 1])
    assert m["hit_rate_pct"] == pytest.approx(50.0)
    assert m["rel_err_mean"] == pytest.approx(0.125)


def test_self_times_subtract_direct_children_only():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 7, dur=10.0),
        Span(1, "a", 1.0, 4.0, 0, 7, dur=3.0),
        Span(2, "b", 5.0, 9.0, 0, 7, dur=4.0),
        Span(3, "c", 6.0, 7.0, 2, 7, dur=1.0),
        Span(4, "leaf", 1.5, 3.5, 1, 7, dur=0.5, count=3),  # roll-up of 3 calls
    ]
    st = self_times(spans)
    assert st == pytest.approx({0: 3.0, 1: 2.5, 2: 3.0, 3: 1.0, 4: 0.5})
    assert sum(st.values()) == pytest.approx(spans[0].dur)
    q = workloads.Query(0, 0, "FPQ", "", 0, 10.0, 1e4, None, 7)   # driver timed 10 s
    assert trace_faults(spans, [q]) == {"nesting": 0, "root": 0}


def test_trace_faults_catch_double_counted_and_overlong_children():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 7, dur=10.0),
        Span(1, "a", 1.0, 4.0, 0, 7, dur=3.0),
        Span(2, "leaf", 1.5, 3.5, 1, 7, dur=6.0, count=2),  # roll-up counting calls twice
        Span(3, "late", 8.0, 11.0, 0, 7, dur=3.0),          # ends after its parent
    ]
    q = workloads.Query(0, 0, "FPQ", "", 0, 10.0, 1e4, None, 7)
    assert trace_faults(spans, [q])["nesting"] == 2   # "a" has negative self time; "late" overruns


def test_trace_faults_catch_root_span_disagreeing_with_the_driver():
    spans = [Span(0, "root", 0.0, 10.0, None, 7, dur=10.0)]
    ok = workloads.Query(0, 0, "FPQ", "", 0, 0.0, 1e4 + 0.5, None, 7)
    slow = workloads.Query(0, 0, "FPQ", "", 0, 0.0, 2e4, None, 7)     # driver saw twice the span
    short = workloads.Query(0, 0, "FPQ", "", 0, 0.0, 5e3, None, 7)    # span outlasts the call
    missing = workloads.Query(0, 0, "FPQ", "", 0, 0.0, 1e4, None, 8)  # no span at all
    assert trace_faults(spans, [ok])["root"] == 0
    assert trace_faults(spans, [slow, short, missing])["root"] == 3


def test_speed_scale_divides_by_the_reference_loop():
    assert scale(10.0, REF_MS, REF_MS) == pytest.approx(10.0)
    assert scale(10.0, 2 * REF_MS, 2 * REF_MS) == pytest.approx(5.0)   # machine at half speed
    assert scale(10.0, REF_MS, 3 * REF_MS) == pytest.approx(5.0)       # mean of both ends


def test_aggregate_matches_skips_nan_like_the_sql():
    rows = pd.DataFrame(
        {
            "alg": ["-A", "-A", ""],
            "qt": ["FPQ"] * 3,
            "instance": [0, 1, 0],
            "wall_ms": [1.0, 3.0, 2.0],
            "mem_kb": [4.0, 6.0, 1.0],
            "hit": [True, False, True],
            "rel_err": [0.5, float("nan"), 0.0],
        }
    )
    agg = pd.DataFrame(
        {
            "qt": ["FPQ", "FPQ"],
            "alg": ["", "-A"],
            "running_time_ms": [2.0, 2.0],
            "memory_kb": [1.0, 5.0],
            "hit_rate_pct": [100.0, 50.0],
            "relative_error": [0.0, 0.5],
        }
    )
    assert aggregate_matches(rows, agg)
    agg.loc[1, "relative_error"] = 0.25
    assert not aggregate_matches(rows, agg)


def test_workload_seed_draws_only_the_extra_queries_of_fixed_worlds():
    a, b = workloads.derive_seeds(1, 3), workloads.derive_seeds(2, 3)
    assert a == workloads.derive_seeds(1, 3) and len(a) == 3
    assert len({w["drawn_seed"] for w in a + b}) == 6
    for x, y in zip(a, b):
        assert all(x[k] == y[k] for k in ("space_seed", "sim_seed", "query_seed", "traj_seed"))


def _run(workload: str, trace: int) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(
            ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)],
            scales=workloads.TINY,
        )
    assert code == 0
    return json.loads(buf.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_tiny_world(workload, trace):
    res = _run(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 12
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in want]
    for m in want:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = SPEC["command"] + ["--workload", "synthetic_serial", "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
