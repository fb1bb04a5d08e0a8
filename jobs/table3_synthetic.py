"""Reproduce Table 3 (synthetic data, default setting).

Usage::

    spark-submit jobs/table3_synthetic.py [--instances N] [--sweep s2t|ti|floors|objects]

Builds the Table-2 default world (5 floors, |o| = 600, TI = 10 s,
s2t = 1300 m), fans the 100-instance × 12-variant workload out over Spark
executors, aggregates with Spark SQL, and prints the paper-vs-ours table.
``--sweep`` re-runs the measurement across one Table-2 axis (the data behind
Figures 5–24; figures themselves are out of scope).
"""
from __future__ import annotations

import argparse

from spark_session import start


def rows_to_dict(agg) -> dict:
    return {
        (r["qt"], r["alg"]): {
            "running_time_ms": r["running_time_ms"],
            "memory_kb": r["memory_kb"],
            "hit_rate_pct": r["hit_rate_pct"],
            "relative_error": r["relative_error"],
        }
        for r in agg.collect()
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--instances", type=int, default=100)
    ap.add_argument("--sweep", choices=["s2t", "ti", "floors", "objects"])
    args = ap.parse_args()
    spark = start("table3")
    # ``repro`` is importable once the session has shipped it.
    from repro.dataflow.batch import aggregate_table, run_batch
    from repro.experiments.params import FLOORS, OBJECTS, S2T, TI, Settings
    from repro.experiments.tables import PAPER_TABLE3, render_table
    from repro.experiments.world import build_synthetic_world

    if args.sweep:
        axis = {
            "s2t": ("s2t", S2T),
            "ti": ("ti", TI),
            "floors": ("floors", FLOORS),
            "objects": ("obj_max", OBJECTS),
        }[args.sweep]
        for val in axis[1]:
            settings = Settings(**{axis[0]: val}, n_instances=args.instances)
            world = build_synthetic_world(settings)
            agg = aggregate_table(run_batch(spark, world))
            print(f"\n=== sweep {args.sweep} = {val} ===")
            agg.show(truncate=False)
    else:
        settings = Settings(n_instances=args.instances)
        world = build_synthetic_world(settings)
        agg = aggregate_table(run_batch(spark, world))
        print(
            render_table(
                rows_to_dict(agg),
                PAPER_TABLE3,
                "Table 3 — Synthetic Data (default setting)",
            )
        )
    spark.stop()


if __name__ == "__main__":
    main()
