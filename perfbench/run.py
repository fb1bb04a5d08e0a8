"""Benchmark of the crowd-aware indoor path planning reproduction.

Usage, from the repository root::

    python3 perfbench/run.py --workload synthetic_serial --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with spans around every layer and prints the per-layer metrics.
The full report (machine, seeds, per-group sample counts, failures) is
printed first and written under ``.perfbench/``; the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  See ``perfbench/README.md`` for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import datetime as dt
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


def fingerprint(spark) -> dict:
    import numpy
    import pyspark

    mem_kb = 0
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    fp = {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_gb": round(mem_kb / 2**20, 1),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyspark": pyspark.__version__,
        "platform": platform.platform(),
    }
    if spark is not None:
        from perfbench.spark_env import java_version

        fp["java"] = java_version(spark)
        start_ms = spark.sparkContext.startTime
        fp["spark_start_utc"] = dt.datetime.fromtimestamp(start_ms / 1e3, dt.timezone.utc).isoformat()
    else:
        out = subprocess.run(["java", "-version"], capture_output=True, text=True, timeout=60)
        lines = [x for x in (out.stderr + out.stdout).splitlines() if "version" in x]
        fp["java"] = lines[0] if lines else "unknown"
        fp["spark_start_utc"] = None
    return fp


def spec_metrics(kind: str, values: dict[str, float]) -> dict[str, dict]:
    """``values`` in the order and with the units ``BENCHMARK.json`` lists for ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}


def main(argv: list[str] | None = None, scales: dict | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from perfbench import workloads

    scales = scales or workloads.SCALES
    if args.workload not in scales:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(scales)}")
    scale = scales[args.workload]
    # Every process started here (Spark's launcher, driver and Python
    # workers, `java -version`) keeps its scratch files in the work directory.
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None  # re-read TMPDIR
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"

    spark = None
    if scale.mall is not None:  # the mall's door-flow counting and run_batch need Spark
        from perfbench.spark_env import start_session, stop_session

        spark = start_session(WORK, len(os.sched_getaffinity(0)), SRC)
    try:
        fp = fingerprint(spark)
        o = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), spark=spark, scale=scale)
    finally:
        if spark is not None:
            stop_session(spark)

    if args.trace:
        metrics = spec_metrics("per_layer", o.layer)
    else:
        metrics = spec_metrics("end_to_end", o.metrics)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": fp,
        "correct": o.correct,
        "attempted": o.tally.attempted,
        "failed": o.tally.failed,
        "failed_pct": o.tally.failed_pct,
        "failure_reasons": o.tally.reasons,
        "checks": o.checks,
        "metrics": metrics,
        "detail": o.detail,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / f"report-{stem}.json").write_text(json.dumps(report, indent=1, default=str))
    if o.spans:
        with open(WORK / f"spans-{stem}.jsonl", "w") as f:
            for s in o.spans:
                f.write(json.dumps(s) + "\n")
    print(json.dumps(report, indent=1, default=str))
    print(
        json.dumps(
            {
                "correct": o.correct,
                "attempted": o.tally.attempted,
                "failed": o.tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
