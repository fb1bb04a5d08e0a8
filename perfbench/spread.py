"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the repository root::

    python3 perfbench/spread.py --workload synthetic_serial --seeds 1 2 3 4 5

Runs ``perfbench/run.py`` once per seed, one after another, and prints each
metric's median and interquartile distance as a share of the median, next
to a third of the metric's bound in ``BENCHMARK.json`` (the target).
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.metrics import spread  # noqa: E402


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        t0 = time.monotonic()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        took = time.monotonic() - t0
        if out.returncode != 0:
            print(out.stderr[-2000:], file=sys.stderr)
            return 1
        res = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append(res)
        print(
            f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
            f"failed={res['failed']} wall={took:.1f}s",
            flush=True,
        )
    print(f"{'metric':26} {'median':>12} {'spread':>8} {'target':>8}")
    worst = 0.0
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        s = spread(vals) if len(vals) > 1 else 0.0
        target = m["bound"] / 3
        flag = "" if s <= target or m["name"] == "setup_s" else "  WIDE"
        if m["name"] != "setup_s":
            worst = max(worst, s / target)
        mid = sorted(vals)[len(vals) // 2]
        print(f"{m['name']:26} {mid:12.5g} {s:8.4f} {target:8.4f}{flag}")
    print(f"worst spread / target: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
