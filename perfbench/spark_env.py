"""The benchmark's own local Spark session, and stage metrics read from it.

The session runs ``local[nproc]`` with every scratch file under the
benchmark's work directory.  Stage metrics come from the session's status
store: the jobs of one job group, their stages, and each task's duration.
"""
from __future__ import annotations

import os
import shlex
import time
from pathlib import Path

import numpy as np


def start_session(work: Path, cores: int, src: Path):
    """Start ``local[cores]`` with Spark's scratch under ``work``; the workers import ``src``."""
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{cores}]",
            "--driver-memory 2g",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf spark.local.dir={shlex.quote(str(work / 'spark-local'))}",
            f"--conf spark.sql.warehouse.dir={shlex.quote(str(work / 'warehouse'))}",
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = SparkSession.builder.appName("perfbench").getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop the session, then end the JVM and wait for it to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        SparkContext._gateway = None
        SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits at EOF on its stdin
        proc.wait(timeout=60)


def java_version(spark) -> str:
    return str(spark.sparkContext._jvm.System.getProperty("java.version"))


def group_task_seconds(spark, group: str, timeout_s: float = 10.0) -> list[list[float]]:
    """Task durations (s) of each completed stage run under job group ``group``.

    Listener events reach the status store asynchronously, so wait (up to
    ``timeout_s``) until every stage the group's jobs ran reports all its tasks.
    """
    sc = spark.sparkContext
    tracker = sc.statusTracker()
    store = sc._jsc.sc().statusStore()
    deadline = time.monotonic() + timeout_s
    while True:
        stages = []
        settled = True
        for job_id in tracker.getJobIdsForGroup(group):
            job = tracker.getJobInfo(job_id)
            if job is None:
                continue
            for sid in job.stageIds:
                info = tracker.getStageInfo(sid)
                if info is None:  # skipped (its output was reused)
                    continue
                if info.numCompletedTasks + info.numFailedTasks < info.numTasks:
                    settled = False
                stages.append((sid, info.currentAttemptId, info.numTasks))
        if settled or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    out = []
    for sid, attempt, n_tasks in stages:
        tasks = store.taskList(sid, attempt, max(n_tasks, 1))
        durs = []
        for i in range(tasks.size()):
            d = tasks.apply(i).duration()
            if d.isDefined():
                durs.append(d.get() / 1000.0)
        if durs:
            out.append(durs)
    return out


def stage_metrics(stages: list[list[float]], wall_s: float, cores: int) -> dict:
    """Task count, Σ task time, skew of the heaviest stage, parallel efficiency."""
    if not stages:
        return {"tasks": 0, "task_s_sum": 0.0, "task_skew": 0.0, "parallel_eff": 0.0}
    total = float(sum(sum(s) for s in stages))
    heaviest = max(stages, key=sum)
    med = float(np.median(heaviest))
    return {
        "tasks": sum(len(s) for s in stages),
        "task_s_sum": total,
        "task_skew": max(heaviest) / med if med > 0 else 0.0,
        "parallel_eff": total / (wall_s * cores) if wall_s > 0 else 0.0,
    }
