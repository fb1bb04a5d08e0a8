"""The jobs' Spark session, with the ``repro`` package shipped to it.

``start`` zips ``src/repro`` (found next to this directory) into a
temporary file and adds it with ``addPyFile``: the Python workers import
``repro`` from the zip, and so does the job's own process, whose
``sys.path`` ``addPyFile`` also extends.  No ``PYTHONPATH`` and no
installed package are needed::

    spark-submit jobs/table3_synthetic.py --instances 4
"""
from __future__ import annotations

import tempfile
import zipfile
from pathlib import Path

from pyspark.sql import SparkSession

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"


def package_zip(out_dir: str) -> str:
    """Zip the ``repro`` package's sources into ``out_dir``; return the path."""
    path = Path(out_dir) / "repro.zip"
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
        for f in sorted(PACKAGE.rglob("*.py")):
            zf.write(f, f.relative_to(PACKAGE.parent).as_posix())
    return str(path)


def start(app: str) -> SparkSession:
    """A session whose job process and Python workers both import ``repro``."""
    spark = SparkSession.builder.appName(app).getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    spark.sparkContext.addPyFile(package_zip(tempfile.mkdtemp(prefix="repro-")))
    return spark
