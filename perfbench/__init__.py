"""Benchmark of the reproduction: see README.md in this directory."""
