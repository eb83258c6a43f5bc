"""Benchmark of the jumploci CLI; see run.py and README.md."""
