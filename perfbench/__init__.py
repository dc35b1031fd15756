"""Benchmark harness for the arflow pipeline; see ``perfbench/run.py``."""
