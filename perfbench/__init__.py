"""Benchmark and traced per-layer run for hyperx; entry point ``perfbench/run.py``."""
