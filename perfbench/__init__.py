"""Benchmark for grosslat: seeded workloads, timed and traced runs.

Run from the repository root:

    python3 perfbench/run.py --workload equivalence-table --seed 1 --seconds 30 --trace 0
"""
