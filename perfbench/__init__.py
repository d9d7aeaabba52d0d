"""Layered benchmark of riemannwaves: seeded workloads, gates and a span tracer.

Run it with ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; see ``perfbench/NOTES.md``.
"""
