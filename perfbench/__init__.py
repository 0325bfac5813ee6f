"""Repository benchmark: three seeded workloads behind ``perfbench/run.py``.

See ``perfbench/README.md`` for why each workload exists, what every
metric means on it, and how to run the traced per-layer split.
"""
