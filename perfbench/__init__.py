"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run ``python3 perfbench/run.py --help``; ``perfbench/README.md`` defines
every metric and says why each workload was chosen.
"""
