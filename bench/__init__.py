"""btlab benchmark: three closed-loop workloads and a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload run-forks --seed 1 --seconds 30 --trace 0

See bench/README.md for the workloads, metrics and reference check.
"""
