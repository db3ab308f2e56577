"""End-to-end and per-layer benchmark of the randova CLI.

Run it from the root of a checkout:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

See perfbench/README.md for the workloads, metrics and predictions.
"""
