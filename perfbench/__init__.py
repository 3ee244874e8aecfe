"""Layered end-to-end benchmark of the separator-decomposition oracle.

Run one workload from the repository root with::

    python3 perfbench/run.py --workload grid-batch --seed 1 --seconds 12 --trace 0

:mod:`perfbench.run` documents the workloads, the metrics and the output.
"""
