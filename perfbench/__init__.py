"""The repo benchmark: four workloads, six end-to-end metrics, a layer trace.

Run ``python3 perfbench/run.py`` from the repository root; see
``perfbench/README.md`` for the metric and workload tables. The package
drives the program only through the public ``repro`` API.
"""
