"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

See ``simbench/README.md`` for the workloads, the metrics and how to run
them; ``simbench/run.py`` is the entry point.
"""
