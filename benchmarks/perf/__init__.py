"""The repo benchmark: four workloads, end-to-end metrics, a traced run.

``BENCHMARK.json`` at the repo root is the contract (workloads, metric
names, units, regression bounds); this package is the instrument.  See
``README.md`` here for the catalogue and how to run it.
"""
