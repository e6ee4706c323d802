"""mutiny-bench: the standing performance measurement of this repository.

Four named workloads, end-to-end and per-layer metrics, and a traced run that
attributes campaign time to layers.  ``README.md`` beside this file is the
manual; ``python3 -m benchmarks.mutiny_bench --help`` is the command.
"""
