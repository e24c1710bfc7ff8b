"""The repo's benchmark: sleep-free end-to-end and per-layer numbers.

See ``bench/README.md``; ``BENCHMARK.json`` at the repo root names the
command, the workloads and the metrics.
"""
