"""The repo's one layered benchmark: seven workloads, end to end and per layer.

Run ``python -m benchmarks.e2e run --workload all``; see ``README.md``
in this directory for the workloads, the metrics and how to read them.
Everything here measures the program from outside, through its public
functions and shipped entry points; nothing under ``src/`` knows about it.
"""
