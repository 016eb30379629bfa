"""Wall-clock benchmark of the FFT service and the paper harness.

``perfbench/run.py`` is the entry point; see ``perfbench/README.md`` for
the workloads, the metrics and how to run them.
"""
