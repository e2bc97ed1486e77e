"""The repository's benchmark: fab workloads, end-to-end and per-layer metrics.

Run ``python3 fabbench/run.py --help`` from the repository root; the
workloads, metrics and layer map are described in ``fabbench/README.md``.
"""
