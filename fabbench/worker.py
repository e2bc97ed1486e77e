"""One workload process: set up, say READY, then measure on GO.

Started by ``run.py`` with the BLAS thread count pinned in the
environment.  Standard output is the line protocol to ``run.py``
(``READY`` / ``RESULT <json>``); anything the program prints goes to
standard error instead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from fabbench.common import BLAS_ENV_VARS, BLAS_THREADS


def provenance(seed: int) -> dict:
    """Where a result came from: commit, machine, cores, BLAS, seed."""
    import numpy as np

    from repro.obs.export import provenance as repro_provenance

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict form
        blas = None
    return {
        "repro": repro_provenance(),
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV_VARS},
        "numpy": np.__version__,
        "blas_build": blas,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    for var in BLAS_ENV_VARS:
        if os.environ.get(var) != str(BLAS_THREADS):
            raise SystemExit(f"{var} must be pinned to {BLAS_THREADS} before start")
    protocol = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)

    from fabbench.workloads import make_workload

    workload = make_workload(
        args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), smoke=args.smoke,
    )
    try:
        workload.setup()
        protocol.write("READY\n")
        if sys.stdin.readline().strip() != "GO":
            return 0
        result = workload.run()
    finally:
        workload.close()
    result.info["provenance"] = provenance(args.seed)
    protocol.write("RESULT " + json.dumps(result.to_json()) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
