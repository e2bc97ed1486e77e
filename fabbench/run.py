"""Run the repository benchmark: one workload, or all of them.

    python3 fabbench/run.py --workload fab_gateway --seed 1 --seconds 10 --trace 0
    python3 fabbench/run.py --workload all            # every workload, untraced
    python3 fabbench/run.py --workload all --trace 1  # per-layer tables

Each workload runs in fresh processes started from this one (BLAS pinned
to one thread).  Untraced runs start the workload process three times,
report the median set-up time as ``setup_s`` and measure in the last
one; traced runs set up once and report the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every correctness check passed and no operation failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import Any, Dict, List

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from fabbench.common import LineChannel, median, pinned_env, repo_root  # noqa: E402

#: Untraced runs set the workload up this many times (fresh process each).
SETUP_REPEATS = 3

#: Wall-clock ceiling on one workload's set-up.
SETUP_TIMEOUT_S = 60.0


def load_spec(root: str) -> Dict[str, Any]:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def check_checkout(root: str) -> str:
    """Why this checkout cannot be benchmarked, or '' when it can."""
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        return f"no repro source tree under {os.path.join(root, 'src')}"
    if not os.path.isfile(os.path.join(root, "BENCHMARK.json")):
        return f"no BENCHMARK.json in {root}"
    return ""


def _worker_argv(args, workload: str) -> List[str]:
    argv = [
        sys.executable, "-m", "fabbench.worker",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
    ]
    if args.smoke:
        argv.append("--smoke")
    return argv


def run_workload(args, root: str, workload: str) -> Dict[str, Any]:
    """Set up (three times untraced, once traced), measure, collect."""
    env = pinned_env(root)
    repeats = 1 if args.trace else SETUP_REPEATS
    measure_timeout = 4.0 * args.seconds + 90.0
    setups: List[float] = []
    for attempt in range(repeats):
        started = time.monotonic()
        channel = LineChannel(_worker_argv(args, workload), root, env)
        try:
            channel.expect("READY", started + SETUP_TIMEOUT_S)
            setups.append(time.monotonic() - started)
            if attempt < repeats - 1:
                channel.send("EXIT")
                if channel.finish(timeout=30.0) != 0:
                    raise RuntimeError("workload process failed after set-up")
                continue
            channel.send("GO")
            payload = json.loads(
                channel.expect("RESULT", time.monotonic() + measure_timeout)
            )
            code = channel.finish(timeout=30.0)
            if code != 0:
                raise RuntimeError(f"workload process exited with code {code}")
        except BaseException:
            channel.kill()
            raise
    payload["setup_runs_s"] = setups
    payload["setup_s"] = median(setups)
    return payload


def assemble(spec: Dict[str, Any], payload: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The contract's result object from one workload payload."""
    measured = dict(payload["metrics"])
    problems = []
    metrics = {}
    if trace:
        declared = {entry["name"] for entry in spec["per_layer"]}
        problems += [
            f"measured per-layer metric {name} is not in BENCHMARK.json"
            for name in sorted(set(measured) - declared)
        ]
        for entry in spec["per_layer"]:
            # A layer the workload never calls did no work: 0.
            value = float(measured.get(entry["name"], 0.0))
            if not math.isfinite(value):
                problems.append(f"per-layer metric {entry['name']} = {value!r}")
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    else:
        measured["setup_s"] = payload["setup_s"]
        for entry in spec["end_to_end"]:
            value = measured.get(entry["name"])
            if value is None or not math.isfinite(value) or value <= 0:
                problems.append(f"end-to-end metric {entry['name']} = {value!r}")
                value = float("nan") if value is None else float(value)
            metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
    checks = payload["checks"]
    correct = bool(checks) and all(c["ok"] for c in checks) and not problems
    return {
        "correct": correct,
        "attempted": int(payload["attempted"]),
        "failed": int(payload["failed"]),
        "metrics": metrics,
        "problems": problems,
    }


def report(workload: str, spec, payload, result, trace: bool, out) -> None:
    """Human-readable table of every metric, its unit and direction."""
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    kind = "per-layer (traced run)" if trace else "end-to-end (untraced run)"
    print(f"== {workload}: {kind}", file=out)
    for entry in entries:
        metric = result["metrics"][entry["name"]]
        print(
            f"  {entry['name']:<36} {metric['value']:>14.6g} "
            f"{entry['unit']:<10} ({entry['better']} is better)",
            file=out,
        )
    if not trace:
        runs = ", ".join(f"{s:.3f}" for s in payload["setup_runs_s"])
        print(f"  setup_s runs: {runs}", file=out)
    for line in payload["info"].get("notes", []):
        print(f"  {line}", file=out)
    for check in payload["checks"]:
        status = "ok  " if check["ok"] else "FAIL"
        print(f"  check {status} {check['name']}: {check['detail']}", file=out)
    for problem in result["problems"]:
        print(f"  FAIL {problem}", file=out)
    attempted, failed = result["attempted"], result["failed"]
    print(
        f"  operations: {attempted} attempted, {failed} failed "
        f"(error rate {failed / max(attempted, 1):.4g})",
        file=out,
    )
    if trace and payload["info"].get("self_times"):
        print(payload["info"]["self_times"], file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = repo_root()
    problem = check_checkout(root)
    if problem:
        print(f"fabbench: {problem}", file=sys.stderr)
        return 2
    spec = load_spec(root)
    names = [w["name"] for w in spec["workloads"]]
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    selected = names if args.workload == "all" else [args.workload]
    unknown = [w for w in selected if w not in names]
    if unknown:
        print(f"fabbench: unknown workload {unknown[0]!r}; one of {names}",
              file=sys.stderr)
        return 2

    results = {}
    for workload in selected:
        try:
            payload = run_workload(args, root, workload)
        except RuntimeError as exc:
            print(f"fabbench: {workload}: {exc}", file=sys.stderr)
            return 1
        result = assemble(spec, payload, bool(args.trace))
        report(workload, spec, payload, result, bool(args.trace), sys.stdout)
        result.pop("problems")
        results[workload] = result

    if len(selected) == 1:
        final = results[selected[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": m
                for w, r in results.items() for name, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] and final["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
