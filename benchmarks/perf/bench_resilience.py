"""Resilience-overhead benchmarks: what fault tolerance costs when
nothing fails, and what recovery costs when something does.

Case groups (``BENCH_resilience.json``):

* ``train_plain`` / ``train_checkpointed`` / ``train_checkpointed_async``
  — identical tiny training runs without checkpoints, with per-epoch
  crash-safe checkpoints, and with those checkpoints published on a
  background thread, timed round-robin; ``checkpoint_overhead_pct`` and
  ``async_checkpoint_overhead_pct`` are the steady-state price of
  durability (median of per-round paired ratios, with quartiles).
* ``checkpoint_save`` / ``checkpoint_resume`` — one full checkpoint
  write (atomic staging + CRC manifest + publish) and one
  ``latest_valid`` resume (scan + CRC verify + load into a model).
* ``atomic_savez`` vs ``plain_savez`` — the fsync+rename protocol's
  overhead over a bare ``np.savez_compressed``.
* ``chaos_point_noop`` — the per-call cost of a production fault point
  with no plan active (the only state production runs in).
* ``worker_kill_recovery`` — a data-parallel engine loses one worker
  mid-run; measures the crash-detect → respawn → re-shard → retry
  round-trip for a single step (skipped where multiprocessing is
  unavailable).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from typing import List, Optional

import numpy as np

from repro.core.cnn import BackboneConfig, WaferCNN
from repro.core.trainer import TrainConfig, Trainer
from repro.data.dataset import WaferDataset
from repro.nn.optim import Adam
from repro.parallel import parallel_supported
from repro.resilience.atomic import atomic_savez
from repro.resilience.chaos import chaos_point
from repro.resilience.checkpoint import CheckpointManager

from .harness import CaseResult, run_case

__all__ = ["run_resilience_suite"]


def _dataset(n: int, size: int) -> WaferDataset:
    rng = np.random.default_rng(0)
    grids = rng.integers(0, 3, size=(n, size, size))
    labels = rng.integers(0, 4, size=(n,)).astype(np.int64)
    return WaferDataset(grids, labels, ("a", "b", "c", "d"))


def _model(size: int) -> WaferCNN:
    return WaferCNN(
        4,
        BackboneConfig(
            input_size=size, conv_channels=(8, 8), conv_kernels=(3, 3),
            fc_units=32, seed=7,
        ),
    )


#: Round-robin rounds for the three training cases in full mode.
TRAIN_ROUNDS = 12

#: Checkpoint settings of the three training cases.
_TRAIN_VARIANTS = {
    "train_plain": {},
    "train_checkpointed": {"checkpoint_every": 1},
    "train_checkpointed_async": {"checkpoint_every": 1, "checkpoint_async": True},
}


def _train_cases(
    dataset: WaferDataset, size: int, epochs: int, rounds: int
) -> List[CaseResult]:
    """Time plain, sync- and async-checkpointed training round-robin.

    Each round runs every variant once and rotates which goes first, so
    a drift in machine load lands on all three alike.  The overheads are
    medians of the per-round ratios against the same round's plain run,
    with their quartiles.
    """
    def fit(extra) -> float:
        tmp = tempfile.mkdtemp(prefix="bench-ckpt-") if extra else None
        try:
            trainer = Trainer(
                _model(size),
                TrainConfig(
                    epochs=epochs, batch_size=16, seed=3, checkpoint_dir=tmp,
                    **extra,
                ),
            )
            started = time.perf_counter()
            trainer.fit(dataset)
            return time.perf_counter() - started
        finally:
            if tmp is not None:
                shutil.rmtree(tmp, ignore_errors=True)

    names = list(_TRAIN_VARIANTS)
    for name in names:  # warmup
        fit(_TRAIN_VARIANTS[name])
    times = {name: [] for name in names}
    for r in range(rounds):
        shift = r % len(names)
        for name in names[shift:] + names[:shift]:
            times[name].append(fit(_TRAIN_VARIANTS[name]))

    plain = np.asarray(times["train_plain"])
    cases = []
    for name in names:
        wall = np.asarray(times[name])
        case = CaseResult(
            name=name,
            repeats=rounds,
            wall_s_median=float(np.median(wall)),
            wall_s_min=float(wall.min()),
            params={
                "epochs": epochs, "samples": len(dataset), "input_size": size,
                "rounds": rounds, **_TRAIN_VARIANTS[name],
            },
            metrics={
                "wall_s_p25": float(np.percentile(wall, 25)),
                "wall_s_p75": float(np.percentile(wall, 75)),
            },
        )
        if name != "train_plain":
            key = ("async_" if "async" in name else "") + "checkpoint_overhead_pct"
            overhead = 100.0 * (wall / plain - 1.0)
            case.metrics[key] = float(np.median(overhead))
            case.metrics[key + "_p25"] = float(np.percentile(overhead, 25))
            case.metrics[key + "_p75"] = float(np.percentile(overhead, 75))
        cases.append(case)
    return cases


def _checkpoint_cases(size: int, repeats: int) -> List[CaseResult]:
    from repro.obs.metrics import MetricsRegistry

    model = _model(size)
    optimizer = Adam(model.parameters(), lr=1e-3)
    rng = np.random.default_rng(5)
    tmp = tempfile.mkdtemp(prefix="bench-ckpt-raw-")
    try:
        manager = CheckpointManager(tmp, keep=3, registry=MetricsRegistry())

        def save() -> None:
            manager.save(1, model=model, optimizer=optimizer, rng=rng)

        save_case = run_case(
            "checkpoint_save", save, repeats=repeats, warmup=1,
            params={"input_size": size, "members": 3},
        )

        target = _model(size)
        target_opt = Adam(target.parameters(), lr=1e-3)

        def resume() -> None:
            path = manager.latest_valid()
            manager.load(path, model=target, optimizer=target_opt)

        resume_case = run_case(
            "checkpoint_resume", resume, repeats=repeats, warmup=1,
            params={"input_size": size},
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return [save_case, resume_case]


def _atomic_cases(repeats: int) -> List[CaseResult]:
    payload = {
        f"arr{i}": np.random.default_rng(i).normal(size=(64, 64)).astype(np.float32)
        for i in range(8)
    }
    tmp = tempfile.mkdtemp(prefix="bench-atomic-")
    try:
        plain_path = os.path.join(tmp, "plain.npz")
        atomic_path = os.path.join(tmp, "atomic.npz")

        def plain() -> None:
            np.savez_compressed(plain_path, **payload)

        plain_case = run_case(
            "plain_savez", plain, repeats=repeats, warmup=1,
            params={"arrays": len(payload)},
        )

        def atomic() -> None:
            atomic_savez(atomic_path, **payload)

        atomic_case = run_case(
            "atomic_savez", atomic, repeats=repeats, warmup=1,
            params={"arrays": len(payload)},
        )
        atomic_case.metrics["overhead_pct"] = 100.0 * (
            atomic_case.wall_s_median / plain_case.wall_s_median - 1.0
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return [plain_case, atomic_case]


def _chaos_noop_case(repeats: int) -> CaseResult:
    calls = 100_000

    def run() -> None:
        for _ in range(calls):
            chaos_point("bench.noop", rank=0)

    case = run_case(
        "chaos_point_noop", run, repeats=repeats, warmup=1,
        params={"calls": calls},
    )
    case.metrics["ns_per_call"] = case.wall_s_median / calls * 1e9
    return case


def _recovery_case(size: int) -> Optional[CaseResult]:
    if not parallel_supported(2):
        return None
    from repro.obs.metrics import MetricsRegistry
    from repro.parallel.engine import DataParallelEngine, ObjectiveSpec
    from repro.resilience.retry import RetryPolicy

    model = _model(size)
    batch = 16
    rng = np.random.default_rng(0)
    inputs = rng.normal(size=(batch, 1, size, size)).astype(np.float32)
    labels = rng.integers(0, 4, size=(batch,)).astype(np.int64)
    weights = np.ones(batch, dtype=np.float32)

    engine = DataParallelEngine(
        model, ObjectiveSpec(), num_workers=2, max_batch=batch,
        retry=RetryPolicy(max_retries=2, base_delay_s=0.0, jitter=0.0),
        registry=MetricsRegistry(),
    )
    try:
        engine.train_step(inputs, labels, weights)  # warm start-up
        healthy_start = time.perf_counter()
        engine.train_step(inputs, labels, weights)
        healthy_s = time.perf_counter() - healthy_start

        engine._pool.kill(1)
        recovery_start = time.perf_counter()
        engine.train_step(inputs, labels, weights)
        recovery_s = time.perf_counter() - recovery_start
    finally:
        engine.shutdown()

    case = CaseResult(
        name="worker_kill_recovery",
        repeats=1,
        wall_s_median=recovery_s,
        wall_s_min=recovery_s,
        params={"num_workers": 2, "batch": batch, "input_size": size},
    )
    case.metrics["healthy_step_s"] = healthy_s
    case.metrics["recovery_step_s"] = recovery_s
    case.metrics["recovery_overhead_s"] = max(0.0, recovery_s - healthy_s)
    return case


def run_resilience_suite(smoke: bool = False, repeats: int = 3) -> List[CaseResult]:
    """Fault-tolerance overhead curves; ``smoke=True`` shrinks the
    workloads to seconds for the CI tier."""
    if smoke:
        repeats = min(repeats, 1)
    size = 16
    samples, epochs = (32, 1) if smoke else (96, 2)
    dataset = _dataset(samples, size)

    cases: List[CaseResult] = []
    rounds = 1 if smoke else TRAIN_ROUNDS
    cases.extend(_train_cases(dataset, size, epochs, rounds))
    cases.extend(_checkpoint_cases(size, repeats))
    cases.extend(_atomic_cases(repeats))
    cases.append(_chaos_noop_case(repeats))
    recovery = _recovery_case(size)
    if recovery is not None:
        cases.append(recovery)
    return cases
