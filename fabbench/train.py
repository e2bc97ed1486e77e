"""``train_paper``: Eq. 9 selective training of the Table-I SelectiveNet.

About 500 generator maps with the Table II training class profile, at
64×64, trained by ``Trainer.fit`` with batch 64, target coverage 0.8 and
two data-parallel workers.  The first epoch (pool start, scratch
buffers) is a warm-up; throughput and step time come from the epochs
after it, and the run stops once those add up to the measured seconds.
"""

from __future__ import annotations

import math
import time
from typing import List

from fabbench import checks
from fabbench.common import WorkloadResult, median, peak_rss_mb
from fabbench.workloads import Workload

TRAIN_SCALE = 500 / 43484     # Table II training column, rounds to 502 maps
SMOKE_TRAIN_SCALE = 96 / 43484
BATCH = 64
TARGET_COVERAGE = 0.8
WORKERS = 2
MAX_EPOCHS = 100
PROFILE_BATCHES = 3           # serial batches under LayerProfiler (traced run)


class _Enough(Exception):
    """Raised from the epoch callback once enough epochs were measured."""


def build(seed: int, smoke: bool, num_workers: int = WORKERS, epochs: int = MAX_EPOCHS):
    """The workload's dataset and a trainer for its model."""
    from repro.core.cnn import BackboneConfig
    from repro.core.selective import SelectiveNet
    from repro.core.trainer import TrainConfig, Trainer
    from repro.data.generator import PAPER_TRAIN_COUNTS, generate_dataset, scaled_counts

    size = 32 if smoke else 64
    data = generate_dataset(
        scaled_counts(PAPER_TRAIN_COUNTS, SMOKE_TRAIN_SCALE if smoke else TRAIN_SCALE),
        size=size, seed=seed,
    )
    model = SelectiveNet(9, BackboneConfig(input_size=size, seed=seed))
    trainer = Trainer(model, TrainConfig(
        epochs=epochs, batch_size=BATCH, target_coverage=TARGET_COVERAGE,
        seed=seed, num_workers=num_workers,
    ))
    return data, trainer


class TrainPaper(Workload):
    name = "train_paper"

    def setup(self) -> None:
        started = time.perf_counter()
        self.data, self.trainer = build(self.seed, self.smoke)
        self.generate_s = time.perf_counter() - started
        # Step completion times, for per-step latency (a timestamp per
        # optimizer step; cheap enough for the untraced run).
        self.step_ends: List[float] = []
        optimizer = self.trainer.optimizer
        step = optimizer.step

        def timed_step() -> None:
            step()
            self.step_ends.append(time.perf_counter())

        optimizer.step = timed_step
        if self.recorder is not None:
            self.recorder.wrap(optimizer, "step", "optim.step")

    def run(self) -> WorkloadResult:
        from repro.obs.trace import arm_tracing, disarm_tracing

        epochs = []
        tracer = None
        min_measured = 2 if self.recorder is not None else 1

        def on_epoch(stats) -> None:
            nonlocal tracer
            epochs.append(stats)
            measured = epochs[1:]
            if (len(measured) >= min_measured
                    and sum(s.seconds for s in measured) >= self.seconds):
                raise _Enough()
            if self.recorder is not None:
                # Traced runs alternate untraced and traced epochs after
                # the warm-up, so the overhead comes from the same run.
                traced = len(epochs) % 2 == 0
                self.recorder.enabled = traced
                if traced:
                    tracer = tracer or arm_tracing(capacity=1 << 16, recorder=False)
                else:
                    disarm_tracing()

        if self.recorder is not None:
            self.recorder.enabled = False
        try:
            self.trainer.fit(self.data, callback=on_epoch)
        except _Enough:
            pass
        finally:
            disarm_tracing()

        steps_per_epoch = -(-len(self.data) // BATCH)
        measured = epochs[1:]
        intervals = [
            b - a
            for epoch in range(1, len(epochs))
            for a, b in zip(
                self.step_ends[epoch * steps_per_epoch:(epoch + 1) * steps_per_epoch],
                self.step_ends[epoch * steps_per_epoch + 1:(epoch + 1) * steps_per_epoch],
            )
        ]
        losses = [s.loss for s in epochs]
        loss_check = checks.finite_decreasing("epoch losses finite and trending down", losses)
        result = WorkloadResult(
            metrics={},
            attempted=len(self.step_ends),
            failed=sum(not math.isfinite(v) for v in losses),
            checks=[loss_check],
            info={"notes": [
                f"{len(epochs)} epochs of {len(self.data)} maps, {WORKERS} workers; "
                f"epoch seconds {', '.join(f'{s.seconds:.2f}' for s in epochs)}",
                f"step time p50 {median(intervals) * 1e3:.1f} ms over {len(intervals)} steps",
            ]},
        )
        if self.recorder is None:
            samples = len(self.data) * len(measured)
            result.metrics = {
                "wafers_per_s": samples / sum(s.seconds for s in measured),
                "latency_p50_ms": median(intervals) * 1e3,
                "peak_rss_mb": peak_rss_mb(),
            }
        else:
            traced = [s.seconds for i, s in enumerate(epochs) if i >= 1 and i % 2 == 0]
            untraced = [s.seconds for i, s in enumerate(epochs) if i >= 1 and i % 2 == 1]
            result.metrics = self._layers(tracer)
            result.metrics["trace.overhead_frac"] = median(traced) / median(untraced) - 1.0
            self.finish_trace(result)
        return result

    def _layers(self, tracer) -> dict:
        metrics = {
            "data.generate_s": self.generate_s,
            "optim.step_ms": median(self.recorder.durations("optim.step")) * 1e3,
        }
        metrics.update(_parallel_metrics(tracer.spans() if tracer else []))
        metrics.update(self._profile())
        return metrics

    def _profile(self) -> dict:
        """Per-leaf forward/backward time on a serial pass of the batches."""
        from repro import nn
        from repro.core.losses import selectivenet_objective
        from repro.obs.profile import LayerProfiler

        model, config = self.trainer.model, self.trainer.config
        inputs = self.data.tensors()
        labels = self.data.labels
        model.train()
        self.recorder.enabled = True
        profiler = LayerProfiler()
        with profiler.attach(model), nn.train_scratch():
            for index in range(PROFILE_BATCHES):
                lo = (index * BATCH) % len(inputs)
                x, y = inputs[lo:lo + BATCH], labels[lo:lo + BATCH]
                logits, selection = model(nn.Tensor(x))
                with self.recorder.span("loss.objective"):
                    terms = selectivenet_objective(
                        logits, selection, y,
                        target_coverage=config.target_coverage,
                        lam=config.lam, alpha=config.alpha,
                    )
                model.zero_grad()
                terms.total.backward()
        metrics = {}
        pool_relu = 0.0
        for layer in profiler.layers:
            metrics[f"nn.{layer.name}.fwd_ms"] = layer.forward_seconds / PROFILE_BATCHES * 1e3
            metrics[f"nn.{layer.name}.bwd_ms"] = layer.backward_seconds / PROFILE_BATCHES * 1e3
            if layer.module_type in ("MaxPool2D", "ReLU"):
                pool_relu += layer.total_seconds
        metrics["train.pool_relu_share"] = pool_relu / profiler.total_seconds()
        metrics["loss.objective_ms"] = median(self.recorder.durations("loss.objective")) * 1e3
        return metrics


def _parallel_metrics(spans) -> dict:
    """Step and shard times from the data-parallel engine's own spans.

    A ``parallel.shard`` span covers a worker's forward pass and partial
    sums (phase 1); the rest of the step — coefficient exchange, the
    workers' backward pass and the gradient sum — is ``phase2``.
    """
    steps = {s["span_id"]: s for s in spans if s["name"] == "parallel.step"}
    shards: dict = {}
    for span in spans:
        if span["name"] == "parallel.shard" and span["parent_id"] in steps:
            shards.setdefault(span["parent_id"], []).append(span["duration_s"])
    if not shards:
        return {}
    return {
        "parallel.step_ms": median([s["duration_s"] for s in steps.values()]) * 1e3,
        "parallel.shard_ms": median([d for ds in shards.values() for d in ds]) * 1e3,
        "parallel.phase2_ms": median(
            [steps[i]["duration_s"] - max(d) for i, d in shards.items()]) * 1e3,
    }


def fit_losses(seed: int, num_workers: int, epochs: int) -> List[float]:
    """Smoke-size epoch losses; the parity test compares worker counts."""
    data, trainer = build(seed, smoke=True, num_workers=num_workers, epochs=epochs)
    return trainer.fit(data).losses()
