"""``offline_lot``: bulk re-classification of a lot archive.

A lot of generator wafers (Table II test profile scaled to 502 wafers,
so the last chunk of 54 is a second input shape) is converted grid → tensor
and classified with ``SelectiveNet.predict_selective`` at batch 64 by
the Table-I model at 64×64, over and over for the measured seconds.
No serving layer runs; the inference kernels do the work.
"""

from __future__ import annotations

import time

import numpy as np

from fabbench import checks
from fabbench.common import WorkloadResult, median, peak_rss_mb
from fabbench.workloads import Workload

LOT_SCALE = 501 / 10871       # Table II test column, rounds to 502 wafers
SMOKE_LOT_SCALE = 70 / 10871
BATCH = 64
SAMPLE = 32                   # wafers re-checked on the reference path
MIN_LOTS = 2


def reference_forward(model, inputs: np.ndarray):
    """``(raw_labels, selection logits)`` on the recording (tape) path.

    Plain module calls outside ``inference_mode``: no compiled graph
    and no fused kernel, so the reference does not depend on
    ``repro.nn.compile``.
    """
    from repro import nn

    was_training = model.training
    model.eval()
    try:
        features = model.backbone(nn.Tensor(inputs))
        logits = model.prediction_head(features)
        scores = model.selection_head(features).reshape(-1)
    finally:
        model.train(was_training)
    return logits.data.argmax(axis=1), scores.data


class OfflineLot(Workload):
    name = "offline_lot"

    def setup(self) -> None:
        from repro.core.cnn import BackboneConfig
        from repro.core.selective import SelectiveNet
        from repro.data.generator import (
            PAPER_TEST_COUNTS,
            generate_dataset,
            scaled_counts,
        )
        from repro.nn.compile import compiled_for

        scale = SMOKE_LOT_SCALE if self.smoke else LOT_SCALE
        size = 32 if self.smoke else 64
        started = time.perf_counter()
        self.lot = generate_dataset(
            scaled_counts(PAPER_TEST_COUNTS, scale), size=size, seed=self.seed
        )
        self.generate_s = time.perf_counter() - started
        if len(self.lot) % BATCH == 0:
            raise ValueError("the lot must leave a partial tail chunk")
        self.model = SelectiveNet(
            9, BackboneConfig(input_size=size, seed=self.seed)
        )
        if self.recorder is not None:
            rec = self.recorder
            rec.wrap(self.model, "predict_selective", "predict.selective")
            rec.wrap(self.model, "predict_batched", "predict.batched")
            rec.wrap(compiled_for(self.model), "try_run", "model.chunk",
                     attrs_of=lambda chunk: {"n": len(chunk)})
            rec.enabled = False
        # Warm-up: compile both chunk shapes, and put the acceptance
        # threshold at the lot's median selection score so about half
        # the wafers are accepted and half abstain.
        started = time.perf_counter()
        _, scores = self.model.predict_batched(self.lot.tensors(), batch_size=BATCH)
        self.first_call_s = time.perf_counter() - started
        self.model.threshold = float(np.median(scores))

    def run(self) -> WorkloadResult:
        model, lot = self.model, self.lot
        walls, traced_walls = [], []
        first = None
        inconsistent = 0
        lots = 0
        deadline = time.perf_counter() + self.seconds
        while lots < MIN_LOTS or time.perf_counter() < deadline:
            # A traced run alternates untraced and traced lots, which
            # gives the tracing overhead in the same run.
            traced = self.recorder is not None and lots % 2 == 1
            if self.recorder is not None:
                self.recorder.enabled = traced
            started = time.perf_counter()
            if traced:
                with self.recorder.span("data.to_tensor"):
                    inputs = lot.tensors()
            else:
                inputs = lot.tensors()
            prediction = model.predict_selective(inputs, batch_size=BATCH)
            wall = time.perf_counter() - started
            (traced_walls if traced else walls).append(wall)
            if first is None:
                first = prediction
            elif not np.array_equal(prediction.labels, first.labels):
                inconsistent += 1
            lots += 1
        if self.recorder is not None:
            self.recorder.enabled = False

        rng = np.random.default_rng(self.seed)
        sample = np.sort(rng.choice(len(lot), size=min(SAMPLE, len(lot)), replace=False))
        ref_raw, ref_scores = reference_forward(model, lot.tensors()[sample])
        decisions = checks.selective_decisions(
            "labels and abstentions equal the tape-path reference",
            first.labels[sample], first.raw_labels[sample],
            first.selection_scores[sample], ref_raw, ref_scores,
            model.threshold,
        )
        repeat = checks.count_check(
            "every lot pass returns the first pass's labels",
            inconsistent, lots - 1, "repeated passes differed",
        )
        wrong = int(not decisions.ok) * len(sample) + inconsistent * len(lot)
        result = WorkloadResult(
            metrics={},
            attempted=lots * len(lot),
            failed=wrong,
            checks=[decisions, repeat],
            info={"notes": [
                f"{lots} lots of {len(lot)} wafers, batch {BATCH}; "
                f"lot wall p50 {median(walls) * 1e3:.1f} ms over {len(walls)} lots",
                f"coverage {first.coverage:.3f} at threshold {model.threshold:.4f}",
            ]},
        )
        if self.recorder is None:
            result.metrics = {
                "wafers_per_s": len(walls) * len(lot) / sum(walls),
                "latency_p50_ms": median(walls) * 1e3,
                "peak_rss_mb": peak_rss_mb(),
            }
        else:
            result.metrics = self._layers(walls, traced_walls)
            self.finish_trace(result)
        return result

    def _layers(self, walls, traced_walls) -> dict:
        from repro.obs.metrics import default_registry

        rec = self.recorder
        chunks = rec.named("model.chunk")
        full = [s.duration for s in chunks if s.attrs["n"] == BATCH]
        tail = [s.duration for s in chunks if s.attrs["n"] != BATCH]
        selective = rec.self_times().get("predict.selective", {})
        snapshot = default_registry().snapshot()
        counters, gauges = snapshot["counters"], snapshot["gauges"]
        return {
            "compile.graphs_built": counters.get("compile.graphs", 0),
            "compile.first_call_ms": self.first_call_s * 1e3,
            "compile.arena_mb": gauges.get("compile.arena_bytes", 0.0) / 2**20,
            "compile.fallbacks": counters.get("compile.fallbacks", 0),
            "model.batch_ms": median(full) * 1e3,
            "model.tail_batch_ms": median(tail) * 1e3,
            "data.to_tensor_ms": median(rec.durations("data.to_tensor")) * 1e3,
            "data.generate_s": self.generate_s,
            "predict.threshold_ms": (
                selective.get("self_s", 0.0) / max(selective.get("calls", 1), 1) * 1e3
            ),
            "trace.overhead_frac": median(traced_walls) / median(walls) - 1.0,
        }
