"""Shadow retraining and atomic promote/rollback.

The continual-operations loop closes here.  Labels trickling out of
the :class:`~repro.stream.queue.HumanLabelQueue` accumulate in a
:class:`LabelStore`, which holds back a validation slice (every
``holdback``-th label never trains).  When enough labels exist, the
:class:`ShadowTrainer` fine-tunes a *copy* of the serving model on the
training slice (the serving model is never touched), recalibrates the
acceptance threshold on the held-back slice, and writes a verified
checkpoint via :class:`~repro.resilience.checkpoint.CheckpointManager`.

The :class:`PromotionController` then runs the two-gate promotion:

1. **pre-gate** (cheap, in-process): the candidate's selective
   accuracy on the held-back label slice must clear
   ``min_candidate_accuracy`` — rejects a retrain that did not learn.
2. **swap + post-promote probe** (trusted): after
   :meth:`~repro.serve.engine.ServeEngine.swap_model` commits, the
   *serving path* is probed with the clean reference validation set.
   If accuracy on accepted wafers or coverage regresses beyond
   tolerance, the controller swaps straight back to the last good
   checkpoint — automatic rollback.  The reference set is the defense
   against poisoned labels: a retrain poisoned through the label queue
   can fool the pre-gate (its validation slice is drawn from the same
   poisoned stream) but not the trusted probe.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..core.calibration import threshold_for_coverage
from ..core.trainer import TrainConfig, Trainer
from ..data.dataset import WaferDataset
from ..obs.metrics import MetricsRegistry, default_registry
from ..resilience.checkpoint import CheckpointManager
from ..serve.engine import ServeEngine, SwapFailed
from .queue import LabeledWafer

__all__ = [
    "LabelStore",
    "ShadowTrainer",
    "CandidateReport",
    "PromotionReport",
    "PromotionController",
]


class LabelStore:
    """Accumulates human-labeled wafers, holding back a validation slice.

    Every ``holdback``-th usable label (novel flags carry no class and
    are excluded from both slices) goes to validation, the rest to
    training, deterministically by arrival index.
    """

    def __init__(self, class_names: Tuple[str, ...], holdback: int = 4) -> None:
        if holdback < 2:
            raise ValueError("holdback must be >= 2")
        self.class_names = tuple(class_names)
        self.holdback = int(holdback)
        self._train: List[LabeledWafer] = []
        self._val: List[LabeledWafer] = []
        self.novel_flags = 0
        self._usable_seen = 0

    def add(self, wafers: List[LabeledWafer]) -> None:
        for wafer in wafers:
            if wafer.label is None:
                self.novel_flags += 1
                continue
            if self._usable_seen % self.holdback == 0:
                self._val.append(wafer)
            else:
                self._train.append(wafer)
            self._usable_seen += 1

    @property
    def train_size(self) -> int:
        return len(self._train)

    @property
    def val_size(self) -> int:
        return len(self._val)

    def clear(self) -> None:
        """Drop accumulated labels (after they fed a retrain)."""
        self._train.clear()
        self._val.clear()

    def _dataset(self, wafers: List[LabeledWafer]) -> WaferDataset:
        return WaferDataset(
            grids=np.stack([w.grid for w in wafers]),
            labels=np.asarray([w.label for w in wafers], dtype=np.int64),
            class_names=self.class_names,
        )

    def train_dataset(self) -> WaferDataset:
        if not self._train:
            raise ValueError("label store has no training labels")
        return self._dataset(self._train)

    def val_dataset(self) -> WaferDataset:
        if not self._val:
            raise ValueError("label store has no held-back labels")
        return self._dataset(self._val)


@dataclass
class CandidateReport:
    """One shadow retrain: where it landed and how it scored."""

    checkpoint: str
    threshold: float
    val_accuracy: float
    val_coverage: float
    train_labels: int
    val_labels: int


class ShadowTrainer:
    """Fine-tunes a copy of a serving model on queued human labels."""

    def __init__(
        self,
        base_model,
        checkpoints: CheckpointManager,
        train_config: Optional[TrainConfig] = None,
        target_coverage: float = 0.75,
        run_logger=None,
    ) -> None:
        self.base_model = base_model
        self.checkpoints = checkpoints
        self.train_config = train_config if train_config is not None else TrainConfig(
            epochs=6, batch_size=16
        )
        self.target_coverage = float(target_coverage)
        self.run_logger = run_logger
        self.retrains = 0

    def retrain(self, store: LabelStore) -> CandidateReport:
        """Produce a calibrated candidate checkpoint from the store.

        The serving model is deep-copied first; training never touches
        the original.  The threshold is recalibrated for
        ``target_coverage`` on the held-back slice and stored in the
        checkpoint's ``extra`` payload so promotion can apply it.
        """
        train_data = store.train_dataset()
        validation = store.val_dataset()
        candidate = copy.deepcopy(self.base_model)
        config = TrainConfig(**{
            **self.train_config.__dict__,
            "target_coverage": self.target_coverage,
        })
        trainer = Trainer(candidate, config, run_logger=self.run_logger)
        trainer.fit(train_data, validation=validation)

        probabilities, scores = candidate.predict_batched(validation.tensors())
        correct = probabilities.argmax(axis=1) == validation.labels
        calibration = threshold_for_coverage(scores, self.target_coverage, correct)
        threshold = float(calibration.threshold)
        # The k-th score always passes its own threshold, so at least one
        # sample is accepted and realized_accuracy is never None here.
        val_coverage = calibration.realized_coverage
        val_accuracy = calibration.realized_accuracy

        self.retrains += 1
        path = self.checkpoints.save(
            epoch=self.retrains,
            model=candidate,
            extra={
                "threshold": threshold,
                "val_accuracy": val_accuracy,
                "val_coverage": val_coverage,
                "train_labels": store.train_size,
                "val_labels": store.val_size,
            },
        )
        return CandidateReport(
            checkpoint=str(path),
            threshold=threshold,
            val_accuracy=val_accuracy,
            val_coverage=val_coverage,
            train_labels=store.train_size,
            val_labels=store.val_size,
        )


@dataclass
class PromotionReport:
    """Outcome of one promotion attempt."""

    #: "promoted" | "rejected_pre_gate" | "rolled_back" | "swap_failed"
    outcome: str
    candidate: CandidateReport
    generation: Optional[int] = None
    probe_accuracy: Optional[float] = None
    probe_coverage: Optional[float] = None
    detail: str = ""


class PromotionController:
    """Two-gate promote with automatic rollback on the trusted probe.

    ``reference`` is a clean, trusted validation
    :class:`~repro.data.dataset.WaferDataset` (e.g. the original
    training-time validation split) — the only data the controller
    believes unconditionally.  ``baseline_accuracy`` /
    ``baseline_coverage`` anchor the regression tolerances; they are
    re-anchored after every successful promotion.
    """

    def __init__(
        self,
        engine: ServeEngine,
        reference: WaferDataset,
        baseline_checkpoint: str,
        baseline_threshold: float,
        baseline_accuracy: float,
        baseline_coverage: float,
        min_candidate_accuracy: float = 0.6,
        accuracy_tolerance: float = 0.02,
        coverage_tolerance: float = 0.25,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.engine = engine
        self.reference = reference
        self.last_good_checkpoint = baseline_checkpoint
        self.last_good_threshold = float(baseline_threshold)
        self.baseline_accuracy = float(baseline_accuracy)
        self.baseline_coverage = float(baseline_coverage)
        self.min_candidate_accuracy = float(min_candidate_accuracy)
        self.accuracy_tolerance = float(accuracy_tolerance)
        self.coverage_tolerance = float(coverage_tolerance)
        registry = registry if registry is not None else default_registry()
        self._promotes = registry.counter("stream.promotes")
        self._rollbacks = registry.counter("stream.rollbacks")
        self._rejects = registry.counter("stream.promotions_rejected")
        self.history: List[PromotionReport] = []

    # -- probing --------------------------------------------------------
    def probe(self) -> Tuple[float, float]:
        """Measure the *serving path* on the trusted reference set.

        Returns ``(accuracy_on_accepted, coverage)``; accuracy is 1.0
        by convention when nothing is accepted (coverage gate handles
        that case).
        """
        results = self.engine.classify_many(list(self.reference.grids))
        accepted = [
            (result, int(label))
            for result, label in zip(results, self.reference.labels)
            if result.accepted
        ]
        coverage = len(accepted) / len(results) if results else 0.0
        if not accepted:
            return 1.0, coverage
        correct = sum(1 for result, label in accepted if result.label == label)
        return correct / len(accepted), coverage

    # -- promotion ------------------------------------------------------
    def consider(self, candidate: CandidateReport) -> PromotionReport:
        """Run the full gate sequence on a candidate checkpoint."""
        report = self._consider(candidate)
        self.history.append(report)
        return report

    def _consider(self, candidate: CandidateReport) -> PromotionReport:
        if candidate.val_accuracy < self.min_candidate_accuracy:
            self._rejects.inc()
            return PromotionReport(
                outcome="rejected_pre_gate",
                candidate=candidate,
                detail=(
                    f"candidate val accuracy {candidate.val_accuracy:.3f} < "
                    f"{self.min_candidate_accuracy:.3f}"
                ),
            )
        try:
            swap = self.engine.swap_model(
                candidate.checkpoint, threshold=candidate.threshold
            )
        except SwapFailed as exc:
            self._rejects.inc()
            return PromotionReport(
                outcome="swap_failed", candidate=candidate, detail=str(exc)
            )
        accuracy, coverage = self.probe()
        accuracy_floor = self.baseline_accuracy - self.accuracy_tolerance
        coverage_floor = self.baseline_coverage - self.coverage_tolerance
        if accuracy < accuracy_floor or coverage < coverage_floor:
            rollback = self.engine.swap_model(
                self.last_good_checkpoint, threshold=self.last_good_threshold
            )
            self._rollbacks.inc()
            return PromotionReport(
                outcome="rolled_back",
                candidate=candidate,
                generation=rollback.generation,
                probe_accuracy=accuracy,
                probe_coverage=coverage,
                detail=(
                    f"post-promote probe accuracy {accuracy:.3f} "
                    f"(floor {accuracy_floor:.3f}) coverage {coverage:.3f} "
                    f"(floor {coverage_floor:.3f})"
                ),
            )
        self.last_good_checkpoint = candidate.checkpoint
        self.last_good_threshold = candidate.threshold
        self.baseline_accuracy = max(self.baseline_accuracy, accuracy)
        self.baseline_coverage = max(self.baseline_coverage, coverage)
        self._promotes.inc()
        return PromotionReport(
            outcome="promoted",
            candidate=candidate,
            generation=swap.generation,
            probe_accuracy=accuracy,
            probe_coverage=coverage,
        )

    def stats(self) -> Dict[str, Any]:
        return {
            "promotions": sum(
                1 for r in self.history if r.outcome == "promoted"
            ),
            "rollbacks": sum(
                1 for r in self.history if r.outcome == "rolled_back"
            ),
            "rejected": sum(
                1 for r in self.history
                if r.outcome in ("rejected_pre_gate", "swap_failed")
            ),
            "last_good_checkpoint": self.last_good_checkpoint,
            "baseline_accuracy": self.baseline_accuracy,
            "baseline_coverage": self.baseline_coverage,
        }
