"""Training loops for the full-coverage CNN and the SelectiveNet.

The paper trains with Adam for 100 epochs, lambda = alpha = 0.5; the
:class:`TrainConfig` defaults mirror that, with batch size and epochs
scaled to what the numpy substrate can run in reasonable time.

Fault tolerance (see :mod:`repro.resilience`):

* ``checkpoint_dir`` enables crash-safe checkpoints — atomic
  directories with CRC manifests covering model + optimizer + RNG +
  epoch — and ``fit(..., resume="auto")`` restarts from the newest
  *valid* one, skipping corrupt checkpoints with a warning.  Because
  the shuffle RNG state is restored bit-exactly, the resumed
  trajectory matches the uninterrupted run.
* A :class:`~repro.resilience.TrainingWatchdog` inspects every batch
  (non-finite loss / gradient explosions) *before* the optimizer step;
  a trip rolls the model, optimizer, and RNG back to the last good
  checkpoint with a learning-rate cut instead of poisoning the run.
* Data-parallel training survives worker loss: the engine retries /
  re-shards transparently, and on total pool degradation
  (:class:`~repro.parallel.ParallelUnavailable`) the trainer finishes
  the *same batch* — and the rest of the run — on the serial path, so
  no step is skipped or double-applied.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from .. import nn
from ..data.dataset import BatchIterator, WaferDataset
from ..obs.flight import dump_flight, record_flight_event
from ..obs.trace import current_tracer
from ..resilience.chaos import chaos_point
from ..resilience.retry import RetryPolicy
from ..resilience.watchdog import TrainingWatchdog
from .cnn import WaferCNN
from .losses import selectivenet_objective
from .selective import SelectiveNet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs imports core)
    from ..obs.events import RunLogger

__all__ = ["TrainConfig", "EpochStats", "TrainHistory", "Trainer"]

logger = logging.getLogger("repro.trainer")


class _WatchdogTrip(Exception):
    """Internal: a batch failed the health check before the optimizer
    step was applied; carries the watchdog's reason string."""

    def __init__(self, reason: str, epoch: int) -> None:
        super().__init__(reason)
        self.reason = reason
        self.epoch = epoch


def _ensure_stream_handler() -> None:
    """Attach a plain stdout handler for ``verbose=True`` convenience.

    Users who configure ``logging`` themselves never hit this; it only
    fires when verbose output was requested and the ``repro.trainer``
    logger would otherwise swallow INFO records.
    """
    if logger.handlers or logging.getLogger().handlers:
        return
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter("%(message)s"))
    logger.addHandler(handler)


@dataclass
class TrainConfig:
    """Hyper-parameters shared by both training modes.

    ``target_coverage=1.0`` trains a plain cross-entropy model (the
    paper's full-coverage setup); anything below 1.0 trains the Eq. 9
    selective objective.
    """

    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 1e-3
    target_coverage: float = 1.0
    lam: float = 0.5
    alpha: float = 0.5
    weight_decay: float = 0.0
    penalty_mode: str = "symmetric"
    grad_clip: Optional[float] = None
    early_stopping_patience: Optional[int] = None
    seed: int = 0
    shuffle: bool = True
    verbose: bool = False
    #: >1 enables synchronous data-parallel training: each mini-batch
    #: is sharded across worker processes, gradients are combined, and
    #: one optimizer step is applied — same trajectory as serial
    #: training up to float summation order.  Silently falls back to
    #: serial where multiprocessing is unavailable.
    num_workers: int = 1
    #: Respawn budget per lost parallel worker (exponential backoff);
    #: 0 means a dead worker is never replaced and the pool shrinks.
    worker_retries: int = 2
    #: Directory for crash-safe checkpoints; ``None`` disables
    #: checkpointing (and with it watchdog rollback and resume).
    checkpoint_dir: Optional[str] = None
    #: Epochs between checkpoints (the final epoch is always saved).
    checkpoint_every: int = 1
    #: Retention bound passed to the checkpoint manager (0 keeps all).
    keep_checkpoints: int = 3
    #: Publish checkpoints on a background thread (state is snapshotted
    #: synchronously, so the training trajectory is unchanged).  Cuts
    #: the ``checkpoint_every=1`` wall-clock tax; ``fit`` still joins
    #: every in-flight save before returning or rolling back.
    checkpoint_async: bool = False
    #: Watchdog bound on the pre-clip global gradient L2 norm; ``None``
    #: disables the explosion check (non-finite values always trip).
    grad_norm_limit: Optional[float] = None
    #: Watchdog bound on the batch loss; ``None`` disables it.
    loss_limit: Optional[float] = None
    #: Learning-rate multiplier applied on each watchdog rollback.
    rollback_lr_cut: float = 0.5
    #: Watchdog rollbacks tolerated before the run fails loudly.
    max_rollbacks: int = 2

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if not 0.0 < self.target_coverage <= 1.0:
            raise ValueError("target_coverage must be in (0, 1]")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ValueError("grad_clip must be positive when set")
        if self.early_stopping_patience is not None and self.early_stopping_patience <= 0:
            raise ValueError("early_stopping_patience must be positive when set")
        if self.worker_retries < 0:
            raise ValueError("worker_retries must be non-negative")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.keep_checkpoints < 0:
            raise ValueError("keep_checkpoints must be non-negative")
        if not 0.0 < self.rollback_lr_cut <= 1.0:
            raise ValueError("rollback_lr_cut must be in (0, 1]")
        if self.max_rollbacks < 0:
            raise ValueError("max_rollbacks must be non-negative")


@dataclass
class EpochStats:
    """Metrics recorded after each epoch.

    ``grad_norm`` is the mean global L2 gradient norm over the epoch's
    batches (measured before clipping), the standard divergence /
    vanishing-gradient telltale in run logs.
    """

    epoch: int
    loss: float
    train_accuracy: float
    coverage: float
    selective_risk: float
    seconds: float
    val_accuracy: Optional[float] = None
    grad_norm: Optional[float] = None


@dataclass
class TrainHistory:
    """Accumulated per-epoch statistics."""

    epochs: List[EpochStats] = field(default_factory=list)

    def append(self, stats: EpochStats) -> None:
        self.epochs.append(stats)

    @property
    def final(self) -> EpochStats:
        if not self.epochs:
            raise ValueError("no epochs recorded")
        return self.epochs[-1]

    def losses(self) -> List[float]:
        return [e.loss for e in self.epochs]


class Trainer:
    """Trains either a :class:`WaferCNN` or a :class:`SelectiveNet`.

    The mode is inferred from the model type: a plain CNN always trains
    with weighted cross-entropy; a SelectiveNet trains with the Eq. 9
    objective when ``config.target_coverage < 1`` and degenerates to
    cross-entropy (alpha effectively 0) at full coverage.
    """

    def __init__(
        self,
        model: nn.Module,
        config: Optional[TrainConfig] = None,
        run_logger: Optional["RunLogger"] = None,
    ) -> None:
        if not isinstance(model, (WaferCNN, SelectiveNet)):
            raise TypeError("Trainer supports WaferCNN and SelectiveNet models")
        self.model = model
        self.config = config if config is not None else TrainConfig()
        self.run_logger = run_logger
        self.optimizer = nn.Adam(
            model.parameters(),
            lr=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )
        self.history = TrainHistory()
        self._rng = np.random.default_rng(self.config.seed)
        self.watchdog = TrainingWatchdog(
            grad_norm_limit=self.config.grad_norm_limit,
            loss_limit=self.config.loss_limit,
        )
        self._engine = None
        self._checkpoints = None
        if self.config.checkpoint_dir is not None:
            from ..resilience.checkpoint import CheckpointManager

            self._checkpoints = CheckpointManager(
                self.config.checkpoint_dir, keep=self.config.keep_checkpoints
            )
        from ..obs.metrics import default_registry

        reg = default_registry()
        self._m_rollbacks = reg.counter("train.rollbacks")
        self._m_watchdog = reg.counter("train.watchdog.trips")

    # ------------------------------------------------------------------
    def fit(
        self,
        train: WaferDataset,
        validation: Optional[WaferDataset] = None,
        callback: Optional[Callable[[EpochStats], None]] = None,
        resume: Optional[str] = None,
    ) -> TrainHistory:
        """Run the configured number of epochs; returns the history.

        Progress goes through the ``repro.trainer`` logger
        (``verbose=True`` attaches a stream handler as a convenience);
        when a :class:`~repro.obs.events.RunLogger` was passed to the
        constructor, the config, every :class:`EpochStats`, and a final
        summary are appended to its JSONL stream.

        ``resume="auto"`` restarts from the newest valid checkpoint in
        ``config.checkpoint_dir`` (a no-op when none exists); a path
        resumes from that specific checkpoint.  Model, optimizer, RNG,
        and early-stopping bookkeeping are all restored, so the
        resumed trajectory matches the uninterrupted run exactly.
        """
        if len(train) == 0:
            raise ValueError("cannot train on an empty dataset")
        if self.config.verbose:
            _ensure_stream_handler()
            logger.setLevel(logging.INFO)
        if self.run_logger is not None:
            self.run_logger.log_config(self.config)
        # Loop state: last finished epoch and early-stopping bookkeeping.
        # It is what a checkpoint carries and what _restore brings back.
        self._epoch = 0
        self._best_val = -np.inf
        self._stale_epochs = 0
        if resume is not None:
            path = self._resume_path(resume)
            if path is not None:
                self._restore(path)
                self._event(
                    "resume", logging.INFO, "resumed from %s (epoch %d)",
                    path, self._epoch, path=path, epoch=self._epoch,
                )
        batches = BatchIterator(
            train,
            batch_size=self.config.batch_size,
            rng=self._rng,
            shuffle=self.config.shuffle,
        )
        self._engine = self._make_engine()
        started = time.perf_counter()
        rollbacks = 0
        stop = False
        try:
            while self._epoch < self.config.epochs and not stop:
                epoch = self._epoch + 1
                self._check_engine_health()
                try:
                    stats = self._run_epoch(epoch, batches)
                except _WatchdogTrip as trip:
                    self._rollback(trip, rollbacks)
                    rollbacks += 1
                    self.history.epochs = [
                        s for s in self.history.epochs if s.epoch <= self._epoch
                    ]
                    continue
                if validation is not None:
                    stats.val_accuracy = self._quick_accuracy(validation)
                self.history.append(stats)
                if callback is not None:
                    callback(stats)
                if self.run_logger is not None:
                    self.run_logger.log_epoch(stats)
                val = f" val_acc={stats.val_accuracy:.3f}" if stats.val_accuracy is not None else ""
                logger.info(
                    "epoch %3d loss=%.4f acc=%.3f cov=%.3f grad=%.3f%s",
                    epoch, stats.loss, stats.train_accuracy, stats.coverage,
                    stats.grad_norm if stats.grad_norm is not None else 0.0, val,
                )
                self._epoch = epoch
                stop = self._early_stop(stats)
                if self._checkpoints is not None and (
                    epoch % self.config.checkpoint_every == 0
                    or epoch == self.config.epochs
                    or stop
                ):
                    self._save_checkpoint()
        finally:
            if self._engine is not None:
                self._engine.shutdown()
                self._engine = None
            if self._checkpoints is not None:
                # Join in-flight async publishes: fit() returning means
                # every checkpoint it reported is durable on disk.
                self._checkpoints.wait_pending()
        if self.run_logger is not None and self.history.epochs:
            final = self.history.final
            self.run_logger.log(
                "train_summary",
                epochs_run=len(self.history.epochs),
                wall_seconds=time.perf_counter() - started,
                final_loss=final.loss,
                final_train_accuracy=final.train_accuracy,
                final_coverage=final.coverage,
                final_val_accuracy=final.val_accuracy,
            )
        return self.history

    def _early_stop(self, stats: EpochStats) -> bool:
        """Advance the patience bookkeeping; True when training should stop."""
        patience = self.config.early_stopping_patience
        if patience is None or stats.val_accuracy is None:
            return False
        if stats.val_accuracy > self._best_val + 1e-9:
            self._best_val = stats.val_accuracy
            self._stale_epochs = 0
            return False
        self._stale_epochs += 1
        if self._stale_epochs < patience:
            return False
        self._event(
            "early_stop", logging.INFO, "early stop at epoch %d",
            stats.epoch, epoch=stats.epoch,
        )
        return True

    def _event(self, name: str, level: int, message: str, *args, **fields) -> None:
        """Log a training event and append it to the run log, if any."""
        logger.log(level, message, *args)
        if self.run_logger is not None:
            self.run_logger.log(name, **fields)

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    def _resume_path(self, resume: str) -> Optional[str]:
        """The checkpoint ``fit(resume=...)`` restores, or ``None``.

        ``"auto"`` picks the newest valid checkpoint (skipping corrupt
        ones) and is a silent no-op on a fresh run; an explicit path
        must validate or the :class:`~repro.resilience.IntegrityError`
        propagates from :meth:`_restore`.
        """
        if resume == "auto":
            if self._checkpoints is None:
                return None
            return self._checkpoints.latest_valid()
        if self._checkpoints is None:
            raise ValueError("resume from a path requires config.checkpoint_dir")
        return resume

    def _restore(self, path: str) -> None:
        """Load model, optimizer, RNG and loop state from a checkpoint."""
        state = self._checkpoints.load(path, self.model, self.optimizer)
        if state.get("rng_state"):
            self._checkpoints.restore_rng(self._rng, state["rng_state"])
        extra = state.get("extra") or {}
        saved_best = extra.get("best_val")
        self._epoch = int(state["epoch"])
        self._best_val = -np.inf if saved_best is None else float(saved_best)
        self._stale_epochs = int(extra.get("epochs_without_improvement", 0))

    def _save_checkpoint(self) -> None:
        result = self._checkpoints.save(
            self._epoch,
            model=self.model,
            optimizer=self.optimizer,
            rng=self._rng,
            extra={
                "best_val": float(self._best_val) if np.isfinite(self._best_val) else None,
                "epochs_without_improvement": int(self._stale_epochs),
            },
            async_=self.config.checkpoint_async,
        )
        path = result if isinstance(result, str) else result.path
        chaos_point("train.checkpoint.saved", path=path, epoch=self._epoch)

    def _rollback(self, trip: _WatchdogTrip, rollbacks: int) -> None:
        """Restore the last good checkpoint after a watchdog trip.

        Cuts the learning rate by ``config.rollback_lr_cut`` so the
        retried epochs do not immediately re-diverge.  Raises when no
        checkpointing is configured, nothing valid exists, or the
        rollback budget is spent — a run that cannot recover must fail
        loudly rather than train on poisoned weights.
        """
        self._event(
            "watchdog_trip", logging.WARNING, "watchdog tripped at epoch %d: %s",
            trip.epoch, trip.reason, epoch=trip.epoch, reason=trip.reason,
        )
        record_flight_event(
            "watchdog_rollback", epoch=trip.epoch, reason=trip.reason
        )
        dump_flight("watchdog-rollback")
        if self._checkpoints is None:
            raise RuntimeError(
                f"training diverged ({trip.reason}) and no checkpoint_dir "
                "is configured to roll back to"
            )
        if rollbacks >= self.config.max_rollbacks:
            raise RuntimeError(
                f"training diverged ({trip.reason}) after exhausting "
                f"{self.config.max_rollbacks} rollback(s)"
            )
        # Async publishes may still be in flight; rollback must only
        # consider durable checkpoints.
        self._checkpoints.wait_pending()
        path = self._checkpoints.latest_valid()
        if path is None:
            raise RuntimeError(
                f"training diverged ({trip.reason}) with no valid "
                "checkpoint to roll back to"
            )
        self._restore(path)
        self.optimizer.lr *= self.config.rollback_lr_cut
        self._m_rollbacks.inc()
        self._event(
            "rollback", logging.WARNING, "rolled back to %s (epoch %d), lr cut to %.3g",
            path, self._epoch, self.optimizer.lr,
            epoch=self._epoch, lr=float(self.optimizer.lr),
        )

    def _check_engine_health(self) -> None:
        """Epoch-boundary heartbeat; drops to serial on pool loss."""
        if self._engine is None:
            return
        from ..parallel import ParallelUnavailable

        try:
            self._engine.health_check()
        except ParallelUnavailable:
            self._serial_fallback("degraded")

    def _serial_fallback(self, how: str) -> None:
        # The engine shut itself down before raising ParallelUnavailable.
        logger.warning("data-parallel pool %s; continuing this run serially", how)
        self._engine = None

    # ------------------------------------------------------------------
    def _selective_mode(self) -> bool:
        return isinstance(self.model, SelectiveNet) and self.config.target_coverage < 1.0

    def _make_engine(self):
        """Build the data-parallel engine, or None for serial training.

        ``num_workers > 1`` on a platform without multiprocessing
        support logs a warning and falls back to serial — results are
        identical either way, only wall-clock differs.
        """
        if self.config.num_workers <= 1:
            return None
        from ..parallel import DataParallelEngine, ObjectiveSpec, parallel_supported

        if not parallel_supported(self.config.num_workers):
            logger.warning(
                "num_workers=%d requested but parallel execution is "
                "unavailable on this platform; training serially",
                self.config.num_workers,
            )
            return None
        objective = ObjectiveSpec(
            kind="selective" if self._selective_mode() else "cross_entropy",
            target_coverage=self.config.target_coverage,
            lam=self.config.lam,
            alpha=self.config.alpha,
            penalty_mode=self.config.penalty_mode,
        )
        return DataParallelEngine(
            self.model,
            objective,
            num_workers=self.config.num_workers,
            max_batch=self.config.batch_size,
            retry=RetryPolicy(
                max_retries=self.config.worker_retries, seed=self.config.seed
            ),
        )

    def _step(
        self, inputs: np.ndarray, labels: np.ndarray, weights: np.ndarray
    ) -> Tuple[float, int, float, float]:
        """Forward and backward for one batch, gradients left in place.

        Returns ``(loss, correct, coverage, selective_risk)``.  Runs on
        the data-parallel engine while one is live; cross-entropy
        training reports full coverage and its loss as the risk.
        """
        if self._engine is not None:
            from ..parallel import ParallelUnavailable

            try:
                step = self._engine.train_step(inputs, labels, weights)
                return step.loss, step.correct, step.coverage, step.selective_risk
            except ParallelUnavailable:
                # The engine never published this batch's gradients, so
                # finishing it serially keeps the trajectory intact —
                # nothing skipped, nothing double-applied.
                self._serial_fallback("lost mid-epoch")
        outputs = self.model(nn.Tensor(inputs))
        terms = None
        if self._selective_mode():
            logits, selection = outputs
            terms = selectivenet_objective(
                logits,
                selection,
                labels,
                target_coverage=self.config.target_coverage,
                lam=self.config.lam,
                alpha=self.config.alpha,
                sample_weights=weights,
                penalty_mode=self.config.penalty_mode,
            )
            loss = terms.total
        else:
            logits = outputs[0] if isinstance(outputs, tuple) else outputs
            loss = nn.cross_entropy(logits, labels, sample_weights=weights)
        self.optimizer.zero_grad(set_to_none=False)
        loss.backward()
        loss_value = float(loss.data)
        correct = int((logits.data.argmax(axis=1) == labels).sum())
        if terms is None:
            return loss_value, correct, 1.0, loss_value
        return loss_value, correct, terms.coverage, terms.selective_risk

    def _run_epoch(self, epoch: int, batches: BatchIterator) -> EpochStats:
        self.model.train()
        started = time.perf_counter()
        tracer = current_tracer()
        epoch_span = (
            tracer.start_span("train.epoch", epoch=epoch)
            if tracer is not None
            else None
        )
        total_loss = 0.0
        total_correct = 0
        total_samples = 0
        coverage_sum = 0.0
        risk_sum = 0.0
        grad_norm_sum = 0.0
        batch_count = 0

        with nn.train_scratch():
            for inputs, labels, weights in batches:
                chaos_point(
                    "train.batch", epoch=epoch, inputs=inputs, labels=labels
                )
                loss_value, correct, coverage, risk = self._step(
                    inputs, labels, weights
                )
                norm = self._grad_norm()
                reason = self.watchdog.check(loss_value, norm)
                if reason is not None:
                    # Checked before the optimizer step: poisoned
                    # gradients must never touch the weights.
                    self._m_watchdog.inc()
                    if epoch_span is not None:
                        epoch_span.event("watchdog_trip", reason=reason)
                        tracer.end(epoch_span, status="error")
                    raise _WatchdogTrip(reason, epoch)
                grad_norm_sum += norm
                if self.config.grad_clip is not None:
                    self._clip_gradients(self.config.grad_clip, norm=norm)
                self.optimizer.step()

                total_loss += loss_value * len(labels)
                total_correct += correct
                total_samples += len(labels)
                coverage_sum += coverage
                risk_sum += risk
                batch_count += 1

        stats = EpochStats(
            epoch=epoch,
            loss=total_loss / max(total_samples, 1),
            train_accuracy=total_correct / max(total_samples, 1),
            coverage=coverage_sum / max(batch_count, 1),
            selective_risk=risk_sum / max(batch_count, 1),
            seconds=time.perf_counter() - started,
            grad_norm=grad_norm_sum / max(batch_count, 1),
        )
        if epoch_span is not None:
            epoch_span.set("batches", batch_count)
            epoch_span.set("samples", total_samples)
            tracer.end(epoch_span, duration_s=stats.seconds)
        return stats

    def _grad_norm(self) -> float:
        """Global L2 norm over all parameter gradients."""
        total = 0.0
        for param in self.model.parameters():
            if param.grad is not None:
                total += float((param.grad.astype(np.float64) ** 2).sum())
        return float(np.sqrt(total))

    def _clip_gradients(self, max_norm: float, norm: Optional[float] = None) -> None:
        """Scale all gradients so their global L2 norm is <= max_norm."""
        if norm is None:
            norm = self._grad_norm()
        if norm > max_norm:
            scale = max_norm / (norm + 1e-12)
            for param in self.model.parameters():
                if param.grad is not None:
                    param.grad *= scale

    def _quick_accuracy(self, dataset: WaferDataset) -> float:
        """Validation accuracy; the predict paths stream fixed-size chunks,
        so peak memory stays bounded on large validation sets."""
        if len(dataset) == 0:
            return 0.0
        inputs = dataset.tensors()
        if isinstance(self.model, SelectiveNet):
            probabilities, _ = self.model.predict_batched(inputs)
            predictions = probabilities.argmax(axis=1)
        else:
            predictions = self.model.predict(inputs)
        return int((predictions == dataset.labels).sum()) / len(inputs)
