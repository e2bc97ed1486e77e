"""Crash-safe training checkpoints: atomic directories + CRC manifests.

A checkpoint is one directory ``ckpt-<epoch>`` holding the model
weights, the optimizer slots, the trainer's RNG state, and arbitrary
extra bookkeeping, covered by a CRC32 :data:`~.atomic.MANIFEST_NAME`.
Writes are staged in a temporary sibling directory and published with
one ``rename``, so a ``SIGKILL`` at any instant leaves either the
previous checkpoint set or the previous set plus one complete new
checkpoint — never a torn directory that loads half a model.

:meth:`CheckpointManager.latest_valid` is the resume entry point: it
walks checkpoints newest-first, CRC-verifies each, and *skips* corrupt
ones with a logged warning (counted in
``train.checkpoint.corrupt_skipped``) instead of refusing to resume.
Verified manifests are memoized by ``(path, mtime_ns, size)`` so the
shadow-retrain loop can poll ``latest_valid()`` every stream step
without re-reading checkpoint bytes.

:meth:`CheckpointManager.save` also has an asynchronous mode
(``async_=True``): the model / optimizer / RNG state is *snapshotted
synchronously* (so training may mutate parameters immediately after
the call returns) while staging, fsync and the atomic publish rename
run on a background thread.  The returned :class:`AsyncSaveHandle`
joins the publish; a crash at any point before the rename leaves
``latest_valid()`` on the previous checkpoint (chaos point
``checkpoint.async.publish``).
"""

from __future__ import annotations

import json
import logging
import os
import re
import shutil
import threading
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .atomic import (
    IntegrityError,
    MANIFEST_NAME,
    atomic_savez,
    atomic_write_text,
    fsync_directory,
    read_npz,
    verify_manifest,
    write_manifest,
)
from .chaos import chaos_point

__all__ = [
    "AsyncSaveHandle",
    "CheckpointManager",
    "IntegrityError",
    "load_checkpoint_model",
    "validate_checkpoint",
]

logger = logging.getLogger("repro.resilience")

_CKPT_RE = re.compile(r"^ckpt-(\d{5})$")
_MODEL_FILE = "model.npz"
_OPTIMIZER_FILE = "optimizer.npz"
_STATE_FILE = "state.json"

#: ``state.json`` schema version.
STATE_SCHEMA = 1


def _registry(registry):
    if registry is not None:
        return registry
    from ..obs.metrics import default_registry

    return default_registry()


def validate_checkpoint(path: str) -> Dict[str, Any]:
    """CRC-verify one checkpoint directory and return its ``state.json``.

    Raises :class:`IntegrityError` on a missing/torn manifest, an
    unreadable state file, or a state schema newer than this code
    understands.  Module-level so consumers that hold only a path (the
    serving engine's ``swap_model``) verify with the same rules as the
    manager that wrote it.
    """
    verify_manifest(path)
    try:
        with open(os.path.join(path, _STATE_FILE), "r", encoding="utf-8") as fh:
            state = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise IntegrityError(f"{path}: unreadable state.json: {exc}") from exc
    if state.get("schema", 0) > STATE_SCHEMA:
        raise IntegrityError(
            f"{path}: state schema {state.get('schema')} is newer than "
            f"supported version {STATE_SCHEMA}"
        )
    return state


def load_checkpoint_model(path: str, model) -> None:
    """Load a checkpoint's model weights into ``model``.

    Callers verify the checkpoint first (:func:`validate_checkpoint`);
    a torn archive still raises :class:`IntegrityError`.
    """
    model.load_state_dict(read_npz(os.path.join(path, _MODEL_FILE)))


def _manifest_stamp(path: str) -> Optional[Tuple[int, int]]:
    """Freshness key for a verified checkpoint: manifest (mtime_ns, size)."""
    try:
        st = os.stat(os.path.join(path, MANIFEST_NAME))
    except OSError:
        return None
    return (st.st_mtime_ns, st.st_size)


class AsyncSaveHandle:
    """Join handle for one in-flight asynchronous checkpoint publish."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._done = threading.Event()
        self._error: Optional[BaseException] = None

    def _finish(self, error: Optional[BaseException] = None) -> None:
        self._error = error
        self._done.set()

    def done(self) -> bool:
        """True once the publish finished (successfully or not)."""
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> str:
        """Block until the checkpoint is durable; returns its path.

        Re-raises whatever the background writer raised, so a failed
        publish surfaces on the caller's thread instead of vanishing.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(f"async checkpoint save of {self.path} still running")
        if self._error is not None:
            raise self._error
        return self.path


def _copy_state(state: Dict[str, Any]) -> Dict[str, Any]:
    """Deep-copy array values so later training steps can't mutate the
    snapshot while the background writer serializes it."""
    out: Dict[str, Any] = {}
    for key, value in state.items():
        out[key] = value.copy() if isinstance(value, np.ndarray) else value
    return out


class CheckpointManager:
    """Owns one checkpoint directory tree and its retention policy.

    Parameters
    ----------
    directory:
        Root under which ``ckpt-<epoch>`` directories are created.
    keep:
        Retention bound — after each save only the newest ``keep``
        checkpoints survive (older ones are pruned).  ``0`` keeps all.
    registry:
        Metrics sink for save / corrupt-skip counters; defaults to the
        process-global registry.
    """

    def __init__(self, directory: str, keep: int = 3, registry=None) -> None:
        if keep < 0:
            raise ValueError("keep must be non-negative")
        self.directory = os.fspath(directory)
        self.keep = int(keep)
        reg = _registry(registry)
        self._saves = reg.counter("train.checkpoint.saves")
        self._async_saves = reg.counter("train.checkpoint.async_saves")
        self._corrupt_skipped = reg.counter("train.checkpoint.corrupt_skipped")
        self._verify_hits = reg.counter("train.checkpoint.verify_cache_hits")
        # (path -> (manifest stamp, state)) for checkpoints that passed
        # CRC verification; consulted by validate()/latest_valid().
        self._verified: Dict[str, Tuple[Tuple[int, int], Dict[str, Any]]] = {}
        # Serializes the write/publish phase across the caller thread
        # and background async writers.
        self._write_lock = threading.Lock()
        self._pending: List[AsyncSaveHandle] = []
        self._pending_lock = threading.Lock()

    # ------------------------------------------------------------------
    def save(
        self,
        epoch: int,
        model=None,
        optimizer=None,
        rng=None,
        extra: Optional[Dict[str, Any]] = None,
        async_: bool = False,
    ):
        """Write one complete checkpoint for ``epoch``.

        ``rng`` is a ``numpy.random.Generator`` whose bit-generator
        state is captured so a resumed run consumes the exact same
        shuffle stream as the uninterrupted one.

        With ``async_=False`` (default) blocks until the checkpoint is
        durable and returns its path.  With ``async_=True`` the state
        is snapshotted before returning, the disk work happens on a
        daemon thread, and an :class:`AsyncSaveHandle` is returned;
        call :meth:`AsyncSaveHandle.wait` (or
        :meth:`wait_pending`) before depending on durability.
        """
        model_state = None if model is None else _copy_state(model.state_dict())
        opt_state = None if optimizer is None else _copy_state(optimizer.state_dict())
        state_payload = {
            "schema": STATE_SCHEMA,
            "epoch": int(epoch),
            "rng_state": None if rng is None else rng.bit_generator.state,
            "extra": extra or {},
        }
        final = os.path.join(self.directory, f"ckpt-{epoch:05d}")
        if not async_:
            self._write_and_publish(final, model_state, opt_state, state_payload, async_=False)
            return final

        handle = AsyncSaveHandle(final)
        with self._pending_lock:
            self._pending.append(handle)

        def _writer() -> None:
            try:
                self._write_and_publish(final, model_state, opt_state, state_payload, async_=True)
            except BaseException as exc:  # surfaced via handle.wait()
                handle._finish(exc)
            else:
                handle._finish()

        thread = threading.Thread(
            target=_writer, name=f"ckpt-async-{epoch:05d}", daemon=True
        )
        thread.start()
        return handle

    def _write_and_publish(
        self,
        final: str,
        model_state: Optional[Dict[str, Any]],
        opt_state: Optional[Dict[str, Any]],
        state_payload: Dict[str, Any],
        async_: bool,
    ) -> None:
        epoch = int(state_payload["epoch"])
        with self._write_lock:
            staging = f"{final}.tmp.{os.getpid()}"
            if os.path.isdir(staging):  # stale orphan from a crashed save
                shutil.rmtree(staging)
            os.makedirs(staging)
            try:
                members: List[str] = []
                if model_state is not None:
                    atomic_savez(os.path.join(staging, _MODEL_FILE), **model_state)
                    members.append(_MODEL_FILE)
                if opt_state is not None:
                    atomic_savez(os.path.join(staging, _OPTIMIZER_FILE), **opt_state)
                    members.append(_OPTIMIZER_FILE)
                atomic_write_text(
                    os.path.join(staging, _STATE_FILE),
                    json.dumps(state_payload, sort_keys=True) + "\n",
                )
                members.append(_STATE_FILE)
                write_manifest(staging, members, extra={"epoch": epoch})
                if async_:
                    # A kill here must leave only the staging dir — the
                    # previous latest_valid() stays intact (chaos smoke
                    # pins this).
                    chaos_point("checkpoint.async.publish", path=final, epoch=epoch)
                # Publish: move any previous same-epoch checkpoint aside
                # (rollback re-runs epochs), then one atomic rename.
                if os.path.isdir(final):
                    self._verified.pop(final, None)
                    shutil.rmtree(final)
                os.rename(staging, final)
                fsync_directory(self.directory)
            except BaseException:
                shutil.rmtree(staging, ignore_errors=True)
                raise
            self._saves.inc()
            if async_:
                self._async_saves.inc()
            self._prune()

    def wait_pending(self, timeout: Optional[float] = None) -> List[str]:
        """Join every outstanding async save; returns their paths.

        Raises the first writer error encountered (after waiting on
        all of them), so callers that rely on durability — rollback,
        resume, end of ``fit`` — never proceed past a silently failed
        publish.
        """
        with self._pending_lock:
            pending, self._pending = self._pending, []
        paths: List[str] = []
        first_error: Optional[BaseException] = None
        for handle in pending:
            try:
                paths.append(handle.wait(timeout))
            except BaseException as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return paths

    # ------------------------------------------------------------------
    def checkpoints(self) -> List[str]:
        """All checkpoint paths, oldest first (no validity check)."""
        if not os.path.isdir(self.directory):
            return []
        found = []
        for name in os.listdir(self.directory):
            match = _CKPT_RE.match(name)
            if match:
                found.append((int(match.group(1)), os.path.join(self.directory, name)))
        return [path for _, path in sorted(found)]

    def validate(self, path: str) -> Dict[str, Any]:
        """CRC-verify one checkpoint and return its ``state.json``.

        Successful verifications are memoized by the manifest's
        ``(mtime_ns, size)`` stamp, so re-validating an unchanged
        checkpoint costs one ``stat`` instead of a full CRC pass.
        """
        stamp = _manifest_stamp(path)
        if stamp is not None:
            cached = self._verified.get(path)
            if cached is not None and cached[0] == stamp:
                self._verify_hits.inc()
                return cached[1]
        state = validate_checkpoint(path)
        if stamp is not None:
            self._verified[path] = (stamp, state)
        return state

    def latest_valid(self) -> Optional[str]:
        """Newest checkpoint that passes validation, skipping corrupt
        ones with a warning; ``None`` when nothing valid exists."""
        for path in reversed(self.checkpoints()):
            try:
                self.validate(path)
                return path
            except IntegrityError as exc:
                self._corrupt_skipped.inc()
                logger.warning("skipping corrupt checkpoint %s: %s", path, exc)
        return None

    # ------------------------------------------------------------------
    def load(self, path: str, model=None, optimizer=None) -> Dict[str, Any]:
        """Restore ``model`` / ``optimizer`` from a verified checkpoint.

        Returns the state mapping (``epoch``, ``rng_state``, ``extra``).
        Verification happens *before* any mutation, so a corrupt
        checkpoint raises :class:`IntegrityError` without half-loading.
        """
        state = self.validate(path)
        if model is not None:
            load_checkpoint_model(path, model)
        if optimizer is not None:
            optimizer.load_state_dict(read_npz(os.path.join(path, _OPTIMIZER_FILE)))
        return state

    @staticmethod
    def restore_rng(rng, rng_state: Dict[str, Any]) -> None:
        """Load a captured bit-generator state back into ``rng``."""
        rng.bit_generator.state = rng_state

    # ------------------------------------------------------------------
    def _prune(self) -> None:
        if self.keep == 0:
            return
        stale = self.checkpoints()[:-self.keep]
        for path in stale:
            self._verified.pop(path, None)
            shutil.rmtree(path, ignore_errors=True)
