"""Model and optimizer checkpointing to ``.npz`` files.

Writes go through :func:`repro.resilience.atomic_savez` (tmp + fsync +
rename), so a crash mid-save leaves the previous archive intact, never
a torn one.  Loads re-raise any unreadable/truncated-archive failure as
:class:`repro.resilience.IntegrityError` *before* touching the target
object — a corrupt file can never half-load a model.
"""

from __future__ import annotations

import os
from typing import Union

from ..resilience.atomic import IntegrityError, atomic_savez, read_npz
from .layers.base import Module
from .optim import Optimizer

__all__ = [
    "save_model",
    "load_model",
    "save_optimizer",
    "load_optimizer",
    "IntegrityError",
]

PathLike = Union[str, "os.PathLike[str]"]


def save_model(model: Module, path: PathLike) -> None:
    """Write a module's parameters and buffers to a compressed npz.

    Parameter names containing dots are npz-safe, so the state dict maps
    directly onto npz keys.  The write is atomic: readers observe the
    old archive or the complete new one, nothing in between.
    """
    atomic_savez(path, **model.state_dict())


def load_model(model: Module, path: PathLike) -> Module:
    """Load parameters saved with :func:`save_model` into ``model``.

    The model must already be constructed with matching architecture;
    shape mismatches raise ``ValueError``, unreadable archives
    :class:`IntegrityError`.
    """
    state = read_npz(path)
    model.load_state_dict(state)
    return model


def save_optimizer(optimizer: Optimizer, path: PathLike) -> None:
    """Write optimizer state (hyperparameters, step count, slot buffers
    such as Adam moments) to a compressed npz, atomically.

    Together with :func:`save_model` this makes a training run fully
    resumable: load both and continuing matches the uninterrupted run.
    """
    atomic_savez(path, **optimizer.state_dict())


def load_optimizer(optimizer: Optimizer, path: PathLike) -> Optimizer:
    """Load state saved with :func:`save_optimizer` into ``optimizer``.

    The optimizer must already be constructed over the same parameter
    list (same order and shapes); slot shape mismatches raise
    ``ValueError``, unreadable archives :class:`IntegrityError`.
    """
    state = read_npz(path)
    optimizer.load_state_dict(state)
    return optimizer
