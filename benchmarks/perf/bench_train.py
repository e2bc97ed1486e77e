"""Training benchmark: one Table-I epoch, plus the hot-path kernels.

``train_epoch_cnn`` times the full epoch loop — forward, loss, backward,
Adam step — on a synthetic dataset, as the baseline against which
training-path regressions are judged.  The kernel cases time the layers
that dominate a step, at the Table-I shapes one data-parallel worker
sees (batch 32 of 64×64 maps), with activations and incoming gradients
channels-last, as ``conv2d`` and ``col2im`` produce them in a step:

* ``maxpool_fwd_bwd``: the first 2x2 max-pool, forward and backward;
* ``relu_fwd_bwd``: the first ReLU, forward and backward;
* ``conv3_backward``: the backward pass alone of the second conv
  (64→32 channels, 3×3, 32×32), under ``train_scratch`` as the
  trainer runs it.
"""

from __future__ import annotations

import time
from typing import Callable, List, Tuple

import numpy as np

from repro import nn
from repro.core.cnn import BackboneConfig, WaferCNN
from repro.core.trainer import TrainConfig, Trainer
from repro.data.dataset import WaferDataset

from .harness import CaseResult, run_case

__all__ = ["run_train_suite"]

#: Per-worker batch of the fabbench ``train_paper`` workload (64 / 2).
KERNEL_BATCH = 32


def _synthetic_dataset(count: int, size: int, num_classes: int, seed: int = 0) -> WaferDataset:
    rng = np.random.default_rng(seed)
    grids = rng.integers(0, 3, size=(count, size, size)).astype(np.uint8)
    labels = rng.integers(0, num_classes, size=count).astype(np.int64)
    names = tuple(f"class{i}" for i in range(num_classes))
    return WaferDataset(grids=grids, labels=labels, class_names=names)


def _channels_last(rng: np.random.Generator, shape: Tuple[int, ...]) -> np.ndarray:
    """Random NCHW float32 activations backed by NHWC memory."""
    n, c, h, w = shape
    return rng.normal(size=(n, h, w, c)).astype(np.float32).transpose(0, 3, 1, 2)


def _fwd_bwd(layer: nn.Module, data: np.ndarray, upstream: np.ndarray) -> Callable[[], None]:
    def step() -> None:
        out = layer(nn.Tensor(data, requires_grad=True))
        out.backward(upstream)

    return step


def _backward_case(
    name: str, forward: Callable[[], Tuple[nn.Tensor, np.ndarray]], repeats: int, params: dict
) -> CaseResult:
    """Time only ``backward`` of a freshly recorded forward, after one warm-up."""
    times = []
    for _ in range(repeats + 1):
        out, upstream = forward()
        started = time.perf_counter()
        out.backward(upstream)
        times.append(time.perf_counter() - started)
    times = times[1:]
    return CaseResult(
        name=name,
        repeats=repeats,
        wall_s_median=float(np.median(times)),
        wall_s_min=float(min(times)),
        params=params,
    )


def _kernel_cases(smoke: bool, repeats: int) -> List[CaseResult]:
    rng = np.random.default_rng(0)
    batch, size = (4, 32) if smoke else (KERNEL_BATCH, 64)
    conv_out = (batch, 64, size, size)         # first conv's output
    pooled = (batch, 64, size // 2, size // 2)
    params = {"shape": list(conv_out), "layout": "channels_last", "dtype": "float32"}

    activations = np.maximum(_channels_last(rng, conv_out), 0)
    cases = [
        run_case(
            "maxpool_fwd_bwd",
            _fwd_bwd(nn.MaxPool2D(2), activations, _channels_last(rng, pooled)),
            repeats=repeats,
            params=dict(params, kernel=2),
        ),
        run_case(
            "relu_fwd_bwd",
            _fwd_bwd(nn.ReLU(), _channels_last(rng, conv_out), _channels_last(rng, conv_out)),
            repeats=repeats,
            params=params,
        ),
    ]

    conv = nn.Conv2D(64, 32, 3, padding="same", rng=rng)
    conv_in = np.maximum(_channels_last(rng, pooled), 0)
    conv_grad = _channels_last(rng, (batch, 32, size // 2, size // 2))

    def conv_forward() -> Tuple[nn.Tensor, np.ndarray]:
        return conv(nn.Tensor(conv_in, requires_grad=True)), conv_grad

    with nn.train_scratch():
        cases.append(_backward_case(
            "conv3_backward", conv_forward, repeats,
            dict(params, shape=list(pooled), out_channels=32, kernel=3),
        ))
    for case in cases:
        case.metrics["ms_median"] = case.wall_s_median * 1e3
    return cases


def run_train_suite(smoke: bool = False, repeats: int = 3) -> List[CaseResult]:
    """Time one training epoch and the hot-path kernels; ``smoke=True`` shrinks them."""
    if smoke:
        repeats = min(repeats, 1)
    count, size, batch = (32, 32, 16) if smoke else (128, 64, 64)
    num_classes = 4
    dataset = _synthetic_dataset(count, size, num_classes)
    config = BackboneConfig(input_size=size)

    def one_epoch() -> None:
        model = WaferCNN(num_classes=num_classes, config=config)
        trainer = Trainer(
            model,
            TrainConfig(epochs=1, batch_size=batch, shuffle=False, seed=0),
        )
        trainer.fit(dataset)

    case = run_case(
        "train_epoch_cnn",
        one_epoch,
        repeats=repeats,
        warmup=0,
        params={"samples": count, "input_size": size, "batch_size": batch, "arch": "table1"},
    )
    case.metrics["samples_per_s"] = count / case.wall_s_median
    return [case] + _kernel_cases(smoke, max(repeats, 5))
