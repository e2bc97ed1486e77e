"""Bit-identity wall: compiled outputs == plain ``no_grad`` layer outputs.

The compiler's core contract is that opting in changes *nothing* about
the numbers: every kernel computes exactly the values of its eager
tape-free twin, so outputs must be bit-identical (``assert_array_equal``,
no tolerance) in both float32 and the float64 verification mode.
"""

import numpy as np
import pytest

from repro import nn
from repro.core.cnn import BackboneConfig, WaferCNN
from repro.core.selective import SelectiveNet
from repro.nn.compile import compile_module, compiled_for, eager_only

DTYPES = [np.float32, np.float64]


def eager_forward(model, x):
    with eager_only(), nn.no_grad():
        return model(nn.Tensor(x)).data


def compiled_outputs(model, x):
    compiled = compile_module(model)
    outputs = compiled.try_run(x)
    assert outputs is not None, "stack was expected to compile"
    return outputs


def assert_bit_identical(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual, expected)


# ----------------------------------------------------------------------
# Layer stacks (Table-I building blocks and every traced layer kind)
# ----------------------------------------------------------------------
def _batchnorm2d_stack(rng):
    conv = nn.Conv2D(1, 6, 3, padding="same", rng=rng)
    bn = nn.BatchNorm2D(6)
    model = nn.Sequential(conv, bn, nn.ReLU())
    # Move the running stats off their init values so the folded
    # scale/shift is non-trivial.
    model.train()
    with nn.no_grad():
        model(nn.Tensor(rng.normal(size=(8, 1, 12, 12))))
    return model, (4, 1, 12, 12)


def _batchnorm1d_stack(rng):
    dense = nn.Dense(12, 8, rng=rng)
    bn = nn.BatchNorm1D(8)
    model = nn.Sequential(dense, bn, nn.Tanh())
    model.train()
    with nn.no_grad():
        model(nn.Tensor(rng.normal(size=(16, 12))))
    return model, (5, 12)


STACKS = {
    "conv_relu_maxpool": lambda rng: (
        nn.Sequential(nn.Conv2D(1, 8, 5, padding="same", rng=rng),
                      nn.ReLU(), nn.MaxPool2D(2)),
        (4, 1, 16, 16),
    ),
    "conv_valid_tanh": lambda rng: (
        nn.Sequential(nn.Conv2D(2, 6, 3, rng=rng), nn.Tanh()),
        (3, 2, 12, 12),
    ),
    "conv_leaky_avgpool": lambda rng: (
        nn.Sequential(nn.Conv2D(1, 4, 3, padding="same", rng=rng),
                      nn.LeakyReLU(0.2), nn.AvgPool2D(2)),
        (2, 1, 8, 8),
    ),
    "conv_strided_pool": lambda rng: (
        # Pool stride != kernel: must run as a standalone pool kernel,
        # not be folded into the conv's GEMM-rows tiling.
        nn.Sequential(nn.Conv2D(1, 4, 3, padding="same", rng=rng),
                      nn.ReLU(), nn.MaxPool2D(3, stride=2)),
        (2, 1, 11, 11),
    ),
    "upsample_sigmoid": lambda rng: (
        nn.Sequential(nn.Conv2D(1, 3, 3, padding="same", rng=rng),
                      nn.UpSample2D(2), nn.Sigmoid()),
        (2, 1, 6, 6),
    ),
    "dense_softmax_head": lambda rng: (
        nn.Sequential(nn.Flatten(), nn.Dense(32, 16, rng=rng), nn.ReLU(),
                      nn.Dense(16, 4, rng=rng), nn.Softmax()),
        (6, 2, 4, 4),
    ),
    "dense_log_softmax": lambda rng: (
        nn.Sequential(nn.Dense(10, 6, rng=rng), nn.LogSoftmax()),
        (7, 10),
    ),
    "dropout_is_identity_in_eval": lambda rng: (
        nn.Sequential(nn.Conv2D(1, 4, 3, padding="same", rng=rng),
                      nn.ReLU(), nn.Dropout(0.5)),
        (2, 1, 8, 8),
    ),
    "batchnorm2d_folded": _batchnorm2d_stack,
    "batchnorm1d_folded": _batchnorm1d_stack,
}


@pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
@pytest.mark.parametrize("stack", sorted(STACKS), ids=sorted(STACKS))
def test_layer_stack_bit_identical(stack, dtype):
    with nn.default_dtype(dtype):
        model, shape = STACKS[stack](np.random.default_rng(3))
        model.eval()
        x = np.random.default_rng(4).normal(size=shape).astype(dtype)
        outputs = compiled_outputs(model, x)
        assert_bit_identical(outputs[0], eager_forward(model, x))


@pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
def test_wafer_cnn_predict_proba_bit_identical(dtype):
    with nn.default_dtype(dtype):
        config = BackboneConfig(
            input_size=16, conv_channels=(4, 4), conv_kernels=(3, 3),
            fc_units=16, seed=7,
        )
        model = WaferCNN(4, config=config)
        model.eval()
        x = np.random.default_rng(0).normal(size=(6, 1, 16, 16)).astype(dtype)
        outputs = compiled_outputs(model, x)
        with eager_only():
            expected = model.predict_proba(x, batch_size=6)
        assert_bit_identical(outputs[0], expected)


@pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
def test_selective_net_predict_batched_bit_identical(dtype):
    with nn.default_dtype(dtype):
        config = BackboneConfig(
            input_size=16, conv_channels=(4, 4), conv_kernels=(3, 3),
            fc_units=16, seed=11,
        )
        model = SelectiveNet(4, config=config)
        model.eval()
        x = np.random.default_rng(1).normal(size=(5, 1, 16, 16)).astype(dtype)
        outputs = compiled_outputs(model, x)
        with eager_only():
            probabilities, scores = model.predict_batched(x, batch_size=5)
        assert_bit_identical(outputs[0], probabilities)
        assert_bit_identical(outputs[1], scores)


# ----------------------------------------------------------------------
# Run semantics
# ----------------------------------------------------------------------
def test_repeated_runs_stay_identical():
    """Arena reuse across runs must not leak state between batches."""
    model, shape = STACKS["conv_relu_maxpool"](np.random.default_rng(3))
    model.eval()
    rng = np.random.default_rng(5)
    a = rng.normal(size=shape).astype(np.float32)
    b = rng.normal(size=shape).astype(np.float32)
    compiled = compile_module(model)
    first_a = compiled.try_run(a)[0].copy()
    compiled.try_run(b)
    again_a = compiled.try_run(a)[0]
    np.testing.assert_array_equal(again_a, first_a)


def test_outputs_are_fresh_per_run():
    """Returned arrays escape to the caller; later runs must not alias them."""
    model, shape = STACKS["dense_softmax_head"](np.random.default_rng(3))
    model.eval()
    rng = np.random.default_rng(6)
    x = rng.normal(size=shape).astype(np.float32)
    compiled = compile_module(model)
    first = compiled.try_run(x)[0]
    kept = first.copy()
    first[...] = -1.0  # caller scribbles on its result
    second = compiled.try_run(x)[0]
    np.testing.assert_array_equal(second, kept)


def test_bindings_pick_up_parameter_updates():
    """Parameters are bound by reference: no stale weights after a step."""
    rng = np.random.default_rng(9)
    conv = nn.Conv2D(1, 4, 3, padding="same", rng=rng)
    model = nn.Sequential(conv, nn.ReLU())
    model.eval()
    x = rng.normal(size=(2, 1, 8, 8)).astype(np.float32)
    compiled = compile_module(model)
    before = compiled.try_run(x)[0].copy()
    with nn.no_grad():
        conv.weight.data += 0.25  # what an optimizer step would do
    after = compiled.try_run(x)[0]
    assert not np.array_equal(after, before)
    assert_bit_identical(after, eager_forward(model, x))


def test_release_then_rerun_rebuilds_identically():
    model, shape = STACKS["conv_relu_maxpool"](np.random.default_rng(3))
    model.eval()
    x = np.random.default_rng(7).normal(size=shape).astype(np.float32)
    compiled = compile_module(model)
    first = compiled.try_run(x)[0].copy()
    assert compiled.release() >= 0
    np.testing.assert_array_equal(compiled.try_run(x)[0], first)


def test_compiled_for_is_cached_per_model():
    model, _ = STACKS["dense_log_softmax"](np.random.default_rng(3))
    model.eval()
    assert compiled_for(model) is compiled_for(model)
