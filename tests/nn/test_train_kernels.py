"""Bit-identity wall for the training-path pooling, ReLU and col2im kernels.

The recording ``max_pool2d`` keeps a per-window winner tap instead of
reducing a strided window view, ``Tensor.relu`` computes its output with
``np.maximum``, and ``col2im`` scatters one sample at a time into a
channels-last image.  Each must reproduce the kernel it replaced — kept
here as a test-local reference — exactly: forward values and input
gradients, in float32 and float64, including tie-heavy post-ReLU inputs,
floor-truncated odd sizes and the channels-last views ``conv2d``
returns.  A full Table-I SelectiveNet step pins the composition.
"""

import contextlib

import numpy as np
import pytest

from repro import nn
from repro.core.cnn import BackboneConfig
from repro.core.losses import selectivenet_objective
from repro.core.selective import SelectiveNet
from repro.nn import functional as F
from repro.nn.tensor import Tensor

DTYPES = (np.float32, np.float64)


# ---------------------------------------------------------------------------
# Reference kernels: the argmax max-pool, ``x * mask`` ReLU and
# whole-batch NCHW col2im that the training path used before.
# ---------------------------------------------------------------------------
def reference_max_pool2d(x, kernel=2, stride=None):
    kernel = F._pair(kernel)
    stride = F._pair(stride) if stride is not None else kernel
    n, c, h, w = x.shape
    (kh, kw), (sh, sw) = kernel, stride
    out_h, out_w = (h - kh) // sh + 1, (w - kw) // sw + 1
    s = x.data.strides
    windows = np.lib.stride_tricks.as_strided(
        x.data,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(s[0], s[1], s[2] * sh, s[3] * sw, s[2], s[3]),
        writeable=False,
    )
    flat = windows.reshape(n, c, out_h, out_w, kh * kw)
    argmax = flat.argmax(axis=-1)
    out_data = np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0]

    def backward(grad):
        grad_x = np.zeros_like(x.data)
        ki, kj = np.unravel_index(argmax, (kh, kw))
        n_idx, c_idx, i_idx, j_idx = np.indices(argmax.shape)
        np.add.at(grad_x, (n_idx, c_idx, i_idx * sh + ki, j_idx * sw + kj), grad)
        x._accumulate(grad_x)

    return Tensor._make(out_data, (x,), backward)


def reference_relu(self):
    mask = self.data > 0
    out_data = self.data * mask

    def backward(grad):
        self._accumulate(grad * mask)

    return Tensor._make(out_data, (self,), backward)


def reference_col2im(cols, x_shape, kernel, stride, padding, out_padded=None):
    assert out_padded is None, "the reference runs without train_scratch"
    n, c, h, w = x_shape
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    out_h = F.conv_output_size(h, kh, sh, ph)
    out_w = F.conv_output_size(w, kw, sw, pw)
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    reshaped = cols.reshape(n, out_h, out_w, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i:i + sh * out_h:sh, j:j + sw * out_w:sw] += reshaped[:, :, i, j]
    return padded[:, :, ph:h + ph, pw:w + pw]


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------
def _post_relu(rng, shape, dtype):
    """ReLU output with dense ties: all-zero windows and -0.0/+0.0 pairs."""
    x = np.maximum(rng.normal(size=shape), 0).astype(dtype)
    n, c, h, w = shape
    x[:, :, : h // 2, : w // 2] = 0.0  # a block of all-zero windows
    signed = rng.random(size=shape) < 0.5
    zeros = x == 0
    x[zeros & signed] = -0.0  # mixed-sign zero ties
    return x


def _channels_last(x):
    """The same values backed by NHWC memory, as conv2d returns them."""
    view = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    assert not view.flags.c_contiguous or view.shape[1] == 1
    return view


POOL_CASES = [
    # (id, shape, kernel, stride)
    ("table1_2x2", (3, 4, 8, 8), 2, None),
    ("odd_truncated", (2, 3, 7, 9), 2, None),
    ("rect_truncated", (2, 3, 7, 8), (3, 2), None),
    ("gapped", (2, 2, 9, 9), 2, 3),
]


def _pool_inputs(rng, shape, dtype):
    dense = _post_relu(rng, shape, dtype)
    return {
        "post_relu": dense,
        "post_relu_channels_last": _channels_last(dense),
        "all_zero_signed": np.where(rng.random(shape) < 0.5, -0.0, 0.0).astype(dtype),
        "normal_channels_last": _channels_last(rng.normal(size=shape).astype(dtype)),
    }


def _run(fn, data, upstream, *args):
    x = Tensor(data, requires_grad=True, dtype=data.dtype)
    out = fn(x, *args)
    out.backward(upstream.astype(out.dtype))
    return out.data, x.grad


class TestMaxPoolMatchesArgmaxReference:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("case_id,shape,kernel,stride", POOL_CASES)
    def test_forward_and_input_grad(self, rng, dtype, case_id, shape, kernel, stride):
        for name, data in _pool_inputs(rng, shape, dtype).items():
            out_shape = reference_max_pool2d(Tensor(data, dtype=dtype), kernel, stride).shape
            upstream = rng.normal(size=out_shape)
            new_out, new_grad = _run(F.max_pool2d, data, upstream, kernel, stride)
            ref_out, ref_grad = _run(reference_max_pool2d, data, upstream, kernel, stride)
            np.testing.assert_array_equal(new_out, ref_out, err_msg=name)
            np.testing.assert_array_equal(new_grad, ref_grad, err_msg=name)
            assert new_grad.dtype == dtype

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_overlapping_windows(self, rng, dtype):
        """Stride < kernel: forward exact, grads equal up to summation order."""
        data = _channels_last(_post_relu(rng, (2, 3, 9, 9), dtype))
        upstream = rng.normal(size=(2, 3, 4, 4))
        new_out, new_grad = _run(F.max_pool2d, data, upstream, 3, 2)
        ref_out, ref_grad = _run(reference_max_pool2d, data, upstream, 3, 2)
        np.testing.assert_array_equal(new_out, ref_out)
        np.testing.assert_allclose(new_grad, ref_grad, rtol=1e-6, atol=1e-6)

    def test_winner_is_first_maximum(self):
        x = np.array([[[[0.0, 0.0], [0.0, 0.0]]]], dtype=np.float32)
        for window, first in (
            ([0.0, 0.0, 0.0, 0.0], 0),
            ([-0.0, 0.0, 0.0, -0.0], 0),
            ([1.0, 3.0, 3.0, 2.0], 1),
            ([-2.0, -1.0, -3.0, -1.0], 1),
            ([0.0, 0.0, 0.0, 5.0], 3),
        ):
            x[0, 0] = np.reshape(window, (2, 2))
            _, winner = F._pool_max_slices(x, (2, 2), (2, 2), winner=True)
            assert winner.dtype == np.uint8
            assert winner[0, 0, 0, 0] == first == np.argmax(window)

    def test_keeps_channels_last_layout(self, rng):
        data = _channels_last(rng.normal(size=(2, 4, 8, 8)).astype(np.float32))
        out, winner = F._pool_max_slices(data, (2, 2), (2, 2), winner=True)
        assert out.transpose(0, 2, 3, 1).flags.c_contiguous
        assert winner.transpose(0, 2, 3, 1).flags.c_contiguous


class TestReluMatchesMaskReference:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_forward_and_input_grad(self, rng, dtype):
        shape = (3, 4, 6, 6)
        for data in (
            rng.normal(size=shape).astype(dtype),
            _channels_last(rng.normal(size=shape).astype(dtype)),
            _post_relu(rng, shape, dtype),
        ):
            upstream = rng.normal(size=shape)
            new_out, new_grad = _run(Tensor.relu, data, upstream)
            ref_out, ref_grad = _run(reference_relu, data, upstream)
            np.testing.assert_array_equal(new_out, ref_out)
            np.testing.assert_array_equal(new_grad, ref_grad)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_train_mode_output_bytes_match_no_grad(self, rng, dtype):
        """Regression: ``x * mask`` wrote -0.0 for every negative input."""
        data = rng.normal(size=(8, 16, 32, 32)).astype(dtype)
        train = Tensor(data, requires_grad=True, dtype=dtype).relu()
        assert train.requires_grad
        with nn.no_grad():
            frozen = Tensor(data, dtype=dtype).relu()
        assert train.data.tobytes() == frozen.data.tobytes()
        assert not np.signbit(train.data[data < 0]).any()

    def test_keeps_channels_last_layout(self, rng):
        data = _channels_last(rng.normal(size=(2, 4, 5, 5)).astype(np.float32))
        out = Tensor(data, requires_grad=True).relu()
        assert out.data.transpose(0, 2, 3, 1).flags.c_contiguous


COL2IM_CASES = [
    # (x_shape, kernel, stride, padding)
    ((3, 5, 8, 8), (3, 3), (1, 1), (1, 1)),    # Table-I "same" 3x3
    ((2, 1, 12, 12), (5, 5), (1, 1), (2, 2)),  # Table-I first layer
    ((2, 3, 7, 9), (3, 2), (2, 1), (0, 1)),    # strided, rectangular, odd
    ((2, 2, 5, 5), (2, 2), (2, 2), (0, 0)),    # disjoint windows, tail
]


class TestCol2imMatchesWholeBatchReference:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("x_shape,kernel,stride,padding", COL2IM_CASES)
    def test_bit_identical(self, rng, dtype, x_shape, kernel, stride, padding):
        n, c, h, w = x_shape
        out_h, out_w = (
            F.conv_output_size(size, k, s, p)
            for size, k, s, p in zip((h, w), kernel, stride, padding)
        )
        cols = rng.normal(size=(n * out_h * out_w, c * kernel[0] * kernel[1])).astype(dtype)
        expected = reference_col2im(cols, x_shape, kernel, stride, padding)
        got = F.col2im(cols, x_shape, kernel, stride, padding)
        assert got.shape == x_shape
        np.testing.assert_array_equal(got, expected)
        assert got.tobytes() == expected.tobytes()

        scratch = np.full((n, h + 2 * padding[0], w + 2 * padding[1], c), np.nan, dtype)
        reused = F.col2im(cols, x_shape, kernel, stride, padding, out_padded=scratch)
        assert reused.tobytes() == expected.tobytes()


class TestAvgPoolTrainMatchesEval:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("kernel,stride", [(2, None), (2, 1), (3, 2)])
    def test_forward_bytes_equal(self, rng, dtype, kernel, stride):
        data = rng.normal(size=(4, 8, 15, 15)).astype(dtype)
        train = F.avg_pool2d(Tensor(data, requires_grad=True, dtype=dtype), kernel, stride)
        assert train.requires_grad
        with nn.no_grad():
            frozen = F.avg_pool2d(Tensor(data, dtype=dtype), kernel, stride)
        assert train.data.tobytes() == frozen.data.tobytes()


def _selective_step(dtype, use_scratch):
    """Parameter grads and loss of one Table-I SelectiveNet training step."""
    with nn.default_dtype(dtype):
        model = SelectiveNet(9, BackboneConfig(input_size=64, seed=3))
        model.astype(dtype)
        rng = np.random.default_rng(11)
        x = (rng.random((6, 1, 64, 64)) < 0.4).astype(dtype)
        x[:, :, :20] = 0.0  # blank rows: all-zero conv patches and pool windows
        y = rng.integers(0, 9, size=6)
        model.train()
        with nn.train_scratch() if use_scratch else contextlib.nullcontext():
            logits, selection = model(Tensor(x, dtype=dtype))
            terms = selectivenet_objective(logits, selection, y, target_coverage=0.8)
            model.zero_grad()
            terms.total.backward()
        return terms.total.data.copy(), [p.grad.copy() for p in model.parameters()]


class TestTableOneStepMatchesReferenceKernels:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_parameter_grads_bit_equal(self, dtype, monkeypatch):
        new_losses, new_grads = [], []
        for use_scratch in (True, False):
            loss, grads = _selective_step(dtype, use_scratch)
            new_losses.append(loss)
            new_grads.append(grads)
        monkeypatch.setattr(F, "max_pool2d", reference_max_pool2d)
        monkeypatch.setattr(F, "col2im", reference_col2im)
        monkeypatch.setattr(Tensor, "relu", reference_relu)
        ref_loss, ref_grads = _selective_step(dtype, use_scratch=False)
        for loss, grads in zip(new_losses, new_grads):
            np.testing.assert_array_equal(loss, ref_loss)
            assert len(grads) == len(ref_grads)
            for got, expected in zip(grads, ref_grads):
                np.testing.assert_array_equal(got, expected)
