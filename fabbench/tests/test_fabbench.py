"""The benchmark's own tests: smoke runs, checks with teeth, training parity.

    PYTHONPATH=src python -m pytest fabbench/tests -q
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from fabbench import checks
from fabbench.common import SpanRecorder, percentile, tail_percentile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
WORKLOADS = [w["name"] for w in json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["workloads"]]


def run_bench(*args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "fabbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


# ----------------------------------------------------------------------
# Smoke runs: every workload through every correctness check
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes_every_check(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    expected = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for entry in expected:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert math.isfinite(metric["value"])
        if trace == "0":
            assert metric["value"] > 0
    assert "check ok" in proc.stdout and "check FAIL" not in proc.stdout


def test_bare_directory_fails_without_a_result(tmp_path):
    """With only BENCHMARK.json and the benchmark, the run must refuse."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "fabbench"), tmp_path / "fabbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    started = time.monotonic()
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path), timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert time.monotonic() - started < 60


# ----------------------------------------------------------------------
# The checks have teeth
# ----------------------------------------------------------------------
def _decisions(threshold=0.0):
    raw = np.array([0, 3, 5, 1])
    scores = np.array([0.5, -0.5, 2.0, -1.0])
    labels = np.where(scores >= threshold, raw, -1)
    return labels, raw, scores


def test_selective_decisions_accepts_matching_outputs():
    labels, raw, scores = _decisions()
    assert checks.selective_decisions("x", labels, raw, scores, raw, scores + 1e-7, 0.0).ok


@pytest.mark.parametrize("corrupt", ["label", "raw", "score", "abstain", "length"])
def test_selective_decisions_rejects_corrupted_outputs(corrupt):
    labels, raw, scores = _decisions()
    ref_raw, ref_scores = raw.copy(), scores.copy()
    labels, raw, scores = labels.copy(), raw.copy(), scores.copy()
    if corrupt == "label":
        labels[0] = 7
    elif corrupt == "raw":
        raw[2] = 4
        labels[2] = 4
    elif corrupt == "score":
        scores[2] += 0.1
    elif corrupt == "abstain":
        labels[1] = raw[1]          # accepted a wafer the model abstained on
    else:
        labels = labels[:-1]
    check = checks.selective_decisions("x", labels, raw, scores, ref_raw, ref_scores, 0.0)
    assert not check.ok, check.detail


def test_selective_decisions_tolerates_only_threshold_ties():
    labels, raw, scores = _decisions(threshold=0.5)
    # The reference sits within float noise of the threshold: either
    # decision is acceptable.
    ref_scores = scores.copy()
    ref_scores[0] = 0.5 - 1e-6
    assert checks.selective_decisions("x", labels, raw, scores, raw, ref_scores, 0.5).ok


def test_finite_decreasing_rejects_nan_and_increase():
    assert checks.finite_decreasing("x", [1.0, 0.8, 0.5]).ok
    # A late, small uptick between adjacent epochs is normal training.
    assert checks.finite_decreasing("x", [1.53, 1.02, 0.69, 0.33, 0.3325, 0.29]).ok
    assert not checks.finite_decreasing("x", [1.0, float("nan"), 0.5]).ok
    assert not checks.finite_decreasing("x", [1.0, 0.8, 0.9]).ok
    assert not checks.finite_decreasing("x", [1.0, 1.1, 0.5]).ok
    assert not checks.finite_decreasing("x", [1.0, 0.5, 0.4, 0.6]).ok
    assert not checks.finite_decreasing("x", [1.0]).ok


def test_count_check_rejects_any_failure():
    assert checks.count_check("x", 0, 10, "bad").ok
    assert not checks.count_check("x", 1, 10, "bad").ok
    assert not checks.count_check("x", 0, 0, "bad").ok


def test_gateway_sample_check_catches_a_wrong_response():
    """A corrupted served label fails the fab_gateway sample check."""
    from fabbench.gateway import FabGateway, WaferSource, build_model
    from repro.data.wafer import grid_to_tensor

    workload = FabGateway(seed=5, seconds=1, trace=False, smoke=True)
    rng = np.random.default_rng(0)
    base = rng.integers(0, 3, size=(8, 16, 16)).astype(np.uint8)
    workload.source = WaferSource(base, 5)
    workload.wafer_of = list(range(8))
    model = build_model(5, smoke=True)
    tensors = np.stack([grid_to_tensor(g) for g in base])
    workload.threshold = float(np.median(model.predict_batched(tensors)[1]))
    reference = model.predict_selective(tensors, threshold=workload.threshold)

    class Conn:
        responses = {
            str(i): {"ok": True, "result": {
                "label": int(reference.labels[i]),
                "raw_label": int(reference.raw_labels[i]),
                "selection_score": float(reference.selection_scores[i]),
            }}
            for i in range(8)
        }

    workload.conn = Conn()
    sent = [str(i) for i in range(8)]
    assert workload._sample_check(sent).ok
    Conn.responses["3"]["result"]["raw_label"] = (int(reference.raw_labels[3]) + 1) % 9
    assert not workload._sample_check(sent).ok


def test_fast_frames_are_byte_identical_to_the_codec():
    from fabbench.gateway import TENANT, frame_encoder
    from repro.serve.protocol import encode_frame, request_message

    encode = frame_encoder()
    rng = np.random.default_rng(7)
    for i in range(20):
        grid = rng.integers(0, 3, size=(32, 32)).astype(np.uint8)
        assert encode(str(i), grid) == encode_frame(request_message(str(i), grid, TENANT))


def test_offline_reference_is_the_tape_path():
    """The offline reference matches predict_selective without compile."""
    from repro.core.cnn import BackboneConfig
    from repro.core.selective import SelectiveNet
    from repro.nn.compile import eager_only

    from fabbench.offline import reference_forward

    model = SelectiveNet(9, BackboneConfig(input_size=16, conv_channels=(4, 4),
                                           conv_kernels=(3, 3), fc_units=8, seed=2))
    inputs = np.random.default_rng(1).random((5, 1, 16, 16)).astype(np.float32)
    raw, scores = reference_forward(model, inputs)
    with eager_only():
        prediction = model.predict_selective(inputs)
    assert checks.selective_decisions(
        "x", prediction.labels, prediction.raw_labels, prediction.selection_scores,
        raw, scores, model.threshold).ok


# ----------------------------------------------------------------------
# train_paper parity and the span recorder
# ----------------------------------------------------------------------
def test_two_worker_losses_equal_serial_losses():
    from fabbench.train import fit_losses

    serial = fit_losses(seed=4, num_workers=1, epochs=2)
    parallel = fit_losses(seed=4, num_workers=2, epochs=2)
    np.testing.assert_allclose(parallel, serial, rtol=1e-5, atol=1e-6)


def test_span_recorder_self_time_excludes_children():
    recorder = SpanRecorder()

    class Thing:
        def outer(self):
            time.sleep(0.02)
            self.inner()

        def inner(self):
            time.sleep(0.03)

    thing = Thing()
    recorder.wrap(thing, "inner", "inner")
    recorder.wrap(thing, "outer", "outer")
    thing.outer()
    table = recorder.self_times()
    assert table["outer"]["calls"] == table["inner"]["calls"] == 1
    assert table["outer"]["self_s"] == pytest.approx(
        table["outer"]["total_s"] - table["inner"]["total_s"], abs=1e-6)
    assert 0.015 < table["outer"]["self_s"] < table["outer"]["total_s"]
    recorder.restore()
    assert "outer" not in vars(thing) and "inner" not in vars(thing)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(19) == 0.0
    assert tail_percentile(1000) == pytest.approx(99.0)
    values = list(range(1000))
    beyond = [v for v in values if v > percentile(values, tail_percentile(1000))]
    assert len(beyond) >= 9
