"""Fallback semantics: anything uncovered returns ``None``, never raises.

Callers (``predict_proba``, ``predict_batched``, serve replicas) keep
the plain layers under ``no_grad`` as the fallback arm, so ``try_run``
degrading to ``None`` — with the ``compile.fallbacks`` counter bumped —
is the whole failure contract.  These tests also pin the compile
telemetry counters, and that every shipped predict path compiles: a
layer the compiler cannot trace would otherwise move a predict path
onto the plain layers silently (about 1.6x slower for the autoencoder).
"""

import numpy as np
import pytest

from repro import nn
from repro.core.autoencoder import AutoencoderConfig, ConvAutoencoder
from repro.core.cnn import BackboneConfig, WaferCNN
from repro.core.selective import SelectiveNet
from repro.nn.compile import (
    CompiledModule,
    backend_names,
    compile_module,
    compiled_for,
    eager_only,
    get_backend,
    is_enabled,
    set_enabled,
)
from repro.obs.metrics import default_registry, reset_default_registry


@pytest.fixture(autouse=True)
def fresh_registry():
    reset_default_registry()
    yield
    reset_default_registry()


def counter(name):
    return default_registry().counter(name).value


def _simple_model(rng=None):
    rng = rng or np.random.default_rng(0)
    model = nn.Sequential(nn.Conv2D(1, 4, 3, padding="same", rng=rng), nn.ReLU())
    model.eval()
    return model


X = np.zeros((2, 1, 8, 8), dtype=np.float32)


class _Unknown(nn.Module):
    def forward(self, x):
        return x * 2.0


class _SubclassedReLU(nn.ReLU):
    def forward(self, x):
        return super().forward(x) + 1.0


def test_unknown_module_falls_back():
    model = _Unknown()
    model.eval()
    compiled = compile_module(model)
    before = counter("compile.fallbacks")
    assert compiled.try_run(X) is None
    assert counter("compile.fallbacks") == before + 1


def test_layer_subclass_falls_back():
    # Exact-type dispatch: a subclass with an overridden forward would
    # silently mistrace, so it must not compile at all.
    model = nn.Sequential(nn.Conv2D(1, 4, 3, padding="same"), _SubclassedReLU())
    model.eval()
    assert compile_module(model).try_run(X) is None


def test_training_mode_falls_back():
    model = _simple_model()
    model.train()
    compiled = compile_module(model)
    assert compiled.try_run(X) is None
    model.eval()
    assert compiled.try_run(X) is not None


def test_disabled_scope_falls_back():
    model = _simple_model()
    compiled = compile_module(model)
    assert is_enabled()
    with eager_only():
        assert not is_enabled()
        assert compiled.try_run(X) is None
    assert compiled.try_run(X) is not None
    assert set_enabled(True) is True  # eager_only restored the switch


def test_hooked_module_falls_back():
    model = _simple_model()
    handle = model.register_hook(lambda **kwargs: None)
    try:
        assert compile_module(model).try_run(X) is None
    finally:
        handle.remove()
    assert compile_module(model).try_run(X) is not None


def test_shape_mismatch_falls_back_and_is_cached():
    model = nn.Sequential(nn.Dense(16, 4, rng=np.random.default_rng(0)))
    model.eval()
    compiled = compile_module(model)
    bad = np.zeros((2, 8), dtype=np.float32)
    assert compiled.try_run(bad) is None
    misses = counter("compile.cache_misses")
    # Second attempt hits the negative cache: no recompile attempt.
    assert compiled.try_run(bad) is None
    assert counter("compile.cache_misses") == misses
    # The failure is keyed by shape: the good shape still compiles.
    good = np.zeros((2, 16), dtype=np.float32)
    assert compiled.try_run(good) is not None


def test_call_falls_back_to_eager_result():
    model = _Unknown()
    model.eval()
    compiled = compile_module(model)
    x = np.arange(4, dtype=np.float32).reshape(2, 2)
    (result,) = compiled(x)
    np.testing.assert_array_equal(result, x * 2.0)


def test_compiled_module_refuses_pickling():
    import pickle

    compiled = compile_module(_simple_model())
    with pytest.raises(TypeError):
        pickle.dumps(compiled)


def test_unknown_backend_name_is_an_error():
    with pytest.raises(KeyError):
        get_backend("not-a-backend")
    assert "numpy" in backend_names()


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
def test_compile_counters_and_arena_gauge():
    model = _simple_model()
    compiled = compile_module(model)
    registry = default_registry()

    assert compiled.try_run(X) is not None  # cold: compile + miss
    assert registry.counter("compile.graphs").value == 1
    assert registry.counter("compile.cache_misses").value == 1
    assert registry.counter("compile.kernels_fused").value > 0

    assert compiled.try_run(X) is not None  # warm: cache hit
    assert registry.counter("compile.cache_hits").value == 1
    assert registry.counter("compile.graphs").value == 1

    # A second shape is its own cache entry.
    assert compiled.try_run(np.zeros((3, 1, 8, 8), dtype=np.float32)) is not None
    assert registry.counter("compile.graphs").value == 2

    gauge = registry.gauge("compile.arena_bytes").value
    assert gauge > 0
    freed = compiled.release()
    assert freed > 0
    assert registry.gauge("compile.arena_bytes").value == gauge - freed


def test_per_dtype_cache_keys():
    model = _simple_model()
    compiled = compile_module(model)
    assert compiled.try_run(X) is not None
    with nn.default_dtype(np.float64):
        # Same geometry, different dtype: the float32 weights no longer
        # match the (coerced) float64 input, so this shape/dtype key
        # lands in the negative cache instead of mistracing.
        assert compiled.try_run(X.astype(np.float64)) is None
    assert compiled.try_run(X) is not None


def test_wafer_cnn_falls_back_cleanly_when_disabled():
    config = BackboneConfig(
        input_size=8, conv_channels=(2,), conv_kernels=(3,), fc_units=8, seed=1
    )
    model = WaferCNN(3, config=config)
    x = np.random.default_rng(2).normal(size=(4, 1, 8, 8)).astype(np.float32)
    with eager_only():
        eager = model.predict_proba(x, batch_size=2)
    compiled = model.predict_proba(x, batch_size=2)
    np.testing.assert_array_equal(compiled, eager)


#: Table I at 64x64, and the 32x32 deployment backbone that the gateway
#: serves.
PREDICT_CONFIGS = {
    "table1_64": BackboneConfig(),
    "deploy_32": BackboneConfig(
        input_size=32, conv_channels=(16, 16, 32), conv_kernels=(3, 3, 3),
        fc_units=128,
    ),
}


def _assert_predict_compiles(modules, predict, size):
    """``try_run`` covers every module, and ``predict`` never falls back."""
    x = np.random.default_rng(0).random((3, 1, size, size)).astype(np.float32)
    chunk = x
    for module in modules:
        outputs = compiled_for(module).try_run(chunk)
        assert outputs is not None, f"{type(module).__name__} did not compile"
        chunk = outputs[0]
    fallbacks = counter("compile.fallbacks")
    lookups = counter("compile.cache_hits") + counter("compile.cache_misses")
    predict(x)
    assert counter("compile.fallbacks") == fallbacks
    assert counter("compile.cache_hits") + counter("compile.cache_misses") > lookups


@pytest.mark.parametrize("config", sorted(PREDICT_CONFIGS))
@pytest.mark.parametrize(
    "model_cls, method",
    [(WaferCNN, "predict_proba"), (SelectiveNet, "predict_batched")],
)
def test_backbone_predict_path_compiles(model_cls, method, config):
    model = model_cls(9, config=PREDICT_CONFIGS[config])
    model.eval()
    predict = getattr(model, method)
    _assert_predict_compiles(
        [model], lambda x: predict(x, batch_size=2), model.config.input_size
    )


@pytest.mark.parametrize(
    "method, stages",
    [("reconstruct", ("encoder", "decoder")), ("encode_numpy", ("encoder",))],
)
def test_autoencoder_predict_path_compiles(method, stages):
    model = ConvAutoencoder(AutoencoderConfig())
    model.eval()
    predict = getattr(model, method)
    _assert_predict_compiles(
        [getattr(model, stage) for stage in stages],
        lambda x: predict(x, batch_size=2),
        model.config.input_size,
    )
