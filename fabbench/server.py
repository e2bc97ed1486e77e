"""The ``fab_gateway`` server process: ``Gateway`` → ``ServeEngine``.

    python -m fabbench.server --seed N [--trace 1] [--smoke]

Started by the ``fab_gateway`` workload with the BLAS thread count
pinned.  Prints ``LISTENING <json>`` (port and acceptance threshold)
once it serves, then obeys one command per stdin line: ``TRACE 1`` /
``TRACE 0`` switch span recording and ``CONTINUAL`` times the
continual-operations layers on the serving engine (traced runs only);
``STOP`` shuts down and prints ``STATS <json>`` — the program's
counters, the spans of the traced run, and the process's peak RSS.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import sys
import threading

import numpy as np

from fabbench import checks
from fabbench.common import (
    Check,
    SpanRecorder,
    format_self_times,
    peak_rss_mb,
    repo_root,
    work_dir,
)
from fabbench.gateway import (
    CALIBRATION_WAFERS,
    MAX_BATCH,
    build_model,
    grid_size,
)

#: Event-loop lag probe period (traced runs).
LAG_PROBE_S = 0.005
#: Continual-operations layers (traced runs): checkpoints written, stream
#: steps routed and hot swaps made on the serving engine.
CHECKPOINT_SAVES = 8
STREAM_STEPS = 24
STREAM_WAFERS = 32
SWAPS = 8


def _program_spans(tracer) -> dict:
    """Queue waits and cache-hit latencies from the engine's own spans."""
    if tracer is None:
        return {"queue_wait_s": [], "cache_hit_s": []}
    spans = tracer.spans()
    return {
        "queue_wait_s": [s["duration_s"] for s in spans if s["name"] == "serve.queue"],
        "cache_hit_s": [
            s["duration_s"] for s in spans
            if s["name"] == "serve.request" and s["attrs"].get("cache") == "hit"
        ],
    }


def continual_layers(engine, model, registry, recorder, threshold: float,
                     seed: int, smoke: bool) -> dict:
    """Checkpoint writes, abstention routing and hot swaps on the engine.

    The continual-operations loop is not a workload of its own (see
    README.md), so its layers are timed here on fixed inputs, with
    checks that do not depend on the loop's drift/promote outcome.
    Every span the traced cycles recorded is unwrapped first: a swap
    deep-copies the serving model, and a copied timing wrapper would
    keep calling the old generation's weights.
    """
    from repro.resilience.checkpoint import CheckpointManager, validate_checkpoint
    from repro.stream.queue import HumanLabelQueue, OracleLabeler
    from repro.stream.router import AbstentionRouter
    from repro.stream.simulator import EpisodeSpec, StreamConfig, WaferStream

    from repro.obs.metrics import default_registry

    cycle_spans = len(recorder.spans)
    cycle_registries = (registry.snapshot(), default_registry().snapshot())
    recorder.restore()
    recorder.enabled = True
    directory = os.path.join(work_dir(repo_root()), f"ckpt-fab_gateway-seed{seed}")
    shutil.rmtree(directory, ignore_errors=True)
    manager = CheckpointManager(directory, keep=2)
    recorder.wrap(manager, "save", "checkpoint.save")
    paths = [manager.save(epoch, model=model, extra={"threshold": threshold})
             for epoch in range(CHECKPOINT_SAVES)]
    validate_checkpoint(paths[-1])

    half = STREAM_STEPS // 2
    stream = WaferStream(
        StreamConfig(size=grid_size(smoke), wafers_per_step=STREAM_WAFERS, seed=seed),
        [EpisodeSpec("clean", steps=half),
         EpisodeSpec("novel", steps=STREAM_STEPS - half,
                     background_rate=(0.15, 0.25), novel_fraction=0.4)],
    )
    batches = [stream.batch(step) for step in range(stream.total_steps)]
    router = AbstentionRouter(
        engine, HumanLabelQueue(OracleLabeler(num_classes=len(stream.config.classes),
                                              seed=seed)))
    recorder.wrap(router, "route", "stream.route")
    outcomes = [router.route(batch) for batch in batches]
    routed = sum(o.accepted + o.abstained for o in outcomes)
    abstained = sum(o.abstained for o in outcomes)
    triaged = sum(o.queued + sum(o.shed.values()) for o in outcomes)

    recorder.wrap(engine, "swap_model", "serve.swap")
    first = outcomes[-1].generation + 1
    reports = [engine.swap_model(paths[-1], threshold=threshold) for _ in range(SWAPS)]
    generations = [r.generation for r in reports]
    before = outcomes[0].results
    after = engine.classify_many(list(batches[0].grids))
    recorder.enabled = False
    shutil.rmtree(directory, ignore_errors=True)
    found = [
        checks.count_check(
            "every routed wafer accepted or abstained, every abstention triaged",
            abs(routed - STREAM_STEPS * STREAM_WAFERS) + abs(triaged - abstained),
            routed, "wafers unaccounted for"),
        Check("each swap to the checkpointed weights commits one generation",
              generations == list(range(first, first + SWAPS))
              and all(r.drained for r in reports),
              f"generations {generations}"),
        checks.selective_decisions(
            "after the swaps the engine returns the pre-swap decisions",
            [r.label for r in after], [r.raw_label for r in after],
            [r.selection_score for r in after],
            [r.raw_label for r in before], [r.selection_score for r in before],
            threshold),
    ]
    return {"cycle_spans": cycle_spans, "cycle_registries": cycle_registries,
            "continual_checks": [c.__dict__ for c in found]}


async def serve(gateway, engine, recorder, threshold: float, out, layers) -> dict:
    from repro.obs.trace import arm_tracing, disarm_tracing

    loop = asyncio.get_running_loop()
    commands: asyncio.Queue = asyncio.Queue()

    def read_commands() -> None:
        try:
            for line in sys.stdin:
                loop.call_soon_threadsafe(commands.put_nowait, line.strip())
            loop.call_soon_threadsafe(commands.put_nowait, "STOP")
        except RuntimeError:  # the loop closed after an earlier STOP
            pass

    threading.Thread(target=read_commands, daemon=True).start()
    _, port = await gateway.start("127.0.0.1", 0)
    out.write("LISTENING " + json.dumps({"port": port, "threshold": threshold}) + "\n")

    lags = []
    tracing = False

    async def lag_probe() -> None:
        while True:
            before = loop.time()
            await asyncio.sleep(LAG_PROBE_S)
            if tracing:
                lags.append(loop.time() - before - LAG_PROBE_S)

    probe = asyncio.ensure_future(lag_probe()) if recorder is not None else None
    tracer = None
    stats = {}
    try:
        while True:
            command = await commands.get()
            if command == "STOP":
                break
            if command.startswith("TRACE") and recorder is not None:
                tracing = recorder.enabled = command.endswith("1")
                if tracing:
                    tracer = tracer or arm_tracing(capacity=1 << 18, recorder=False)
                else:
                    disarm_tracing()
                out.write("OK\n")
            elif command == "CONTINUAL" and recorder is not None:
                stats.update(await loop.run_in_executor(None, layers))
                out.write("OK\n")
    finally:
        disarm_tracing()
        if probe is not None:
            probe.cancel()
            await asyncio.gather(probe, return_exceptions=True)
        await gateway.stop()
    stats["loop_lag_s"] = lags
    stats.update(_program_spans(tracer))
    return stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    out = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)

    from repro.data.generator import PAPER_TEST_COUNTS, generate_dataset, scaled_counts
    from repro.obs.metrics import MetricsRegistry, default_registry
    from repro.serve.engine import ServeConfig, ServeEngine
    from repro.serve.gateway import Gateway, GatewayConfig

    size = grid_size(args.smoke)
    model = build_model(args.seed, args.smoke)
    calibration = generate_dataset(
        scaled_counts(PAPER_TEST_COUNTS, CALIBRATION_WAFERS / 10871),
        size=size, seed=args.seed + 1,
    )
    _, scores = model.predict_batched(calibration.tensors())
    threshold = float(np.median(scores))
    model.threshold = threshold
    # Warm-up: compile every batch shape the engine can form.
    for batch in range(1, MAX_BATCH + 1):
        model.predict_batched(np.zeros((batch, 1, size, size), dtype=np.float32))

    recorder = None
    if args.trace:
        recorder = SpanRecorder()
        recorder.wrap(model, "predict_batched", "engine.infer",
                      attrs_of=lambda inputs, **_: {"n": len(inputs)})
        recorder.enabled = False
    registry = MetricsRegistry()
    engine = ServeEngine(
        model, ServeConfig(max_batch_size=MAX_BATCH, num_replicas=1),
        registry=registry,
    )
    # The tenant contract sits far above any reachable rate: admission
    # must never shed in this workload.
    gateway = Gateway(
        engine,
        GatewayConfig(max_inflight=4096, default_rate_per_s=1e9, default_burst=1e9),
        registry=registry,
    )
    if recorder is not None:
        recorder.wrap(gateway, "handle_message", "gateway.handle",
                      attrs_of=lambda payload, **_: {"id": payload.get("id")})
    try:
        stats = asyncio.run(serve(
            gateway, engine, recorder, threshold, out,
            lambda: continual_layers(engine, model, registry, recorder,
                                     threshold, args.seed, args.smoke)))
    finally:
        engine.close()
    if recorder is not None:
        recorder.dump(os.path.join(
            work_dir(repo_root()), f"spans-fab_gateway-server-seed{args.seed}.json"))
        stats["self_times"] = format_self_times(recorder.self_times())
    # Gateway and engine figures come from the traced cycles only.
    cut = stats.pop("cycle_spans", None)
    cycles = [] if recorder is None else recorder.spans[:cut]
    snapshot, compile_snapshot = stats.pop(
        "cycle_registries", (registry.snapshot(), default_registry().snapshot()))
    stats.update({
        "counters": snapshot["counters"],
        "histograms": snapshot["histograms"],
        "compile": compile_snapshot,
        "peak_rss_mb": peak_rss_mb(),
        "handle": [(s.attrs["id"], s.duration) for s in cycles
                   if s.name == "gateway.handle"],
        "infer": [(s.attrs["n"], s.duration) for s in cycles
                  if s.name == "engine.infer"],
        "continual": {} if recorder is None else {
            name: recorder.durations(name)
            for name in ("checkpoint.save", "stream.route", "serve.swap")
        },
    })
    out.write("STATS " + json.dumps(stats) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
