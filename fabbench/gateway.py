"""``fab_gateway``: the paper's deployment path over TCP.

A load generator in this process sends length-prefixed JSON requests
over one TCP connection to a ``Gateway`` → ``ServeEngine`` server in a
second process (``fabbench.server``), which serves the 32×32 deployment
``SelectiveNet`` (16/16/32 channels) on one in-process lane.  Wafers
come from ``repro.data.generator``; a fixed 20% of requests re-query a
recent wafer, like MES retries, and hit the result cache.

Two phases follow a warm-up:

* **open loop** — seeded Poisson arrivals at the fixed nominal rate
  :data:`NOMINAL_QPS`, each request timed from its due time, so a stall
  also delays the requests queued behind it;
* **closed loop** — a fixed number of requests sent with :data:`WINDOW`
  pipelined in flight; that count over the segment's wall time is the
  capacity.

Every frame is encoded before timing starts.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from fabbench import checks
from fabbench.common import (
    Check,
    LineChannel,
    WorkloadResult,
    median,
    percentile,
    pinned_env,
    repo_root,
    summarize,
)
from fabbench.workloads import Workload

#: Open-loop arrival rate, fixed in absolute terms so that a faster
#: commit meets the same load: a third of the parent commit's closed-loop
#: capacity on a 2-vCPU x86 VM in its slow state, an eighth in its fast
#: state; a higher rate made the median latency unsteady in the slow
#: state (see README.md, "The open-loop rate").
NOMINAL_QPS = 450.0
#: Pipelined requests in flight during the closed loop.
WINDOW = 32
#: Share of requests that re-query one of the last RECENT wafers.
REQUERY_FRAC = 0.2
RECENT = 64
#: Distinct generator wafers; later wafers are copies with extra failing dies.
BASE_WAFERS = 1000
WARMUP_REQUESTS = 256
#: Closed-loop requests per second of the closed-loop share of the run:
#: the parent commit's capacity on that VM.  A segment sends a fixed
#: count, so a faster commit finishes it sooner rather than sending more.
CLOSED_REQUESTS_PER_S = 3000.0
#: Open-loop + closed-loop segment pairs in a run.
CYCLES = 10
SMOKE_CYCLES = 2
#: Share of each cycle spent in the open loop.
OPEN_SHARE = 0.6
#: Responses re-checked against predict_selective.
SAMPLE = 64
MAX_BATCH = 32
CALIBRATION_WAFERS = 256
RESPONSE_TIMEOUT_S = 30.0
TENANT = "fab"


def grid_size(smoke: bool) -> int:
    return 16 if smoke else 32


def build_model(seed: int, smoke: bool):
    """The deployment SelectiveNet the server serves (same on both sides)."""
    from repro.core.cnn import BackboneConfig
    from repro.core.selective import SelectiveNet

    return SelectiveNet(9, BackboneConfig(
        input_size=grid_size(smoke), conv_channels=(16, 16, 32),
        conv_kernels=(3, 3, 3), fc_units=128, seed=seed,
    ))


def grid_json(grid: np.ndarray) -> bytes:
    """``json.dumps(grid.tolist())`` for a grid of single-digit die states."""
    height, width = grid.shape
    text = np.full((height, 2 * width + 2), ord(","), dtype=np.uint8)
    text[:, 0] = ord("[")
    text[:, 1:2 * width:2] = grid + ord("0")
    text[:, 2 * width] = ord("]")
    return b"[" + text.tobytes()[:-1] + b"]"


def frame_encoder():
    """Fast request-frame encoder, byte-identical to the program's codec.

    Builds ``encode_frame(request_message(rid, grid, TENANT))`` from the
    grid's bytes, about ten times faster than going through
    ``tolist`` and ``json.dumps``.  If the program's wire format ever
    differs from this one, its own codec is returned instead.
    """
    from repro.serve.protocol import PROTOCOL_VERSION, encode_frame, request_message

    prefix = b'{"v":%d,"id":"' % PROTOCOL_VERSION
    middle = b'","tenant":"%s","grid":' % TENANT.encode()

    def fast(rid: str, grid: np.ndarray) -> bytes:
        body = prefix + rid.encode() + middle + grid_json(grid) + b"}"
        return len(body).to_bytes(4, "big") + body

    def codec(rid: str, grid: np.ndarray) -> bytes:
        return encode_frame(request_message(rid, grid, TENANT))

    probe = np.arange(12, dtype=np.uint8).reshape(3, 4) % 3
    return fast if fast("r1", probe) == codec("r1", probe) else codec


class WaferSource:
    """Request ``i`` → die grid, with MES-style re-queries.

    Wafer ``w`` is base wafer ``b = w % len(base)`` with its first
    ``w // len(base)`` passing dies, in a seeded order per base wafer,
    turned to failing: every wafer is distinct, comes from the
    generator, and is rebuilt from its id alone.
    """

    def __init__(self, base: np.ndarray, seed: int) -> None:
        self.base = base
        rng = np.random.default_rng((seed, 4))
        self._order = [rng.permutation(np.flatnonzero(grid == 1)) for grid in base]
        self._rng = np.random.default_rng(seed)
        self._recent: List[int] = []
        self._next_wafer = 0

    def wafer(self, w: int) -> np.ndarray:
        index = w % len(self.base)
        grid = self.base[index].copy()
        grid.flat[self._order[index][:w // len(self.base)]] = 2
        return grid

    def next_request(self) -> int:
        """Wafer id of the next request (a re-query or a new wafer)."""
        if len(self._recent) >= RECENT and self._rng.random() < REQUERY_FRAC:
            return self._recent[int(self._rng.integers(len(self._recent)))]
        w = self._next_wafer
        self._next_wafer += 1
        self._recent = (self._recent + [w])[-RECENT:]
        return w


class Connection:
    """One pipelined TCP connection: send pre-encoded frames, demux replies.

    Reply arrival times are stamped by the reader as each frame is
    decoded, before any waiting coroutine is woken.
    """

    def __init__(self, reader, writer) -> None:
        from repro.serve.protocol import HEADER_BYTES, decode_payload

        self._header = HEADER_BYTES
        self._decode = decode_payload
        self.reader, self.writer = reader, writer
        self.loop = asyncio.get_running_loop()
        self.pending: Dict[str, asyncio.Future] = {}
        self.sent_at: Dict[str, float] = {}
        self.done_at: Dict[str, float] = {}
        self.responses: Dict[str, dict] = {}
        self.task = asyncio.ensure_future(self._read_loop())

    async def _read_loop(self) -> None:
        try:
            while True:
                header = await self.reader.readexactly(self._header)
                body = await self.reader.readexactly(int.from_bytes(header, "big"))
                now = self.loop.time()
                payload = self._decode(body)
                rid = payload.get("id")
                self.done_at[rid] = now
                self.responses[rid] = payload
                future = self.pending.pop(rid, None)
                if future is not None and not future.done():
                    future.set_result(payload)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            for future in self.pending.values():
                if not future.done():
                    future.set_exception(ConnectionError("gateway connection lost"))

    def send(self, rid: str, frame: bytes) -> asyncio.Future:
        future = self.loop.create_future()
        self.pending[rid] = future
        self.sent_at[rid] = self.loop.time()
        self.writer.write(frame)
        return future

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass
        self.task.cancel()
        await asyncio.gather(self.task, return_exceptions=True)


class FabGateway(Workload):
    name = "fab_gateway"

    def setup(self) -> None:
        from repro.data.generator import PAPER_TEST_COUNTS, generate_dataset, scaled_counts

        # The server starts (imports, model, compiles) while this process
        # generates and encodes the requests.
        argv = [sys.executable, "-m", "fabbench.server", "--seed", str(self.seed),
                "--trace", str(int(self.trace))]
        if self.smoke:
            argv.append("--smoke")
        root = repo_root()
        self.server = LineChannel(argv, root, pinned_env(root), own_session=False)

        size = grid_size(self.smoke)
        base_count = 100 if self.smoke else BASE_WAFERS
        started = time.perf_counter()
        base = generate_dataset(
            scaled_counts(PAPER_TEST_COUNTS, base_count / 10871), size=size, seed=self.seed
        ).grids
        self.generate_s = time.perf_counter() - started
        self.source = WaferSource(base, self.seed)

        cycles = SMOKE_CYCLES if self.smoke else CYCLES
        cycle_s = self.seconds / cycles
        closed_count = int(CLOSED_REQUESTS_PER_S * cycle_s * (1.0 - OPEN_SHARE))
        rng = np.random.default_rng((self.seed, 1))
        self.schedules = []
        for _ in range(cycles):
            offsets = np.cumsum(rng.exponential(
                1.0 / NOMINAL_QPS, size=int(NOMINAL_QPS * cycle_s * 2) + 16))
            self.schedules.append(offsets[offsets < cycle_s * OPEN_SHARE])
        # Request ids run through each cycle's open-loop segment, then
        # its closed-loop segment: (open start, closed start, closed end).
        self.segments = []
        total = 0
        for offsets in self.schedules:
            closed = total + len(offsets)
            self.segments.append((total, closed, closed + closed_count))
            total = closed + closed_count
        self.wafer_of = [self.source.next_request() for _ in range(total)]
        encode = frame_encoder()
        self.frames = [
            encode(str(i), self.source.wafer(w)) for i, w in enumerate(self.wafer_of)
        ]
        warm_rng = np.random.default_rng((self.seed, 2))
        self.warm_frames = [
            encode(f"w{i}", base[int(warm_rng.integers(len(base)))])
            for i in range(WARMUP_REQUESTS)
        ]

        ready = json.loads(self.server.expect("LISTENING", time.monotonic() + 60.0))
        self.threshold = ready["threshold"]
        self.loop = asyncio.new_event_loop()
        self.conn: Optional[Connection] = self.loop.run_until_complete(
            self._connect(ready["port"]))
        self.loop.run_until_complete(self._closed_loop(
            [(f"w{i}", f) for i, f in enumerate(self.warm_frames)]))

    async def _connect(self, port: int) -> Connection:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return Connection(reader, writer)

    # -- phases ----------------------------------------------------------
    async def _open_loop(self, offsets, first: int) -> Dict[str, float]:
        """Send on a Poisson schedule; returns request id → due time."""
        conn = self.conn
        start = conn.loop.time() + 0.01
        due: Dict[str, float] = {}
        futures = []
        for k, offset in enumerate(offsets):
            rid = str(first + k)
            due[rid] = start + float(offset)
            delay = due[rid] - conn.loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            futures.append(conn.send(rid, self.frames[first + k]))
        if futures:
            await asyncio.wait(futures, timeout=RESPONSE_TIMEOUT_S)
        return due

    async def _closed_loop(self, requests) -> float:
        """Send every request with WINDOW in flight; returns completed/s."""
        conn = self.conn
        feed = iter(requests)
        started = conn.loop.time()
        completed = 0

        async def lane() -> None:
            nonlocal completed
            for item in feed:
                try:
                    await asyncio.wait_for(conn.send(*item), RESPONSE_TIMEOUT_S)
                except asyncio.TimeoutError:
                    return  # counted as unanswered by the checks
                completed += 1

        await asyncio.gather(*(lane() for _ in range(WINDOW)))
        return completed / (conn.loop.time() - started)

    def _command(self, line: str) -> None:
        self.server.send(line)
        self.server.expect("OK", time.monotonic() + 60.0)

    def run(self) -> WorkloadResult:
        """Alternate open-loop and closed-loop segments, one pair per cycle.

        Spreading both phases over the whole run averages the machine's
        slow and fast spells into each figure.  The capacity is the
        median closed-loop rate over the cycles.  A traced run traces
        every other cycle; the capacity ratio of the two kinds of cycle
        is the tracing overhead.
        """
        run = self.loop.run_until_complete
        due: Dict[str, float] = {}
        rates = {False: [], True: []}
        for cycle, (offsets, (first, closed, end)) in enumerate(
                zip(self.schedules, self.segments)):
            traced = self.trace and cycle % 2 == 1
            if self.trace:
                self._command(f"TRACE {int(traced)}")
            segment = run(self._open_loop(offsets, first))
            if traced or not self.trace:
                due.update(segment)
            rates[traced].append(run(self._closed_loop(
                (str(i), self.frames[i]) for i in range(closed, end))))
        capacity = median(rates[bool(self.trace)])
        if self.trace:
            self._command("TRACE 0")
            self._command("CONTINUAL")
        self.server.send("STOP")
        stats = json.loads(self.server.expect("STATS", time.monotonic() + 60.0))
        self.server.finish(timeout=30.0)
        self.server = None

        conn = self.conn
        sent = [rid for rid in conn.sent_at if not rid.startswith("w")]
        latency = [conn.done_at[r] - due[r] for r in due if r in conn.done_at]
        late = [conn.sent_at[r] - due[r] for r in due]
        outcome = self._outcomes(sent, stats.get("continual_checks", []))
        result = WorkloadResult(
            metrics={},
            attempted=len(sent),
            failed=outcome["failed"],
            checks=outcome["checks"],
            info={"notes": self._notes(latency, late, capacity, stats)},
        )
        if self.trace:
            result.metrics = self._layers(stats, due, late, capacity, median(rates[False]))
            result.info["self_times"] = stats["self_times"]
        else:
            result.metrics = {
                "wafers_per_s": capacity,
                "latency_p50_ms": percentile(latency, 50.0) * 1e3,
                "peak_rss_mb": stats["peak_rss_mb"],
            }
        return result

    # -- checks and metrics ---------------------------------------------
    def _outcomes(self, sent: List[str], continual: List[dict]) -> dict:
        responses = self.conn.responses
        missing = [r for r in sent if r not in responses]
        errors: Dict[str, int] = {}
        for rid in sent:
            payload = responses.get(rid)
            if payload is not None and not payload.get("ok"):
                error = payload.get("error", {})
                key = f"{error.get('type')}/{error.get('reason')}"
                errors[key] = errors.get(key, 0) + 1
        answered = checks.count_check(
            "every request answered", len(missing), len(sent), "requests timed out")
        ok = checks.count_check(
            "every response ok (no shed, reject or error)", sum(errors.values()),
            len(sent), f"responses were errors {errors}" if errors else "responses were errors")
        decisions = self._sample_check(sent)
        layers = [Check(**c) for c in continual]
        failed = len(missing) + sum(errors.values())
        failed += SAMPLE * (not decisions.ok) + sum(not c.ok for c in layers)
        return {"failed": failed, "checks": [answered, ok, decisions] + layers}

    def _sample_check(self, sent: List[str]) -> Check:
        """A seeded sample of served decisions against predict_selective."""
        from repro.data.wafer import grid_to_tensor

        responses = self.conn.responses
        served = [r for r in sent if responses.get(r, {}).get("ok")]
        if not served:
            return Check("sampled responses equal predict_selective", False, "no ok responses")
        rng = np.random.default_rng((self.seed, 3))
        pick = rng.choice(len(served), size=min(SAMPLE, len(served)), replace=False)
        ids = [served[i] for i in sorted(pick)]
        grids = [self.source.wafer(self.wafer_of[int(r)]) for r in ids]
        model = build_model(self.seed, self.smoke)
        reference = model.predict_selective(
            np.stack([grid_to_tensor(g) for g in grids]), threshold=self.threshold)
        results = [responses[r]["result"] for r in ids]
        return checks.selective_decisions(
            "sampled responses equal predict_selective",
            [r["label"] for r in results], [r["raw_label"] for r in results],
            [r["selection_score"] for r in results],
            reference.raw_labels, reference.selection_scores, self.threshold,
        )

    def _notes(self, latency, late, capacity, stats) -> List[str]:
        lat = summarize(latency, 1e3)
        hits = stats["counters"].get("serve.cache.hits", 0)
        misses = stats["counters"].get("serve.cache.misses", 0)
        return [
            f"open loop: {len(latency)} requests at {NOMINAL_QPS:g} req/s nominal; "
            f"latency from due time p50 {lat['p50']:.3f} ms, "
            f"p{lat['tail_q']:.1f} {lat['tail']:.3f} ms; "
            f"generator late p99 {percentile(late, 99.0) * 1e3:.3f} ms",
            f"closed loop: {capacity:.1f} req/s with {WINDOW} in flight",
            f"cache hit share {hits / max(hits + misses, 1):.3f}",
        ]

    def _layers(self, stats, due, late, capacity, plain_capacity) -> dict:
        from repro.serve.protocol import decode_payload, encode_frame, request_message

        conn = self.conn
        counters, histograms = stats["counters"], stats["histograms"]
        # Requests of the traced open-loop segments, at the nominal rate.
        handle = {rid: seconds for rid, seconds in stats["handle"] if rid in due}
        transport = [
            conn.done_at[rid] - conn.sent_at[rid] - seconds
            for rid, seconds in handle.items() if rid in conn.done_at
        ]
        infer = stats["infer"]
        requests = max(counters.get("gateway.requests_total", 0), 1)
        shed = sum(v for k, v in counters.items()
                   if k.startswith("gateway.rejected.") and k != "gateway.rejected.invalid_input")
        batches = max(counters.get("serve.batches_total", 0), 1)
        hits = counters.get("serve.cache.hits", 0)
        misses = counters.get("serve.cache.misses", 0)

        sample = self.frames[:500]
        started = time.perf_counter()
        for frame in sample:
            decode_payload(frame[4:])
        decode_s = (time.perf_counter() - started) / len(sample)
        grids = [self.source.wafer(w) for w in self.wafer_of[:len(sample)]]
        started = time.perf_counter()
        for i, grid in enumerate(grids):
            encode_frame(request_message(str(i), grid, TENANT))
        encode_s = (time.perf_counter() - started) / len(grids)

        compile_snapshot = stats["compile"]
        return {
            "protocol.request_bytes": float(np.mean([len(f) for f in self.frames])),
            "protocol.decode_us": decode_s * 1e6,
            "protocol.encode_us": encode_s * 1e6,
            "gateway.handle_p50_ms": percentile(list(handle.values()), 50.0) * 1e3,
            "gateway.handle_p99_ms": percentile(list(handle.values()), 99.0) * 1e3,
            "gateway.transport_p50_ms": percentile(transport, 50.0) * 1e3,
            "gateway.loop_lag_p99_ms": percentile(stats["loop_lag_s"], 99.0) * 1e3,
            "admission.shed_frac": shed / requests,
            "batcher.batch_size_mean": histograms["serve.batch.size"]["mean"],
            "batcher.flush_deadline_frac":
                counters.get("serve.batch.flush.deadline", 0) / batches,
            "batcher.queue_wait_p50_ms": percentile(stats["queue_wait_s"], 50.0) * 1e3,
            "batcher.queue_wait_p99_ms": percentile(stats["queue_wait_s"], 99.0) * 1e3,
            "cache.hit_frac": hits / max(hits + misses, 1),
            "cache.hit_us": percentile(stats["cache_hit_s"], 50.0) * 1e6,
            "engine.infer_ms_per_batch": percentile([d for _, d in infer], 50.0) * 1e3,
            "engine.infer_us_per_wafer":
                sum(d for _, d in infer) / max(sum(n for n, _ in infer), 1) * 1e6,
            "compile.graphs_built": compile_snapshot["counters"].get("compile.graphs", 0),
            "compile.arena_mb":
                compile_snapshot["gauges"].get("compile.arena_bytes", 0.0) / 2**20,
            "compile.fallbacks": compile_snapshot["counters"].get("compile.fallbacks", 0),
            "data.generate_s": self.generate_s,
            "checkpoint.save_ms": median(stats["continual"]["checkpoint.save"]) * 1e3,
            "stream.route_ms": median(stats["continual"]["stream.route"]) * 1e3,
            "serve.swap_ms": median(stats["continual"]["serve.swap"]) * 1e3,
            "loadgen.late_p99_ms": percentile(late, 99.0) * 1e3,
            "trace.overhead_frac": plain_capacity / capacity - 1.0,
        }

    def close(self) -> None:
        if getattr(self, "conn", None) is not None:
            self.loop.run_until_complete(self.conn.close())
            self.conn = None
        if getattr(self, "loop", None) is not None:
            self.loop.close()
            self.loop = None
        if getattr(self, "server", None) is not None:
            self.server.kill()
            self.server = None
        super().close()
