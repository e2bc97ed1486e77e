"""Helpers shared by the benchmark's workloads: statistics, spans, processes.

Nothing here imports numpy or ``repro``: ``run.py`` imports this module
before it has checked that the repository's source tree is present.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import math
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: BLAS thread count every workload process (and its children) runs with.
BLAS_THREADS = 1

#: Thread-count knobs of the BLAS / OpenMP runtimes numpy may link.
BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def repo_root() -> str:
    """The checkout root: the directory that holds ``fabbench/``."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def work_dir(root: str) -> str:
    """Scratch directory of the benchmark inside the checkout."""
    path = os.path.join(root, ".fabbench")
    os.makedirs(path, exist_ok=True)
    return path


def pinned_env(root: str) -> Dict[str, str]:
    """Environment for a workload process: pinned BLAS, repo on the path."""
    env = dict(os.environ)
    for var in BLAS_ENV_VARS:
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]; NaN when empty."""
    data = sorted(values)
    if not data:
        return float("nan")
    position = (len(data) - 1) * q / 100.0
    low = int(math.floor(position))
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail_percentile(count: int) -> float:
    """Highest percentile with at least ten samples beyond it (0 if none)."""
    if count < 20:
        return 0.0
    return 100.0 * (1.0 - 10.0 / count)


def summarize(values: Sequence[float], scale: float = 1.0) -> Dict[str, float]:
    """Median and the highest percentile with >= 10 samples beyond it."""
    tail_q = tail_percentile(len(values))
    return {
        "count": len(values),
        "p50": percentile(values, 50.0) * scale,
        "tail_q": tail_q,
        "tail": percentile(values, tail_q) * scale if tail_q else float("nan"),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
_CURRENT_SPAN: contextvars.ContextVar = contextvars.ContextVar(
    "fabbench_span", default=None
)


@dataclass
class Span:
    name: str
    span_id: int
    parent: Optional[int]
    start: float
    end: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory spans (name, start, end, parent) around public calls.

    :meth:`wrap` replaces a method on one object with a timing wrapper
    (coroutine functions stay coroutines); :meth:`restore` puts every
    original back.  The parent of a span is the span open in the same
    thread or asyncio task when it started.  Spans stay in memory until
    :meth:`dump` writes them at the end of a run.  ``enabled`` turns
    recording off without unwrapping, which is how a traced run measures
    its own overhead.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = True
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patched: List[Tuple[Any, str, Any, bool]] = []

    def open(self, name: str, **attrs: Any) -> Tuple[Span, Any]:
        span = Span(
            name, next(self._ids), _CURRENT_SPAN.get(), time.perf_counter(),
            attrs=attrs,
        )
        return span, _CURRENT_SPAN.set(span.span_id)

    def close(self, span: Span, token) -> None:
        span.end = time.perf_counter()
        _CURRENT_SPAN.reset(token)
        with self._lock:
            self.spans.append(span)

    def span(self, name: str, **attrs: Any):
        """``with recorder.span(name):`` around a block of the benchmark."""
        recorder = self

        class _Block:
            def __enter__(self):
                if not recorder.enabled:
                    self.state = None
                    return None
                self.state = recorder.open(name, **attrs)
                return self.state[0]

            def __exit__(self, *exc):
                if self.state is not None:
                    recorder.close(*self.state)
                return False

        return _Block()

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        attrs_of: Optional[Callable[..., Dict[str, Any]]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``attrs_of(*args, **kwargs)`` may derive span attributes (batch
        size, request id) from the call's arguments.
        """
        original = getattr(owner, attr)
        had_own = attr in getattr(owner, "__dict__", {})
        recorder = self

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                if not recorder.enabled:
                    return await original(*args, **kwargs)
                span, token = recorder.open(
                    name, **(attrs_of(*args, **kwargs) if attrs_of else {})
                )
                try:
                    return await original(*args, **kwargs)
                finally:
                    recorder.close(span, token)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not recorder.enabled:
                    return original(*args, **kwargs)
                span, token = recorder.open(
                    name, **(attrs_of(*args, **kwargs) if attrs_of else {})
                )
                try:
                    return original(*args, **kwargs)
                finally:
                    recorder.close(span, token)

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original, had_own))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patched:
            owner, attr, original, had_own = self._patched.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- reading -------------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def durations(self, name: str) -> List[float]:
        return [s.duration for s in self.spans if s.name == name]

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the part of its interval
        that its child spans cover.
        """
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        table: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            covered = _covered(span, children.get(span.span_id, []))
            row = table.setdefault(
                span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["total_s"] += span.duration
            row["self_s"] += span.duration - covered
        return table

    def dump(self, path: str) -> None:
        """Write every span as one JSON document (end of run)."""
        records = [
            {
                "name": s.name, "id": s.span_id, "parent": s.parent,
                "start": s.start, "end": s.end, "attrs": s.attrs,
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(records, handle)


def _covered(parent: Span, kids: List[Span]) -> float:
    """Length of the union of the children's intervals inside ``parent``."""
    intervals = sorted(
        (max(k.start, parent.start), min(k.end, parent.end)) for k in kids
    )
    covered = 0.0
    cursor = parent.start
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def format_self_times(table: Dict[str, Dict[str, float]]) -> str:
    """Self-time table, heaviest layer first."""
    header = f"{'span':<28} {'calls':>7} {'total_s':>10} {'self_s':>10}"
    lines = [header, "-" * len(header)]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"{name:<28} {int(row['calls']):>7d} "
            f"{row['total_s']:>10.4f} {row['self_s']:>10.4f}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Workload results
# ----------------------------------------------------------------------
@dataclass
class Check:
    """One correctness check: its name, verdict, and what it compared."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class WorkloadResult:
    """What one measured workload process reports to ``run.py``."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    checks: List[Check]
    info: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {
            "metrics": self.metrics,
            "attempted": self.attempted,
            "failed": self.failed,
            "checks": [c.__dict__ for c in self.checks],
            "info": self.info,
        }


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
class LineChannel:
    """Line-oriented pipe to a child process with deadline-bounded reads.

    With ``own_session`` the child leads its own process group, so
    :meth:`kill` also stops the processes it started (pool workers, the
    gateway server); without it the child stays in the caller's group.
    """

    def __init__(
        self, argv: List[str], root: str, env: Dict[str, str],
        own_session: bool = True,
    ) -> None:
        self.proc = subprocess.Popen(
            argv, cwd=root, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=None, text=True, bufsize=1,
            start_new_session=own_session,
        )
        self._own_session = own_session
        self._lines: "list" = []
        self._cond = threading.Condition()
        self._eof = False
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            with self._cond:
                self._lines.append(line.rstrip("\n"))
                self._cond.notify_all()
        with self._cond:
            self._eof = True
            self._cond.notify_all()

    def expect(self, prefix: str, deadline: float) -> str:
        """The payload of the next line starting with ``prefix``.

        Other lines are passed through to stderr.  Raises
        :class:`RuntimeError` if the child exits or the deadline
        (a ``time.monotonic`` value) passes first.
        """
        with self._cond:
            while True:
                while self._lines:
                    line = self._lines.pop(0)
                    if line.startswith(prefix):
                        return line[len(prefix):].strip()
                    print(line, file=sys.stderr)
                if self._eof:
                    raise RuntimeError(
                        f"child exited (code {self.proc.wait()}) before {prefix!r}"
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise RuntimeError(f"timed out waiting for {prefix!r}")
                self._cond.wait(remaining)

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def finish(self, timeout: float) -> int:
        """Close stdin and wait for a clean exit; kill on timeout."""
        try:
            self.proc.stdin.close()
        except (BrokenPipeError, OSError):
            pass
        try:
            return self.proc.wait(timeout=max(timeout, 0.1))
        except subprocess.TimeoutExpired:
            self.kill()
            return -9

    def kill(self) -> None:
        """Stop the child and everything in its session, then reap it."""
        if self.proc.poll() is None:
            if self._own_session:
                os.killpg(self.proc.pid, signal.SIGKILL)
            else:
                self.proc.kill()
        self.proc.wait()
        self._reader.join(timeout=5)
