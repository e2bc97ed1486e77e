"""The workload registry and the interface every workload implements."""

from __future__ import annotations

import importlib
import os
from typing import Dict, Type

from fabbench.common import (
    SpanRecorder,
    WorkloadResult,
    format_self_times,
    repo_root,
    work_dir,
)


class Workload:
    """One benchmark workload.

    ``setup`` builds everything a measurement needs (it counts toward
    ``setup_s``); ``run`` measures for ``seconds`` seconds and checks
    the program's outputs; ``close`` stops whatever ``setup`` started.
    With ``trace`` set, ``recorder`` holds the spans of the traced run
    and ``run`` reports per-layer metrics instead of end-to-end ones.
    ``smoke`` shrinks every size so the benchmark's own tests run fast.
    """

    name = ""

    def __init__(self, seed: int, seconds: float, trace: bool, smoke: bool) -> None:
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.trace = trace
        self.smoke = smoke
        self.recorder = SpanRecorder() if trace else None

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> WorkloadResult:
        raise NotImplementedError

    def close(self) -> None:
        if self.recorder is not None:
            self.recorder.restore()

    def finish_trace(self, result: WorkloadResult) -> None:
        """Write the spans and attach the self-time table to ``result``."""
        if self.recorder is None:
            return
        path = os.path.join(
            work_dir(repo_root()), f"spans-{self.name}-seed{self.seed}.json"
        )
        self.recorder.dump(path)
        result.info["spans_file"] = path
        result.info["self_times"] = format_self_times(self.recorder.self_times())


#: Workload name -> "module:class"; imported only when selected.
WORKLOADS: Dict[str, str] = {
    "fab_gateway": "fabbench.gateway:FabGateway",
    "offline_lot": "fabbench.offline:OfflineLot",
    "train_paper": "fabbench.train:TrainPaper",
}


def make_workload(name: str, **kwargs) -> Workload:
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; one of {sorted(WORKLOADS)}")
    module, cls = WORKLOADS[name].split(":")
    workload_cls: Type[Workload] = getattr(importlib.import_module(module), cls)
    return workload_cls(**kwargs)
