"""Deterministic, spawn-picklable cell runners shared by the suite.

Workers unpickle runners *by reference* and re-import this module, so
every runner must live at module level.  Cross-process state (e.g.
"fail only the first attempt") goes through marker files in the
payload's scratch directory — worker processes share no memory.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import List

from repro.core.records import MeasurementRecord
from repro.core.executor import CellSpec


def make_spec(key: str, **overrides) -> CellSpec:
    base = dict(key=key, model="wrn40_2", method="bn_norm",
                batch_size=50, backend="numpy")
    base.update(overrides)
    return CellSpec(**base)


def echo_runner(payload: dict, spec: CellSpec) -> List[MeasurementRecord]:
    """Return one fully deterministic record per cell."""
    value = payload["values"][spec.key]
    return [MeasurementRecord(
        model=spec.model, method=spec.method, batch_size=spec.batch_size,
        device=spec.device, error_pct=float(value), forward_time_s=0.25,
        energy_j=float("nan"), backend=spec.backend)]


def flaky_runner(payload: dict, spec: CellSpec) -> List[MeasurementRecord]:
    """Fail cells listed in ``fail_once`` on their first attempt only
    (marker files make the state visible across attempts *and*
    processes) and cells in ``fail_always`` on every attempt."""
    if spec.key in payload.get("fail_always", ()):
        raise ValueError(f"permanent fault in {spec.key}")
    if spec.key in payload.get("fail_once", ()):
        marker = Path(payload["dir"]) / (
            spec.key.replace("/", "_") + ".attempted")
        if not marker.exists():
            marker.write_text("first attempt")
            raise ValueError(f"transient fault in {spec.key}")
    return echo_runner(payload, spec)


def crash_runner(payload: dict, spec: CellSpec) -> List[MeasurementRecord]:
    """Die like a SIGKILL'd worker: no exception, no cleanup, no event."""
    if spec.key in payload.get("crash", ()):
        os._exit(17)
    return echo_runner(payload, spec)


def sleepy_runner(payload: dict, spec: CellSpec) -> List[MeasurementRecord]:
    """Hang far past any reasonable soft deadline for ``hang`` cells."""
    if spec.key in payload.get("hang", ()):
        time.sleep(60.0)
    return echo_runner(payload, spec)
