"""Robustness layer: fault injection, guarded adaptation, degradation.

The paper's deployment scenarios (drones, remote sensors, medical
scanners) adapt **without labels**, so nothing tells the operator when a
bad batch has poisoned the BN statistics every later frame depends on.
This package makes the streaming story deployable rather than
best-case-only:

- :mod:`repro.robustness.faults` — seeded injection of the faults edge
  pipelines actually produce (NaN/Inf pixels, constant batches,
  wrong-range inputs, truncated batches, duplicated frames);
- :mod:`repro.robustness.harness` — :func:`run_guarded_stream`, the
  one loop that drives an adaptation session over a (faulted,
  guarded, optionally scenario-planned) batch stream and returns a
  guard-annotated :class:`~repro.adapt.session.StreamScorecard`.

The guard itself — :class:`~repro.adapt.guard.GuardedAdaptation`:
per-batch BN snapshots, label-free health checks, bit-identical
rollback and a ``bn_opt -> bn_norm -> no_adapt`` degradation ladder —
lives in :mod:`repro.adapt.guard`, beside the session that wraps
methods in it.
"""

from repro.robustness.faults import (
    FAULT_NAMES,
    POISONING_FAULTS,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    apply_fault,
    known_fault_names,
    parse_fault_specs,
    register_fault_names,
)
from repro.robustness.harness import run_guarded_stream

__all__ = [
    "FAULT_NAMES",
    "POISONING_FAULTS",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "FaultSpec",
    "apply_fault",
    "known_fault_names",
    "parse_fault_specs",
    "register_fault_names",
    "run_guarded_stream",
]
