"""Native guarded streaming: the one loop that drives a session over batches.

:func:`run_guarded_stream` plays a real batch stream through a real
adaptation method on the numpy engine — optionally injecting faults,
optionally guarding, optionally following a scenario schedule — and
reports the same :class:`~repro.adapt.session.StreamScorecard` the
analytic simulator produces, with *measured* effective error and wall
time and the guard counters filled in.  This is the demonstration that
an unguarded NaN batch silently poisons every subsequent frame while the
guarded run rolls back, degrades, and recovers.

Every native stream runs through this loop: the CLI ``stream`` command,
the scenario harness (:func:`repro.scenarios.run_scenario_stream`,
which segments the outcome from its ``on_batch`` hook) and the study
runner's corruption cells.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.adapt.base import AdaptationMethod
from repro.adapt.guard import GuardConfig
from repro.adapt.session import AdaptationSession, StreamScorecard
from repro.robustness.faults import FaultInjector, FaultSpec, parse_fault_specs

Batches = Iterable[Tuple[np.ndarray, np.ndarray]]

#: per-batch hook: (batch index, session, whether the batch adapted)
BatchHook = Callable[[int, AdaptationSession, bool], None]


def run_guarded_stream(model, method: Union[str, AdaptationMethod],
                       batches: Batches, *,
                       guard: Union[bool, GuardConfig] = True,
                       faults: Union[None, str, Sequence[FaultSpec]] = None,
                       seed: int = 0,
                       fps: Optional[float] = None,
                       scenario=None,
                       restore: str = "on_error",
                       on_batch: Optional[BatchHook] = None
                       ) -> StreamScorecard:
    """Execute a (possibly faulted, possibly guarded) stream for real.

    Parameters
    ----------
    model:
        The model to adapt (mutated in place, exactly as in deployment).
    method:
        An :class:`AdaptationMethod` instance, a method name, or an
        already-built :class:`GuardedAdaptation` (used as-is).
    batches:
        Iterator of ``(images, labels)``; labels are used for scoring
        only — the adaptation never sees them.
    guard:
        ``True`` (default thresholds), a :class:`GuardConfig`, or
        ``False`` to run unprotected (the silent-poisoning baseline).
    faults:
        Fault specs — a CLI-style string (``"nan:0.2,constant@3"``), a
        sequence of :class:`FaultSpec`, or ``None`` for a clean stream.
    seed:
        Seeds the fault schedule.
    fps:
        Optional frame arrival rate; when given, a batch whose measured
        service time exceeds the batch period counts as late.
    scenario:
        Optional per-batch plan: any object with a ``label`` and a
        ``plan_for(index)`` whose result has an ``adapt`` flag — a
        :class:`~repro.scenarios.schedule.ScenarioSchedule` or a
        :class:`~repro.scenarios.stream.ScenarioStream`, typically the
        one that generated ``batches``.  Batches planned with
        ``adapt=False`` are served frozen (``budgeted`` scenarios) and
        the scorecard is stamped with the label.
    restore:
        Session teardown policy: ``"on_error"`` (deployment semantics —
        a clean stream leaves the model adapted, an exception
        mid-stream restores the pristine source state before
        propagating) or ``"always"`` (episodic evaluation).
    on_batch:
        Optional ``on_batch(index, session, adapted)`` called after each
        batch, for drivers that need per-batch accounting.

    Returns the scorecard with measured ``effective_error_pct``,
    per-batch host wall time, and the guard/fault counters.
    """
    injector = None
    if faults is not None:
        specs = parse_fault_specs(faults) if isinstance(faults, str) \
            else tuple(faults)
        injector = FaultInjector(specs, seed=seed)
        batches = injector.inject(batches)

    session = AdaptationSession(model, method, guard=guard, fps=fps,
                                restore=restore)
    if scenario is not None:
        session.scenario = scenario.label
    with session:
        for index, (images, labels) in enumerate(batches):
            adapt = (scenario.plan_for(index).adapt
                     if scenario is not None else True)
            session.process_batch(images, labels, adapt=adapt)
            if on_batch is not None:
                on_batch(index, session, adapt)
        session.faults_injected = injector.faults_injected if injector else 0
    return session.scorecard()
