"""End-to-end scenario driver: one stream, one session, segmented outcome.

:func:`run_scenario_stream` plays a
:class:`~repro.scenarios.stream.ScenarioStream` through
:func:`~repro.robustness.harness.run_guarded_stream` — optionally
fault-injected, optionally guarded, honoring the schedule's per-batch
``adapt`` flag (``budgeted`` freezing) — and differences the session's
counters after every batch from the loop's ``on_batch`` hook, so the
outcome carries one :class:`~repro.scenarios.metrics.SegmentCard` per
shift phase plus the recurrence forgetting metric, not just a
whole-stream scorecard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.adapt.guard import GuardConfig
from repro.adapt.session import StreamScorecard
from repro.robustness.faults import FaultSpec
from repro.robustness.harness import run_guarded_stream
from repro.scenarios.metrics import (
    BatchStats,
    SegmentCard,
    recurrence_forgetting,
    segment_cards,
)
from repro.scenarios.stream import ScenarioStream


@dataclass(frozen=True)
class ScenarioOutcome:
    """What one scenario run produced: whole-stream card + per-phase slices."""

    scenario: str
    seed: int
    scorecard: StreamScorecard
    segments: Tuple[SegmentCard, ...] = field(default=())

    @property
    def forgetting(self) -> float:
        """Recurrence forgetting over this run's segments (nan if none)."""
        return recurrence_forgetting(self.segments)

    def to_dict(self) -> dict:
        from dataclasses import asdict
        forgetting = self.forgetting
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "scorecard": asdict(self.scorecard),
            "segments": [card.to_dict() for card in self.segments],
            "forgetting": None if math.isnan(forgetting) else forgetting,
        }


def run_scenario_stream(model, method, stream: ScenarioStream, *,
                        batch_size: int = 16,
                        num_batches: Optional[int] = None,
                        guard: Union[bool, GuardConfig] = True,
                        faults: Union[None, str, Sequence[FaultSpec]] = None,
                        seed: int = 0,
                        fps: Optional[float] = None,
                        restore: str = "on_error") -> ScenarioOutcome:
    """Execute a scenario stream for real and segment the outcome.

    Parameters mirror :func:`~repro.robustness.harness.
    run_guarded_stream`; ``num_batches`` defaults to one dataset epoch.
    ``seed`` seeds the *fault* schedule only — the scenario's own
    randomness is fixed by the stream's schedule seed, so faults can be
    re-rolled without moving the shift sequence.
    """
    if num_batches is None:
        num_batches = stream.num_batches(batch_size)
    if num_batches <= 0:
        raise ValueError(f"num_batches must be positive, got {num_batches}")

    stats: List[BatchStats] = []
    totals = [0, 0, 0, 0, 0]    # counters after the previous batch

    def record(index: int, session, adapted: bool) -> None:
        now = _counters(session)
        delta = [after - before for after, before in zip(now, totals)]
        stats.append(BatchStats(
            index=index, frames=delta[0], correct=delta[1],
            rollbacks=delta[2], degraded_batches=delta[3],
            fallback_frames=delta[4], adapted=adapted))
        totals[:] = now

    card = run_guarded_stream(
        model, method, stream.batches(batch_size, num_batches),
        guard=guard, faults=faults, seed=seed, fps=fps, scenario=stream,
        restore=restore, on_batch=record)
    segments = stream.schedule.segments(num_batches)
    return ScenarioOutcome(
        scenario=stream.label,
        seed=stream.seed,
        scorecard=card,
        segments=tuple(segment_cards(segments, stats)))


def _counters(session) -> Tuple[int, int, int, int, int]:
    """Running totals to difference per batch (guard counters live on
    the runner until close; read them through it)."""
    runner = session.runner
    return (session.frames_processed,
            session.frames_correct,
            int(getattr(runner, "rollbacks", 0)),
            int(getattr(runner, "degraded_batches", 0)),
            int(getattr(runner, "fallback_frames", 0)))
