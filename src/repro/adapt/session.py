"""The adaptation-stream lifecycle: one session, one stream, one scorecard.

:class:`AdaptationSession` is the adaptation lifecycle as one object —
build the method, optionally wrap it in
:class:`~repro.adapt.guard.GuardedAdaptation`, ``prepare`` it on a
model, time each ``forward``, score predictions, harvest guard
counters, restore the source state — plus journal-ready
:meth:`~AdaptationSession.checkpoint` /
:meth:`~AdaptationSession.load_checkpoint` that resume a killed stream
bit-identically.  The stream driver
(:func:`~repro.robustness.harness.run_guarded_stream`), the study
runner and the serve daemon all run this one code path, and it sits
below all of them: importing it loads the adaptation stack only.
:class:`StreamScorecard` is the outcome it reports, shared with the
analytic simulator (:func:`repro.core.streaming.simulate_realtime`).

Lifecycle::

    session = AdaptationSession(model, "bn_opt", guard=True, tenant="cam0")
    with session:                      # prepare()s the runner
        session.process_batch(images, labels)   # per adaptation batch
    card = session.scorecard()         # StreamScorecard, tenant-stamped

Teardown policy (``restore``):

- ``"on_error"`` (default, the streaming-harness contract): the model
  keeps its adapted state on clean exit — deployment semantics — but an
  exception mid-stream always restores the pristine source state before
  propagating, so a crashed stream cannot leak poisoned BN statistics
  into whatever runs next on the same model instance.
- ``"always"`` (the study-runner contract): clean exit restores too,
  giving episodic evaluation where every stream starts pristine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from repro.adapt import build_method
from repro.adapt.base import AdaptationMethod, bn_layers
from repro.adapt.checkpoint import (
    decode_model_state,
    decode_state,
    encode_model_state,
    encode_state,
)
from repro.adapt.guard import GuardConfig, GuardedAdaptation
from repro.tensor.tensor import Tensor, no_grad

#: checkpoint document version (bumped on incompatible layout changes)
CHECKPOINT_VERSION = 1

#: valid teardown policies
_RESTORE_POLICIES = ("on_error", "always")


@dataclass(frozen=True)
class StreamScorecard:
    """Outcome of one stream, measured (a session) or simulated."""

    frames_total: int
    frames_processed: int
    frames_dropped: int
    batches_late: int          # batches finished after their deadline
    batches_total: int
    mean_frame_latency_s: float   # arrival -> result, averaged
    effective_error_pct: float    # processed at adapted error, drops at baseline
    energy_j: float
    wall_time_s: float
    # guard/fault accounting (repro.adapt.guard); all zero for clean
    # unguarded runs so pre-robustness callers are unaffected
    faults_injected: int = 0
    rollbacks: int = 0            # BN-snapshot restores by the guard
    degraded_batches: int = 0     # batches served below the requested method
    fallback_frames: int = 0      # frames answered by the bottom-rung fallback
    #: serve-daemon tenant this card scores ("" = single-stream run)
    tenant: str = ""
    #: compact scenario spec the stream followed ("" = plain i.i.d.
    #: single-corruption stream); see :mod:`repro.scenarios`
    scenario: str = ""

    @property
    def drop_rate(self) -> float:
        return self.frames_dropped / self.frames_total if self.frames_total else 0.0

    @property
    def deadline_miss_rate(self) -> float:
        return self.batches_late / self.batches_total if self.batches_total else 0.0

    def describe(self) -> str:
        text = (f"[{self.tenant}] " if self.tenant else "")
        if self.scenario:
            text += f"<{self.scenario}> "
        text += (f"{self.frames_processed}/{self.frames_total} frames "
                f"processed ({self.drop_rate:.0%} dropped), "
                f"{self.deadline_miss_rate:.0%} batches late, "
                f"latency {self.mean_frame_latency_s * 1e3:.0f} ms/frame, "
                f"effective error {self.effective_error_pct:.2f}%, "
                f"{self.energy_j:.1f} J")
        if self.faults_injected or self.rollbacks or self.degraded_batches:
            text += (f" | guard: {self.faults_injected} faults, "
                     f"{self.rollbacks} rollbacks, "
                     f"{self.degraded_batches} degraded batches, "
                     f"{self.fallback_frames} fallback frames")
        return text


class AdaptationSession:
    """One adaptation stream bound to one model.

    Parameters
    ----------
    model:
        The model to adapt (mutated in place, exactly as in deployment).
    method:
        An :class:`AdaptationMethod` instance, a method name, or an
        already-built :class:`GuardedAdaptation` (used as-is).
    guard:
        ``True`` (default thresholds), a :class:`GuardConfig`, or
        ``False`` to run unprotected.  Ignored when ``method`` is
        already a :class:`GuardedAdaptation`.
    fps:
        Optional frame arrival rate; when given, a batch whose measured
        service time exceeds the batch period counts as late.
    tenant:
        Name stamped into scorecards and checkpoints ("" for
        single-stream use).
    restore:
        Teardown policy, ``"on_error"`` or ``"always"`` (see module
        docstring).
    """

    def __init__(self, model, method: Union[str, AdaptationMethod],
                 *, guard: Union[bool, GuardConfig] = False,
                 fps: Optional[float] = None, tenant: str = "",
                 restore: str = "on_error") -> None:
        if restore not in _RESTORE_POLICIES:
            raise ValueError(f"restore must be one of {_RESTORE_POLICIES}")
        if isinstance(method, str):
            method = build_method(method)
        if isinstance(method, GuardedAdaptation):
            runner = method
        elif guard:
            config = guard if isinstance(guard, GuardConfig) else None
            runner = GuardedAdaptation(method, config)
        else:
            runner = method
        self.model = model
        self.runner = runner
        self.fps = fps
        self.tenant = tenant
        #: compact scenario spec stamped into scorecards; set by
        #: scenario drivers ("" = plain stream)
        self.scenario = ""
        self.restore = restore
        self._started = False
        self._closed = False
        # pristine source state captured at start() for teardown/resume
        self._source_state = None
        self._source_tracked: List[int] = []
        # stream accounting
        self.frames_processed = 0
        self.frames_correct = 0
        self.frames_dropped = 0
        self.batches_total = 0
        self.batches_late = 0
        self.wall_time_s = 0.0
        #: filled in by drivers that own a FaultInjector
        self.faults_injected = 0
        # guard counters, harvested from the runner on close (the
        # runner re-zeroes them when it re-prepares)
        self.rollbacks = 0
        self.degraded_batches = 0
        self.fallback_frames = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def guarded(self) -> bool:
        """Whether a :class:`GuardedAdaptation` wraps this stream."""
        return isinstance(self.runner, GuardedAdaptation)

    @property
    def active(self) -> bool:
        """True between :meth:`start` and :meth:`close`."""
        return self._started and not self._closed

    def start(self) -> "AdaptationSession":
        """Snapshot the source state and ``prepare`` the runner."""
        if self._started:
            raise RuntimeError("start() on an already-started session")
        self._source_state = self.model.state_dict()
        self._source_tracked = [layer.batches_tracked
                                for layer in bn_layers(self.model)]
        self.runner.prepare(self.model)
        self._started = True
        return self

    def __enter__(self) -> "AdaptationSession":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        # an exception mid-stream always restores the source state so a
        # crashed stream cannot leak adapted/poisoned BN statistics
        self.close(restore_model=(self.restore == "always"
                                  or exc_type is not None))

    def close(self, restore_model: Optional[bool] = None) -> None:
        """Finish the stream: harvest counters, optionally restore.

        ``restore_model=None`` applies the session's ``restore`` policy
        for a clean finish.  Restoring goes through ``runner.reset()``
        (the method's own snapshot), which also re-arms train/eval and
        grad modes — exactly the study runner's per-stream teardown.
        """
        if not self._started or self._closed:
            self._closed = True
            return
        self._sync_counters()
        if restore_model is None:
            restore_model = self.restore == "always"
        if restore_model:
            self.runner.reset()
        self._closed = True

    def _sync_counters(self) -> None:
        """Copy the runner's guard counters into the session (pre-reset)."""
        self.rollbacks = int(getattr(self.runner, "rollbacks", 0))
        self.degraded_batches = int(getattr(self.runner,
                                            "degraded_batches", 0))
        self.fallback_frames = int(getattr(self.runner,
                                           "fallback_frames", 0))

    # -- streaming ---------------------------------------------------------

    def process_batch(self, images: np.ndarray, labels: np.ndarray,
                      *, adapt: bool = True) -> np.ndarray:
        """Adapt on one batch, score it, and return the predictions.

        Reproduces the drivers' shared inner loop exactly: wall time
        around the (adapting) forward, NaN-safe argmax scoring, and the
        optional fps deadline check.

        ``adapt=False`` serves the batch with the model *as adapted so
        far* but frozen — eval-mode inference under ``no_grad``, no BN
        statistic updates, no optimizer step, ``batches_adapted``
        untouched — the ``budgeted`` scenario's between-grants service
        mode.  Train/eval flags are restored afterwards, so the next
        adapting batch sees the runner's own configuration.
        """
        if not self.active:
            raise RuntimeError("process_batch() outside start()/close()")
        start = time.perf_counter()
        if adapt:
            logits = self.runner.forward(images)
        else:
            logits = self._frozen_forward(images)
        elapsed = time.perf_counter() - start
        self.wall_time_s += elapsed
        self.batches_total += 1
        predictions = np.nan_to_num(logits).argmax(axis=-1)
        self.frames_correct += int((predictions == labels).sum())
        self.frames_processed += len(labels)
        if self.fps is not None and elapsed > len(labels) / self.fps:
            self.batches_late += 1
        return predictions

    def _frozen_forward(self, images: np.ndarray) -> np.ndarray:
        """Inference-only forward that leaves every mode flag as found.

        Deliberately bypasses ``runner.forward`` (which adapts) *and*
        ``runner.bind`` (which would rebuild optimizer state): only the
        per-module ``training`` flags are flipped to eval for the call
        and flipped back afterwards.
        """
        flags = [module.training for module in self.model.modules()]
        self.model.eval()
        try:
            with no_grad():
                logits = self.model(Tensor(np.asarray(images)))
        finally:
            for module, flag in zip(self.model.modules(), flags):
                object.__setattr__(module, "training", flag)
        return logits.data

    def drop_frames(self, count: int) -> None:
        """Record ``count`` frames refused by admission control."""
        if count < 0:
            raise ValueError("count must be >= 0")
        self.frames_dropped += count

    def scorecard(self) -> StreamScorecard:
        """The stream's outcome so far as a tenant-stamped scorecard."""
        if self.active:
            self._sync_counters()
        frames = self.frames_processed
        error = 100.0 * (1.0 - self.frames_correct / frames) if frames else 0.0
        return StreamScorecard(
            frames_total=frames + self.frames_dropped,
            frames_processed=frames,
            frames_dropped=self.frames_dropped,
            batches_late=self.batches_late,
            batches_total=self.batches_total,
            mean_frame_latency_s=self.wall_time_s / frames if frames else 0.0,
            effective_error_pct=error,
            energy_j=0.0,
            wall_time_s=self.wall_time_s,
            faults_injected=self.faults_injected,
            rollbacks=self.rollbacks,
            degraded_batches=self.degraded_batches,
            fallback_frames=self.fallback_frames,
            tenant=self.tenant,
            scenario=self.scenario,
        )

    # -- checkpoint / resume -----------------------------------------------

    def checkpoint(self) -> dict:
        """Everything needed to resume this stream bit-identically.

        JSON-safe (rides inside journal entries): the pristine source
        state, the current adapted model state, the runner's runtime
        state (ladder position, optimizer moments, counters), and the
        session's own score counters.  Wall-clock fields are included
        for reporting but are the one thing a resume cannot make
        bit-identical — the strip-timing comparison contract applies.
        """
        if not self._started:
            raise RuntimeError("checkpoint() before start()")
        return {
            "version": CHECKPOINT_VERSION,
            "tenant": self.tenant,
            "source": encode_model_state(self._source_state,
                                         self._source_tracked),
            "model": encode_model_state(
                self.model.state_dict(),
                [layer.batches_tracked for layer in bn_layers(self.model)]),
            "runner": encode_state(self.runner.runtime_state()),
            "score": {
                "frames_processed": self.frames_processed,
                "frames_correct": self.frames_correct,
                "frames_dropped": self.frames_dropped,
                "batches_total": self.batches_total,
                "batches_late": self.batches_late,
                "wall_time_s": self.wall_time_s,
                "faults_injected": self.faults_injected,
            },
        }

    def load_checkpoint(self, payload: dict) -> "AdaptationSession":
        """Resume a :meth:`checkpoint` onto this (un-started) session.

        The sequence matters: the *source* state is loaded first and the
        runner prepared over it, so every prepare-time snapshot (the
        method's pristine snapshot, the guard's drift-reference BN
        stats) is rebuilt exactly as in the original run; only then is
        the *adapted* state loaded and the runner's runtime state
        restored on top.
        """
        if self._started:
            raise RuntimeError("load_checkpoint() on a started session")
        if payload.get("version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {payload.get('version')!r}")
        source_state, source_tracked = decode_model_state(payload["source"])
        self._apply_model_state(source_state, source_tracked)
        self.start()
        adapted_state, adapted_tracked = decode_model_state(payload["model"])
        self._apply_model_state(adapted_state, adapted_tracked)
        self.runner.load_runtime_state(decode_state(payload["runner"]))
        score = payload["score"]
        self.frames_processed = int(score["frames_processed"])
        self.frames_correct = int(score["frames_correct"])
        self.frames_dropped = int(score["frames_dropped"])
        self.batches_total = int(score["batches_total"])
        self.batches_late = int(score["batches_late"])
        self.wall_time_s = float(score["wall_time_s"])
        self.faults_injected = int(score["faults_injected"])
        self._sync_counters()
        return self

    def _apply_model_state(self, state, batches_tracked: List[int]) -> None:
        """Load a full model state including the BN batch counters."""
        self.model.load_state_dict(state)
        layers = bn_layers(self.model)
        if len(layers) != len(batches_tracked):
            raise ValueError(
                f"checkpoint has {len(batches_tracked)} BN counters; "
                f"model has {len(layers)} BN layers")
        for layer, tracked in zip(layers, batches_tracked):
            layer.batches_tracked = int(tracked)

    def __repr__(self) -> str:
        return (f"AdaptationSession(tenant={self.tenant!r}, "
                f"runner={self.runner!r}, active={self.active})")
