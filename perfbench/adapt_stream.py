"""adapt-stream: the paper's own measurement, in process, closed loop.

BN-Opt (TENT) runs unguarded at batch 50 on the four paper architectures
(tiny profile, seeded random init, 16 px) over a seeded corruption
stream.  One *pass* hands the same batch to each architecture in turn;
a pass is this workload's request.
"""

from __future__ import annotations

import contextlib
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from common import (BenchError, Result, child_env, corruption_stream,
                    latency_summary, median, peak_rss_mb, read_line, stop)
from layers import (TracingBackend, check_coverage, checkpoint_and_append,
                    engine_summary, engine_unit, put_arena, put_checkpoint,
                    put_guard)
from spans import Tracer

_PROBE = str(Path(__file__).resolve().parent / "setup_probe.py")


def _setup_seconds(wl: dict) -> list:
    """Spawn -> first session started, in fresh interpreters."""
    times = []
    for _ in range(wl["setup_repeats"]):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, _PROBE, wl["archs"][0], wl["method"],
             str(wl["model_seed"])], stdout=subprocess.PIPE, env=child_env())
        try:
            line = read_line(proc, 120.0)
            times.append(time.perf_counter() - start)
        finally:
            stop(proc)
        if line != "ready" or proc.returncode != 0:
            raise BenchError(f"setup probe failed: {line!r}, "
                             f"code {proc.returncode}")
    return times


def _bad_predictions(predictions, labels) -> bool:
    predictions = np.asarray(predictions)
    return (predictions.shape != labels.shape
            or not np.issubdtype(predictions.dtype, np.integer)
            or predictions.min() < 0 or predictions.max() >= 10)


def run(cfg: dict, seed: int, seconds: float, trace: bool, result: Result,
        tracer: Tracer, workdir: Path) -> dict:
    from repro.engine import default_backend, use_backend
    from repro.models.registry import build_model
    from repro.nn import init as nn_init
    from repro.resilience.journal import RunJournal
    from repro.serve.session import AdaptationSession

    wl = cfg["adapt-stream"]
    archs, batch = wl["archs"], wl["batch_size"]
    check = wl["check"]

    stream = corruption_stream(cfg, wl["pool_frames"], seed)
    batches = list(stream.batches(batch))
    check_stream = corruption_stream(cfg, check["batches"] * batch,
                                     check["seed"])

    # the pinned check stream is also the warm-up: it fills the arena and
    # spins up BLAS before anything is timed
    sessions = {}
    check_correct = {}
    for arch in archs:
        nn_init.seed(wl["model_seed"])
        model = build_model(arch, profile="tiny")
        model.eval()
        warm = AdaptationSession(model, wl["method"], guard=wl["guard"])
        warm.start()
        for images, labels in check_stream.batches(batch):
            result.attempted += 1
            if _bad_predictions(warm.process_batch(images, labels), labels):
                result.fail(f"{arch}: check-stream predictions out of range")
        warm.close(restore_model=True)
        check_correct[arch] = warm.frames_correct
        expected = check["frames_correct"].get(arch)
        if expected is None or \
                abs(warm.frames_correct - expected) > check["tolerance_frames"]:
            result.fail(f"{arch}: check stream frames_correct "
                        f"{warm.frames_correct}, recorded {expected} "
                        f"+- {check['tolerance_frames']}")
        sessions[arch] = AdaptationSession(model, wl["method"],
                                           guard=wl["guard"]).start()

    backend = default_backend()
    traced_backend = TracingBackend(backend, tracer)
    arena_before = backend.arena_stats()
    cards_before = {arch: sessions[arch].scorecard() for arch in archs}
    pass_ms, lags = [], []
    batch_ms = {arch: [] for arch in archs}
    program_ms = []     # the session's own wall time of each traced batch
    timed = {True: [0.0, 0], False: [0.0, 0]}   # traced? -> [seconds, frames]
    offered = 0
    passes = 0
    phase_start = previous_end = time.perf_counter()
    deadline = phase_start + seconds
    while True:
        traced = trace and passes % 2 == 1
        images, labels = batches[passes % len(batches)]
        pass_start = time.perf_counter()
        with (tracer.span("pass", rid=str(passes)) if traced
              else contextlib.nullcontext()):
            for arch in archs:
                start = time.perf_counter()
                lags.append((start - previous_end) * 1e3)
                if traced:
                    clock = sessions[arch].wall_time_s
                    with tracer.span("batch", rid=f"{arch}/{passes}"), \
                            use_backend(traced_backend):
                        predictions = sessions[arch].process_batch(images,
                                                                   labels)
                    program_ms.append((sessions[arch].wall_time_s - clock)
                                      * 1e3)
                else:
                    predictions = sessions[arch].process_batch(images, labels)
                previous_end = time.perf_counter()
                elapsed = previous_end - start
                offered += len(labels)
                result.attempted += 1
                if _bad_predictions(predictions, labels):
                    result.fail(f"{arch}: pass {passes} predictions out of "
                                "range")
                if traced:
                    batch_ms[arch].append(elapsed * 1e3)
                timed[traced][0] += elapsed
                timed[traced][1] += len(labels)
        pass_ms.append((previous_end - pass_start) * 1e3)
        passes += 1
        # a traced run needs a traced and an untraced pass at least
        if previous_end >= deadline and (passes >= 2 or not trace):
            break
    wall = previous_end - phase_start
    arena_after = backend.arena_stats()
    # set-up is timed after the load, on a host that is as busy as for
    # every other figure: timed first thing, on a host just out of idle,
    # the same set-up read 0.30 s or 0.43 s
    setups = _setup_seconds(wl)

    processed = dropped = busy_s = busy_batches = 0
    degraded = rollbacks = fallback = 0
    for arch in archs:
        session = sessions[arch]
        params = session.model.state_dict()
        if not all(np.isfinite(array).all() for array in params.values()):
            result.fail(f"{arch}: adapted model state is not finite")
        card = session.scorecard()
        before = cards_before[arch]
        processed += card.frames_processed - before.frames_processed
        dropped += card.frames_dropped - before.frames_dropped
        busy_s += card.wall_time_s - before.wall_time_s
        busy_batches += card.batches_total - before.batches_total
        degraded += card.degraded_batches
        rollbacks += card.rollbacks
        fallback += card.fallback_frames
    if offered != processed + dropped:
        result.fail(f"frame accounting: offered {offered} != processed "
                    f"{processed} + dropped {dropped} + failed 0")

    ladder, beyond = cfg["tail_ladder"], cfg["tail_min_beyond"]
    p50, tail, pct, n = latency_summary(pass_ms, ladder, beyond)
    result.put("setup_s", median(setups), "s",
               f"median of {len(setups)} spawn->session started")
    result.put("frames_per_s", offered / wall, "frames/s",
               f"n={offered} frames, {passes} passes")
    result.put("request_ms_p50", p50, "ms", f"pass latency, n={n}")
    result.put("request_ms_tail", tail, "ms", f"p{pct:g}, n={n}")
    result.put("peak_rss_mb", peak_rss_mb(resource.RUSAGE_SELF), "MB",
               "own process")

    if trace:
        batch_spans = tracer.named("batch")
        for name, value in engine_summary(tracer, batch_spans).items():
            result.put(name, value, engine_unit(name))
        check_coverage(result, sum(program_ms) / len(program_ms))
        for arch in archs:
            result.put(f"models.{arch}.batch_ms_p50", median(batch_ms[arch]),
                       "ms", f"n={len(batch_ms[arch])}")
            result.put(f"models.{arch}.frames_per_s",
                       batch * len(batch_ms[arch]) / sum(batch_ms[arch]) * 1e3,
                       "frames/s")
        traced_fps = timed[True][1] / timed[True][0]
        untraced_fps = timed[False][1] / timed[False][0]
        result.put("trace.overhead_share", 1.0 - traced_fps / untraced_fps,
                   "ratio", f"untraced {untraced_fps:.2f} vs traced "
                   f"{traced_fps:.2f} frames/s")
        busy_ms = busy_s / busy_batches * 1e3
        result.put("session.busy_ms", busy_ms, "ms", "scorecard wall/batches")
        # no daemon, scheduler or admission on this path
        result.put("serve.residual_ms", 0, "ms", "no serve stack")
        result.put("scheduler.dispatched", 0, "count", "no serve stack")
        result.put("admission.frames_dropped", 0, "count", "no serve stack")
        put_guard(result, rollbacks, degraded, fallback, busy_batches)
        put_arena(result, arena_before, arena_after, busy_batches)
        result.put("journal.bytes_per_batch", 0, "B", "no daemon journal")
        result.put("journal.entries", 0, "count", "no daemon journal")
        with RunJournal(workdir / "checkpoints.jsonl") as journal:
            for arch in archs:
                for _ in range(2):
                    checkpoint_and_append(tracer, journal, sessions[arch],
                                          arch)
        put_checkpoint(result, tracer)
        result.put("daemon.cpu_ms_per_frame", 0, "ms", "no daemon")
        result.put("daemon.cpu_util", 0, "ratio", "no daemon")
        p50, tail, pct, n = latency_summary(lags, ladder, beyond)
        result.put("loadgen.lag_ms_p50", p50, "ms", f"n={n}")
        result.put("loadgen.lag_ms_tail", tail, "ms", f"p{pct:g}, n={n}")

    for session in sessions.values():
        session.close()
    return {"seed": seed, "archs": archs, "batch_size": batch,
            "method": wl["method"], "guard": wl["guard"],
            "image_size": cfg["image_size"], "pool_frames": wl["pool_frames"],
            "check_frames_correct": check_correct, "passes": passes,
            "setup_s_each": setups}
