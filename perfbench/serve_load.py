"""serve-steady and serve-durable: a ``repro serve`` child under load.

The load generator runs in this process, one thread and one connection
per tenant.  serve-steady is an open loop: each tenant's requests are
due at a seeded Poisson schedule (a fixed count placed uniformly over
the run) at a fixed absolute rate, and latency is timed from the due
instant.  serve-durable is a saturating closed loop: each tenant sends
its next batch when the previous ack arrives.  After the load the
benchmark reads ``status`` once, closes the tenants and replays every
tenant's frames through an in-process ``AdaptationSession``; the final
scorecards must match the replay's.
"""

from __future__ import annotations

import dataclasses
import math
import os
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional

import numpy as np

from common import (ROOT, BenchError, Result, child_env, corruption_stream,
                    latency_summary, median, peak_rss_mb, read_line, stop)
from layers import (TracingBackend, checkpoint_and_append, engine_summary,
                    engine_unit, put_arena, put_checkpoint, put_guard)
from spans import Tracer

_LISTENING = "repro serve listening on "


class Daemon:
    """One ``python -m repro serve`` child with default flags."""

    def __init__(self, journal: Optional[Path]) -> None:
        command = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        if journal is not None:
            command += ["--journal", str(journal)]
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     env=child_env(), cwd=ROOT)
        line = read_line(self.proc, 120.0)
        if not line.startswith(_LISTENING):
            raise BenchError(f"daemon printed {line!r}")
        host, port = line[len(_LISTENING):].rsplit(":", 1)
        self.host, self.port = host, int(port)

    def cpu_seconds(self) -> float:
        """User + system CPU the daemon has used so far (from /proc)."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def shutdown(self) -> None:
        """Ask the daemon to stop, then wait for (or kill) the process."""
        from repro.serve import ServeClient, ServeError

        if self.proc.poll() is None:
            try:
                with ServeClient.connect(self.host, self.port, timeout=5.0,
                                         call_timeout=30.0) as client:
                    client.shutdown(drain=False)
            except (ServeError, OSError):
                pass        # already going away; stop() kills if need be
        stop(self.proc)


@dataclasses.dataclass
class Tenant:
    """One tenant's spec, connection, frames and timings."""

    spec: object
    client: object
    images: np.ndarray
    labels: np.ndarray
    offsets: List[float]
    #: (pool index, accepted, dropped) of every chunk sent, in order
    chunks: list = dataclasses.field(default_factory=list)
    #: (due, sent, acked, ok, accepted) of every measured request
    requests: list = dataclasses.field(default_factory=list)
    errors: list = dataclasses.field(default_factory=list)
    failed_sends: int = 0
    warm_card: object = None
    final_card: object = None
    #: records a ``request`` span per send on traced runs
    tracer: Optional[Tracer] = None

    def send(self, due: Optional[float]) -> float:
        """Send the next chunk; returns the ack instant."""
        from repro.serve import ServeError

        batch = self.spec.batch_size
        index = len(self.chunks) * batch % len(self.labels)
        images = self.images[index:index + batch]
        labels = self.labels[index:index + batch]
        sent = time.perf_counter()
        try:
            ack = self.client.send_frames(images, labels)
        except ServeError as error:
            acked = time.perf_counter()
            self.failed_sends += 1
            self.errors.append(f"{self.spec.tenant} chunk "
                               f"{len(self.chunks)}: {error}")
            if due is not None:
                self.requests.append((due, sent, acked, False, 0))
            raise
        acked = time.perf_counter()
        if self.tracer is not None:
            self.tracer.record("request", sent, acked,
                               rid=f"{self.spec.tenant}/{len(self.chunks)}")
        accepted, dropped = ack.get("accepted"), ack.get("dropped")
        fields = [ack.get(key) for key in ("accepted", "dropped",
                                           "batches_done", "rollbacks",
                                           "degraded_batches",
                                           "fallback_frames")]
        ok = (all(isinstance(v, (int, float)) and math.isfinite(v)
                  for v in fields)
              and accepted + dropped == len(labels) and dropped == 0
              and ack.get("duplicate") is False)
        if not ok:
            self.errors.append(f"{self.spec.tenant} chunk {len(self.chunks)}"
                               f": bad or refusing ack {ack}")
        self.chunks.append((index, int(accepted or 0), int(dropped or 0)))
        if due is not None:
            self.requests.append((due, sent, acked, ok, int(accepted or 0)))
        return acked


def _drive(tenant: Tenant, wl: dict, seconds: float, barrier, clock) -> None:
    """One tenant thread: warm-up, then the measured loop."""
    from repro.serve import ServeError

    try:
        for _ in range(wl["warmup_requests"]):
            tenant.send(None)
        tenant.warm_card = tenant.client.scorecard()
    except ServeError:
        barrier.abort()
        return
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        return
    start = clock["start"]
    try:
        if wl["loop"] == "open":
            for offset in tenant.offsets:
                due = start + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                tenant.send(due)
        else:
            due = start
            while due < start + seconds:
                due = tenant.send(due)
    except ServeError:
        pass                # recorded in tenant.errors; the tenant stops


def _connect(daemon: Daemon, specs) -> list:
    from repro.serve import ServeClient

    clients = []
    for spec in specs:
        client = ServeClient.connect(daemon.host, daemon.port, timeout=30.0,
                                     call_timeout=60.0)
        client.hello(spec)
        clients.append(client)
    return clients


def run(name: str, cfg: dict, seed: int, seconds: float, trace: bool,
        result: Result, tracer: Tracer, workdir: Path) -> dict:
    from repro.serve import TenantSpec

    wl = cfg[name]
    count = wl["tenants"]
    if count > os.cpu_count():
        raise BenchError(f"{name} needs {count} tenant threads; this host "
                         f"has {os.cpu_count()} CPUs")
    specs = [TenantSpec(tenant=f"t{i}", model=wl["model"],
                        method=wl["method"], batch_size=wl["batch_size"],
                        guard=wl["guard"], seed=wl["model_seed"] + i)
             for i in range(count)]
    pools = [corruption_stream(cfg, wl["pool_frames"], seed * 100 + i)
             for i in range(count)]
    request_rate = None
    if wl["loop"] == "open":
        request_rate = wl["rate_frames_per_s_per_tenant"] / wl["batch_size"]

    daemons: List[Daemon] = []
    clients = []
    try:
        setups = []
        for rep in range(wl["setup_repeats"]):
            journal = workdir / f"journal-{rep}.jsonl" if wl["journal"] \
                else None
            start = time.perf_counter()
            daemons.append(Daemon(journal))
            clients = _connect(daemons[-1], specs)
            setups.append(time.perf_counter() - start)
            if rep + 1 < wl["setup_repeats"]:
                for client in clients:
                    client.close()
                daemons[-1].shutdown()
        daemon = daemons[-1]
        tenants = []
        for i, (spec, client, pool) in enumerate(zip(specs, clients, pools)):
            offsets = []
            if request_rate is not None:
                rng = np.random.default_rng([seed, i])
                offsets = sorted(rng.uniform(0.0, seconds,
                                             round(request_rate * seconds)))
            tenants.append(Tenant(spec, client, pool.images, pool.labels,
                                  offsets, tracer=tracer if trace else None))

        clock = {}
        cpu = {}

        def _start() -> None:
            cpu["start"] = daemon.cpu_seconds()
            clock["start"] = time.perf_counter()

        barrier = threading.Barrier(count, action=_start, timeout=120.0)
        threads = [threading.Thread(target=_drive,
                                    args=(t, wl, seconds, barrier, clock))
                   for t in tenants]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        cpu["end"] = daemon.cpu_seconds()
        if "start" not in clock:
            raise BenchError("; ".join(e for t in tenants for e in t.errors)
                             or "warm-up failed")
        status = clients[0].status()
        for tenant in tenants:
            tenant.final_card = tenant.client.close_tenant()
        for client in clients:
            client.close()
        daemon.shutdown()
    finally:
        for client in clients:
            client.close()
        for each in daemons:
            if each.proc.poll() is None:
                each.proc.kill()
            stop(each.proc)

    replay = _replay(specs, tenants, trace, tracer, workdir)
    _report(cfg, wl, result, tracer, trace, tenants, status, replay, setups,
            clock["start"], cpu, request_rate,
            workdir / f"journal-{wl['setup_repeats'] - 1}.jsonl"
            if wl["journal"] else None)
    return {"seed": seed, "tenants": count, "model": wl["model"],
            "method": wl["method"], "guard": wl["guard"],
            "batch_size": wl["batch_size"], "journal": wl["journal"],
            "loop": wl["loop"],
            "rate_frames_per_s_per_tenant":
                wl.get("rate_frames_per_s_per_tenant"),
            "image_size": cfg["image_size"], "pool_frames": wl["pool_frames"],
            "requests": sum(len(t.chunks) for t in tenants),
            "setup_s_each": setups}


def _replay(specs, tenants, trace: bool, tracer: Tracer, workdir: Path):
    """Re-run every tenant's frames in process, one thread per tenant."""
    from repro.engine import default_backend, use_backend
    from repro.models.registry import build_model
    from repro.nn import init as nn_init
    from repro.resilience.journal import RunJournal
    from repro.serve.session import AdaptationSession

    sessions = []
    for spec in specs:      # model init draws from a process-wide generator
        nn_init.seed(spec.seed)
        model = build_model(spec.model, profile="tiny")
        model.eval()
        sessions.append(AdaptationSession(model, spec.method,
                                          guard=spec.guard,
                                          tenant=spec.tenant).start())
    backend = default_backend()
    traced_backend = TracingBackend(backend, tracer)
    timed = {True: [0.0, 0], False: [0.0, 0]}
    lock = threading.Lock()
    arena_before = backend.arena_stats()

    def _one(tenant: Tenant, session) -> None:
        batch = tenant.spec.batch_size
        pending_images, pending_labels = [], []
        journal = RunJournal(workdir / f"replay-{tenant.spec.tenant}.jsonl")
        try:
            for index, accepted, dropped in tenant.chunks:
                session.drop_frames(dropped)
                pending_images.extend(tenant.images[index:index + accepted])
                pending_labels.extend(tenant.labels[index:index + accepted])
                while len(pending_images) >= batch:
                    images = np.stack(pending_images[:batch])
                    labels = np.asarray(pending_labels[:batch])
                    del pending_images[:batch], pending_labels[:batch]
                    number = session.batches_total
                    traced = trace and number % 2 == 1
                    rid = f"{tenant.spec.tenant}/{number}"
                    start = time.perf_counter()
                    if traced:
                        with tracer.span("batch", rid=rid), \
                                use_backend(traced_backend):
                            session.process_batch(images, labels)
                    else:
                        session.process_batch(images, labels)
                    elapsed = time.perf_counter() - start
                    with lock:
                        timed[traced][0] += elapsed
                        timed[traced][1] += batch
                    # a BN-Opt checkpoint is ~490 KB plus an fsync, so only
                    # the first four traced batches of a tenant are timed
                    if traced and number < 8:
                        checkpoint_and_append(tracer, journal, session, rid)
        finally:
            journal.close()
        session.close(restore_model=False)

    threads = [threading.Thread(target=_one, args=(tenant, session))
               for tenant, session in zip(tenants, sessions)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"cards": [session.scorecard() for session in sessions],
            "timed": timed, "arena": (arena_before, backend.arena_stats()),
            "batches": sum(session.batches_total for session in sessions)}


def _strip_timing(card):
    return dataclasses.replace(card, mean_frame_latency_s=0.0,
                               wall_time_s=0.0)


def check_scorecards(served, replayed) -> List[str]:
    """Differences between the daemon's and the replay's scorecards."""
    problems = []
    for card, twin in zip(served, replayed):
        if _strip_timing(card) != _strip_timing(twin):
            problems.append(f"tenant {twin.tenant}: served scorecard {card} "
                            f"!= in-process replay {twin}")
    return problems


def _report(cfg, wl, result: Result, tracer: Tracer, trace: bool, tenants,
            status, replay, setups, start, cpu, request_rate,
            journal_path) -> None:
    ladder, beyond = cfg["tail_ladder"], cfg["tail_min_beyond"]
    batch = wl["batch_size"]
    requests = [r for t in tenants for r in t.requests]
    good = [r for r in requests if r[3]]

    # -- checks ---------------------------------------------------------
    for tenant in tenants:
        result.attempted += len(tenant.chunks) + tenant.failed_sends
        for error in tenant.errors:
            result.fail(error)
        failed = tenant.failed_sends * batch
        offered = len(tenant.chunks) * batch + failed
        card = tenant.final_card
        if offered != card.frames_processed + card.frames_dropped + failed:
            result.fail(f"{tenant.spec.tenant}: frame accounting: offered "
                        f"{offered} != processed {card.frames_processed} + "
                        f"dropped {card.frames_dropped} + failed {failed}")
    for problem in check_scorecards([t.final_card for t in tenants],
                                    replay["cards"]):
        result.fail(problem)

    # -- end to end -----------------------------------------------------
    last_ack = max(r[2] for r in requests)
    frames = sum(r[4] for r in good)
    request_ms = [(r[2] - r[1]) * 1e3 for r in good]
    result.put("setup_s", median(setups), "s",
               f"median of {len(setups)} spawn->listening+hellos")
    result.put("frames_per_s", frames / (last_ack - start), "frames/s",
               f"n={frames} frames" + (
                   f", offered {request_rate * batch * len(tenants):g}"
                   if request_rate else ""))
    p50, tail, pct, n = latency_summary(request_ms, ladder, beyond)
    result.put("request_ms_p50", p50, "ms", f"send->ack, n={n}")
    result.put("request_ms_tail", tail, "ms", f"p{pct:g}, n={n}")
    result.put("peak_rss_mb", peak_rss_mb(resource.RUSAGE_CHILDREN), "MB",
               "daemon children")
    if request_rate is not None:
        # open loop only: latency from the due instant, and the share of
        # requests acked within the tenant's batch period (the repo's
        # late-batch rule); a failed request misses
        period_ms = 1e3 / request_rate
        open_ms = [(r[2] - r[0]) * 1e3 for r in good]
        p50, tail, pct, n = latency_summary(open_ms, ladder, beyond)
        result.put("open_loop_ms_p50", p50, "ms", f"due->ack, n={n}")
        result.put("open_loop_ms_tail", tail, "ms", f"p{pct:g}, n={n}")
        result.put("deadline_met_share",
                   sum(ms <= period_ms for ms in open_ms) / len(requests),
                   "ratio", f"within {period_ms:.1f} ms, n={len(requests)}")

    # -- per layer ------------------------------------------------------
    if not trace:
        return
    batch_spans = tracer.named("batch")
    for metric, value in engine_summary(tracer, batch_spans).items():
        result.put(metric, value, engine_unit(metric), "in-process replay")
    for arch in cfg["adapt-stream"]["archs"]:
        spans = [s.duration * 1e3 for s in batch_spans] \
            if arch == wl["model"] else []
        result.put(f"models.{arch}.batch_ms_p50",
                   median(spans) if spans else 0.0, "ms",
                   f"replay, n={len(spans)}")
        result.put(f"models.{arch}.frames_per_s",
                   batch * len(spans) / sum(spans) * 1e3 if spans else 0.0,
                   "frames/s")
    timed = replay["timed"]
    traced_fps = timed[True][1] / timed[True][0]
    untraced_fps = timed[False][1] / timed[False][0]
    result.put("trace.overhead_share", 1.0 - traced_fps / untraced_fps,
               "ratio", f"replay: untraced {untraced_fps:.2f} vs traced "
               f"{traced_fps:.2f} frames/s")
    busy_s = sum(t.final_card.wall_time_s - t.warm_card.wall_time_s
                 for t in tenants)
    busy_batches = sum(t.final_card.batches_total - t.warm_card.batches_total
                       for t in tenants)
    busy_ms = busy_s / busy_batches * 1e3
    result.put("session.busy_ms", busy_ms, "ms", "scorecard wall/batches")
    result.put("serve.residual_ms", sum(request_ms) / len(request_ms)
               - busy_ms, "ms", "mean request - session busy")
    result.put("scheduler.dispatched", status["scheduler"]["dispatched"],
               "count")
    result.put("admission.frames_dropped",
               sum(t["frames_dropped"] for t in status["tenants"].values()),
               "count")
    cards = [t.final_card for t in tenants]
    put_guard(result, sum(c.rollbacks for c in cards),
               sum(c.degraded_batches for c in cards),
               sum(c.fallback_frames for c in cards),
               sum(c.batches_total for c in cards))
    arena_before, arena_after = replay["arena"]
    put_arena(result, arena_before, arena_after, replay["batches"])
    if journal_path is not None:
        with open(journal_path, "rb") as handle:
            entries = sum(chunk.count(b"\n")
                          for chunk in iter(lambda: handle.read(1 << 20), b""))
        result.put("journal.bytes_per_batch",
                   status["journal"]["size_bytes"]
                   / status["scheduler"]["dispatched"], "B")
        result.put("journal.entries", entries, "count")
    else:
        result.put("journal.bytes_per_batch", 0, "B", "no daemon journal")
        result.put("journal.entries", 0, "count", "no daemon journal")
    put_checkpoint(result, tracer)
    wall = last_ack - start
    result.put("daemon.cpu_ms_per_frame",
               (cpu["end"] - cpu["start"]) / frames * 1e3, "ms")
    result.put("daemon.cpu_util",
               (cpu["end"] - cpu["start"]) / (wall * os.cpu_count()), "ratio")
    lags = [(r[1] - r[0]) * 1e3 for r in requests]
    p50, tail, pct, n = latency_summary(lags, ladder, beyond)
    result.put("loadgen.lag_ms_p50", p50, "ms", f"send - due, n={n}")
    result.put("loadgen.lag_ms_tail", tail, "ms", f"p{pct:g}, n={n}")
