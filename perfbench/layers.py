"""Per-layer instruments shared by the workloads.

:class:`TracingBackend` is a delegating engine backend, installed with
``repro.engine.use_backend`` around the benchmark's calls into
``AdaptationSession.process_batch``.  It records one span per leaf-kernel
call and hands every kernel unchanged to the wrapped backend, so the
numerics are the program's own; the work each call did is computed from
its tensor shapes.  The ``put_*`` helpers turn spans and scorecards into
the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

from repro.engine.base import Backend

from common import Result, median
from spans import Span, Tracer, self_time

#: kernel span names, as reported under ``engine.<name>``
KERNELS = ("conv_fwd", "conv_dx", "conv_dw", "bn_stats", "pad", "pool",
           "matmul")


def conv_kind(in_channels: int, groups: int) -> str:
    if groups == 1:
        return "standard"
    return "depthwise" if groups == in_channels else "grouped"


class TracingBackend(Backend):
    """Times every leaf kernel of ``inner`` into ``tracer``."""

    name = "traced"

    def __init__(self, inner: Backend, tracer: Tracer) -> None:
        super().__init__()
        self.inner = inner
        # the autograd glue releases padded inputs into ``backend.arena``
        self.arena = inner.arena
        self.tracer = tracer

    def conv2d_forward(self, xp, weight, stride, groups):
        start = time.perf_counter()
        out = self.inner.conv2d_forward(xp, weight, stride, groups)
        end = time.perf_counter()
        co, cig, kh, kw = weight.shape
        flop = 2 * out.size * cig * kh * kw
        self.tracer.record("conv_fwd", start, end,
                           kind=conv_kind(xp.shape[1], groups), flop=flop,
                           bytes=xp.nbytes + weight.nbytes + out.nbytes)
        return out

    def conv2d_backward(self, grad, xp, weight, stride, groups,
                        need_input_grad, need_weight_grad):
        start = time.perf_counter()
        dxp, dw = self.inner.conv2d_backward(grad, xp, weight, stride, groups,
                                             need_input_grad, need_weight_grad)
        end = time.perf_counter()
        co, cig, kh, kw = weight.shape
        per_product = 2 * grad.size * cig * kh * kw
        flop = per_product * (int(need_input_grad) + int(need_weight_grad))
        moved = grad.nbytes + weight.nbytes
        if dxp is not None:
            moved += dxp.nbytes
        if dw is not None:
            moved += xp.nbytes + dw.nbytes
        self.tracer.record("conv_dx" if need_input_grad else "conv_dw",
                           start, end, kind=conv_kind(xp.shape[1], groups),
                           flop=flop, bytes=moved)
        return dxp, dw

    def _timed(self, name, func, *args):
        start = time.perf_counter()
        out = func(*args)
        self.tracer.record(name, start, time.perf_counter())
        return out

    def matmul(self, a, b):
        return self._timed("matmul", self.inner.matmul, a, b)

    def batchnorm_stats(self, x):
        return self._timed("bn_stats", self.inner.batchnorm_stats, x)

    def pad_input(self, x, ph, pw):
        return self._timed("pad", self.inner.pad_input, x, ph, pw)

    def max_pool2d_forward(self, x, kernel, stride):
        return self._timed("pool", self.inner.max_pool2d_forward, x, kernel,
                           stride)

    def max_pool2d_backward(self, grad, arg, x_shape, kernel, stride):
        return self._timed("pool", self.inner.max_pool2d_backward, grad, arg,
                           x_shape, kernel, stride)

    def avg_pool2d_forward(self, x, kernel, stride):
        return self._timed("pool", self.inner.avg_pool2d_forward, x, kernel,
                           stride)

    def avg_pool2d_backward(self, grad, x_shape, kernel, stride):
        return self._timed("pool", self.inner.avg_pool2d_backward, grad,
                           x_shape, kernel, stride)

    def close(self) -> None:
        """The wrapped backend belongs to the caller; nothing to release."""


def engine_summary(tracer: Tracer, batches: Sequence[Span]) -> Dict[str, float]:
    """Per-batch kernel work under ``batches`` (means over the batches).

    ``tensor.self_ms`` is each batch span's self time: what the autograd
    layer, the loss, Adam and the session spend outside the kernels.
    """
    count = len(batches)
    out: Dict[str, float] = {}
    if not count:
        return out
    children = tracer.children()
    ms: Dict[str, float] = {name: 0.0 for name in KERNELS}
    calls: Dict[str, int] = {name: 0 for name in KERNELS}
    flop: Dict[str, float] = {name: 0.0 for name in KERNELS}
    moved: Dict[str, float] = {name: 0.0 for name in KERNELS}
    by_kind: Dict[str, float] = {}
    self_total = batch_total = 0.0
    for batch in batches:
        kids: List[Span] = children.get(batch.id, [])
        self_total += self_time(batch, kids)
        batch_total += batch.duration
        for kid in kids:
            if kid.name not in ms:
                continue
            ms[kid.name] += kid.duration * 1e3
            calls[kid.name] += 1
            flop[kid.name] += kid.attrs.get("flop", 0)
            moved[kid.name] += kid.attrs.get("bytes", 0)
            kind = kid.attrs.get("kind")
            if kind in ("grouped", "depthwise"):
                key = f"{kid.name}.{kind}"
                by_kind[key] = by_kind.get(key, 0.0) + kid.duration * 1e3
    for name in ("conv_fwd", "conv_dx"):
        out[f"engine.{name}.ms"] = ms[name] / count
        out[f"engine.{name}.calls"] = calls[name] / count
        out[f"engine.{name}.gflop"] = flop[name] / count / 1e9
        out[f"engine.{name}.mb"] = moved[name] / count / 1e6
        for kind in ("grouped", "depthwise"):
            out[f"engine.{name}.{kind}.ms"] = \
                by_kind.get(f"{name}.{kind}", 0.0) / count
    for name in ("bn_stats", "pad", "matmul"):
        out[f"engine.{name}.ms"] = ms[name] / count
    out["engine.kernel_ms"] = sum(ms.values()) / count
    out["tensor.self_ms"] = self_total * 1e3 / count
    out["trace.batch_ms"] = batch_total * 1e3 / count
    return out


def checkpoint_and_append(tracer, journal, session, rid: str) -> None:
    """Time the daemon's per-batch durability work on one session."""
    with tracer.span("checkpoint.encode", rid=rid):
        document = session.checkpoint()
    with tracer.span("journal.append", rid=rid):
        journal.append({"event": "tenant_checkpoint", "tenant": rid,
                        "checkpoint": document})


def engine_unit(name: str) -> str:
    for suffix, unit in ((".calls", "count"), (".gflop", "GFLOP"),
                         (".mb", "MB")):
        if name.endswith(suffix):
            return unit
    return "ms"


def check_coverage(result: Result, program_batch_ms: float) -> None:
    """Kernel time plus tensor self time must account for the batch.

    ``program_batch_ms`` is the session's own clock (its scorecard's
    ``wall_time_s`` per traced batch), taken apart from the spans.
    """
    metrics = result.metrics
    kernel, self_ms = metrics["engine.kernel_ms"][0], \
        metrics["tensor.self_ms"][0]
    if abs(kernel + self_ms - program_batch_ms) > 0.05 * program_batch_ms:
        result.fail(f"trace: kernel {kernel:.3f} + self {self_ms:.3f} ms is "
                    f"not within 5% of the session's own batch time "
                    f"{program_batch_ms:.3f} ms")


def put_guard(result, rollbacks, degraded, fallback, batches) -> None:
    result.put("guard.rollbacks", rollbacks, "count")
    result.put("guard.degraded_batches", degraded, "count")
    result.put("guard.fallback_frames", fallback, "count")
    result.put("guard.useful_ratio", 1.0 - degraded / batches, "ratio",
               "batches served at the requested method")


def put_arena(result, before, after, batches) -> None:
    requests = after.requests - before.requests
    hits = after.hits - before.hits
    result.put("engine.arena.hit_rate", hits / requests if requests else 0.0,
               "ratio", f"n={requests} acquisitions")
    result.put("engine.arena.mb_allocated",
               (after.bytes_allocated - before.bytes_allocated) / 1e6
               / batches, "MB", "per batch")


def put_checkpoint(result, tracer) -> None:
    for name in ("checkpoint.encode", "journal.append"):
        spans = tracer.named(name)
        result.put(f"{name}_ms",
                   median([span.duration * 1e3 for span in spans]), "ms",
                   f"median, n={len(spans)}")
