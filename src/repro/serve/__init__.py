"""Serve layer: the multi-tenant adaptation daemon and its client.

The paper's deployment story is a model adapting *in production* on an
edge box; this package is that runtime.  Each tenant is one
:class:`~repro.adapt.session.AdaptationSession` — the same session the
study runner and the stream drivers use, imported from
:mod:`repro.adapt` below this layer, so the daemon serves *exactly*
the code path the experiments measure.  Around it sit
:class:`~repro.serve.manager.SessionManager`,
:class:`~repro.serve.daemon.ServeDaemon`,
:class:`~repro.serve.client.ServeClient` and the wire protocol
(:mod:`repro.serve.protocol`): multi-tenant streaming over TCP with
journal-backed crash recovery — kill the daemon, restart with
``--resume``, and every tenant continues bit-identically.  Importing
this package loads no study-layer module (:mod:`repro.core`,
:mod:`repro.data`).

Long-lived operation is hardened and *tested under adversity*:
:mod:`repro.serve.chaos` provides a seeded TCP chaos proxy (mid-frame
disconnects, truncated frames, dribbling senders, garbage) reusing the
robustness layer's fault grammar; the daemon answers with connection
deadlines, recoverable protocol-error replies, a ``status`` health
message, graceful drain, idle-tenant eviction, and online journal
compaction, while the client retries idempotently with seeded backoff.

The stack is *fast and measurably so*: the daemon is a
``selectors`` event loop (thousands of connections, no
thread-per-connection), batches from many tenants coalesce through the
cross-tenant :class:`~repro.serve.scheduler.BatchScheduler`, and
:mod:`repro.serve.loadgen` generates seeded open-loop multi-tenant
load and reduces it to p50/p95/p99 latency + throughput — the
``serving`` section of ``BENCH_engine.json`` that ``bench --compare``
gates in CI.

CLI: ``repro serve`` / ``repro serve-client`` / ``repro serve-bench``.
"""

from repro.serve.chaos import (
    NETWORK_FAULT_NAMES,
    ChaosProxy,
    parse_network_fault_specs,
)
from repro.serve.client import (
    ServeClient,
    ServeDisconnectedError,
    ServeError,
    ServeTimeoutError,
)
from repro.serve.daemon import ServeDaemon, serve
from repro.serve.loadgen import (
    ARRIVAL_KINDS,
    ArrivalSpec,
    TenantLoad,
    parse_arrival_spec,
    run_loadgen,
    run_serving_bench,
)
from repro.serve.manager import AdmissionError, SessionManager, TenantSpec
from repro.serve.scheduler import (
    BatchScheduler,
    BatchTicket,
    SchedulerClosedError,
)

__all__ = [
    "ARRIVAL_KINDS",
    "AdmissionError",
    "ArrivalSpec",
    "BatchScheduler",
    "BatchTicket",
    "ChaosProxy",
    "NETWORK_FAULT_NAMES",
    "SchedulerClosedError",
    "ServeClient",
    "ServeDaemon",
    "ServeDisconnectedError",
    "ServeError",
    "ServeTimeoutError",
    "SessionManager",
    "TenantLoad",
    "TenantSpec",
    "parse_arrival_spec",
    "parse_network_fault_specs",
    "run_loadgen",
    "run_serving_bench",
    "serve",
]
