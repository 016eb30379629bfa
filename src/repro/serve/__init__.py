"""repro.serve — dynamic-batching FFT service over the simulated stack.

The throughput front door the paper's killer app implies (ZDOCK-style
docking streams thousands of 3-D FFTs through one card): an
:class:`FFTServer` accepts concurrent :class:`FFTRequest` submissions
from many tenants, coalesces compatible requests into pipelined batches
on a shape/precision/norm/direction key, applies admission control
(bounded queue, per-tenant quotas, deadline feasibility), schedules with
priority + earliest-deadline-first + tenant fair-share, and dispatches
through the in-core :class:`~repro.core.batch.BatchedGpuFFT3D` engine
(a lone request is a batch of one) with its resilient retry machinery
and shared :data:`~repro.core.plan_cache.PLAN_CACHE` plans.

The serving layer is chaos-hardened: every dispatch worker owns a
circuit breaker and a four-state health machine (:mod:`repro.serve.health`)
driven by batch outcomes and synthetic probes; a dying card is ejected,
its in-flight requests re-queue to the survivors (deadline- and
budget-checked), and :meth:`FFTServer.drain` quiesces gracefully with a
typed :class:`DrainingError` at the door.  The seeded drill in
:mod:`repro.serve.chaos` pins the invariants: no future is ever lost,
non-faulted results are bit-identical to a fault-free run, and a fixed
seed reproduces the drill byte for byte.

Since PR 7 the stack is reachable over a wire: :class:`Gateway` is a
zero-dependency ASGI application (:mod:`repro.serve.gateway`) whose
typed routes (:mod:`repro.serve.wire`) expose submit / status / result /
submit-and-wait over HTTP, with tenant identity derived from auth
headers and every rejection in the :mod:`repro.serve.errors` taxonomy
projected onto a stable (:class:`ErrorCode`, HTTP status) pair
(:mod:`repro.serve.codes`).  :mod:`repro.serve.httpd` hosts it on a
stdlib ``asyncio`` HTTP/1.1 server with keep-alive, so nothing beyond
the standard library sits between a client socket and the scheduler.

See DESIGN.md §13/§15/§16 and the README "Serving" / "Resilient
serving" / "Gateway" sections; the acceptance experiments live in
``benchmarks/bench_serve.py``, ``benchmarks/bench_resilience.py`` and
``benchmarks/bench_gateway.py``.
"""

from repro.serve.admission import AdmissionController, AdmissionPolicy
from repro.serve.codes import (
    HTTP_STATUS,
    REJECTION_TAXONOMY,
    RETRY_AFTER,
    ErrorCode,
    http_status,
    needs_retry_after,
)
from repro.serve.coalescer import CoalesceDecision, CoalescePolicy, Coalescer
from repro.serve.errors import (
    DeadlineExpiredError,
    DrainingError,
    InfeasibleDeadlineError,
    QueueFullError,
    RejectedError,
    RequeueExhaustedError,
    ServeError,
    ServerClosedError,
    TenantQuotaError,
)
from repro.serve.gateway import (
    Gateway,
    GatewayError,
    GatewayPolicy,
    GatewayRequest,
    Response,
    Route,
    TenantAuth,
)
from repro.serve.health import (
    CircuitBreaker,
    HealthMonitor,
    HealthPolicy,
    HealthTransition,
)
from repro.serve.httpd import AsgiHttpServer, HttpClient, HttpResponse, asgi_request
from repro.serve.queueing import PendingQueue, Ticket
from repro.serve.request import FFTFuture, FFTRequest, PlanKey
from repro.serve.scheduler import FairScheduler, SchedulerPolicy
from repro.serve.server import FFTServer, ServeStats
from repro.serve.wire import (
    AcceptedBody,
    ErrorBody,
    StatusBody,
    SubmitBody,
    WireError,
    decode_array,
    encode_array,
)

__all__ = [
    "AcceptedBody",
    "AdmissionController",
    "AdmissionPolicy",
    "AsgiHttpServer",
    "CircuitBreaker",
    "CoalesceDecision",
    "CoalescePolicy",
    "Coalescer",
    "DeadlineExpiredError",
    "DrainingError",
    "ErrorBody",
    "ErrorCode",
    "FFTFuture",
    "FFTRequest",
    "FFTServer",
    "FairScheduler",
    "Gateway",
    "GatewayError",
    "GatewayPolicy",
    "GatewayRequest",
    "HTTP_STATUS",
    "HealthMonitor",
    "HealthPolicy",
    "HealthTransition",
    "HttpClient",
    "HttpResponse",
    "InfeasibleDeadlineError",
    "PendingQueue",
    "PlanKey",
    "QueueFullError",
    "REJECTION_TAXONOMY",
    "RETRY_AFTER",
    "RejectedError",
    "RequeueExhaustedError",
    "Response",
    "Route",
    "ServeError",
    "ServeStats",
    "ServerClosedError",
    "SchedulerPolicy",
    "StatusBody",
    "SubmitBody",
    "TenantAuth",
    "Ticket",
    "WireError",
    "asgi_request",
    "decode_array",
    "encode_array",
    "http_status",
    "needs_retry_after",
]
