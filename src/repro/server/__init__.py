"""HTTP gateway in front of the batch and stream cleaning services.

The paper's pitch is cleaning that *ships*: reusable SQL plus a system that
serves it.  This package is the serving layer in front of
:class:`~repro.service.CleaningService` and
:class:`~repro.stream.StreamService` — a dependency-free HTTP server (stdlib
``http.server`` threading only) exposing both over the network:

* :mod:`repro.server.gateway` — :class:`CleaningGateway`: the
  protocol-agnostic application object wiring one shared
  :class:`~repro.llm.cache.PromptCacheStore` through a bounded-admission
  ``CleaningService`` and a named-stream ``StreamService``;
* :mod:`repro.server.http` — request routing on a threading
  ``http.server``: ``POST /v1/jobs``, ``GET /v1/jobs/{id}``,
  ``GET /v1/jobs/{id}/result``, ``POST /v1/streams/{name}/batches``
  (backpressure surfaces as HTTP 429 with ``Retry-After``),
  ``GET /healthz`` and ``GET /metrics``;
* :mod:`repro.server.cli` — ``python -m repro.server`` with graceful
  drain-on-SIGTERM shutdown.

Served results are held byte-identical to the in-process pipeline by the
server tests and CI's ``server-smoke`` job; served-job latency is the
``serve-jobs`` workload of ``perfbench``.
"""

from repro.server.gateway import BadRequest, CleaningGateway, ResultNotReady
from repro.server.http import GatewayHTTPServer, make_server

__all__ = [
    "CleaningGateway",
    "BadRequest",
    "ResultNotReady",
    "GatewayHTTPServer",
    "make_server",
]
