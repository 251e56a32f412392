"""Command-line entry point: serve the cleaning gateway over HTTP.

Usage::

    python -m repro.server --port 8080 --workers 4

``--port 0`` binds an ephemeral port; the chosen port is printed on the
"listening" line and, with ``--port-file``, written to a file so scripts
(CI's ``server-smoke`` job, the benchmark harness) can discover it without
parsing stdout.

Shutdown is graceful on SIGTERM/SIGINT: the listener stops accepting,
in-flight and queued jobs drain on the worker pools, the shared prompt
cache is flushed, and only then does the process exit.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from pathlib import Path
from typing import Optional, Sequence

from repro import obs
from repro.llm.simulated import SimulatedSemanticLLM
from repro.server.gateway import CleaningGateway
from repro.server.http import make_server


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="HTTP gateway for batch and stream cleaning (stdlib only).",
    )
    parser.add_argument("--host", default="127.0.0.1", help="Bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8080, help="Port to listen on (0 = ephemeral)")
    parser.add_argument(
        "--port-file",
        default=None,
        help="Write the bound port to this file once listening (for scripts/CI)",
    )
    parser.add_argument("--workers", type=int, default=4, help="Batch cleaning worker threads")
    parser.add_argument("--stream-workers", type=int, default=2, help="Stream worker threads")
    parser.add_argument(
        "--max-pending-jobs",
        type=int,
        default=64,
        help="Bounded admission: unfinished jobs beyond this answer 429 (default: 64)",
    )
    parser.add_argument(
        "--max-pending-batches",
        type=int,
        default=4,
        help="Per-stream backpressure bound; fuller streams answer 429 (default: 4)",
    )
    parser.add_argument("--cache", default=None, help="Persistent JSON prompt-cache path")
    parser.add_argument(
        "--flush-every",
        type=int,
        default=32,
        help="Persist the prompt cache after every N new entries (default: 32)",
    )
    parser.add_argument(
        "--llm-latency",
        type=float,
        default=0.0,
        help="Simulated per-LLM-call latency in seconds (models a hosted LLM)",
    )
    parser.add_argument(
        "--retry-after",
        type=float,
        default=1.0,
        help="Retry-After hint (seconds) sent with 429 responses (default: 1)",
    )
    parser.add_argument(
        "--no-tracing",
        action="store_true",
        help="Disable per-request/per-job span tracing (metrics stay on)",
    )
    parser.add_argument(
        "--trace-export",
        default=None,
        help="Append every finished trace to this JSONL file",
    )
    parser.add_argument("--verbose", action="store_true", help="Log every request to stderr")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.workers < 1 or args.stream_workers < 1:
        print("error: worker counts must be >= 1", file=sys.stderr)
        return 2
    if args.max_pending_jobs < 1 or args.max_pending_batches < 1:
        print("error: pending bounds must be >= 1", file=sys.stderr)
        return 2

    latency = args.llm_latency
    if args.trace_export:
        obs.configure(export_path=args.trace_export)

    def llm_factory():
        return SimulatedSemanticLLM(latency_seconds=latency) if latency > 0 else SimulatedSemanticLLM()

    gateway = CleaningGateway(
        workers=args.workers,
        stream_workers=args.stream_workers,
        max_pending_jobs=args.max_pending_jobs,
        max_pending_batches=args.max_pending_batches,
        llm_factory=llm_factory,
        cache_path=args.cache,
        cache_flush_every=args.flush_every,
        retry_after_seconds=args.retry_after,
        tracing=not args.no_tracing,
    )
    server = make_server(gateway, host=args.host, port=args.port, verbose=args.verbose)
    print(f"repro.server listening on http://{args.host}:{server.port}", flush=True)
    if args.port_file:
        Path(args.port_file).write_text(f"{server.port}\n", encoding="utf-8")

    stop = threading.Event()

    def request_shutdown(signum, frame):  # noqa: ARG001 - signal signature
        print(f"received signal {signum}, draining...", file=sys.stderr, flush=True)
        stop.set()

    signal.signal(signal.SIGTERM, request_shutdown)
    signal.signal(signal.SIGINT, request_shutdown)

    # serve_forever runs on a helper thread so the main thread stays free to
    # receive signals and orchestrate the drain (calling server.shutdown()
    # from inside the serving thread would deadlock).
    serving = threading.Thread(target=server.serve_forever, name="repro-server-accept", daemon=True)
    serving.start()
    try:
        stop.wait()
    finally:
        server.shutdown()  # stop accepting; in-flight handlers finish
        serving.join()
        server.server_close()
        gateway.shutdown(wait=True)  # drain queued jobs/batches, flush cache
        print("repro.server drained and stopped", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m
    sys.exit(main())
