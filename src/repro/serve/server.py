"""The asyncio front end: HTTP on localhost and/or a Unix socket.

Endpoints (full wire format in docs/serve.md):

========  =======================  ==========================================
Method    Path                     Meaning
========  =======================  ==========================================
GET       ``/healthz``             liveness + engine version
GET       ``/metrics``             serve-level metrics snapshot
GET       ``/jobs``                status summary of every retained job
POST      ``/jobs``                submit one job (202 + status, 400/429)
GET       ``/jobs/<id>``           one job's status
GET       ``/jobs/<id>/stream``    JSON-lines result stream (replay + live)
POST      ``/jobs/<id>/cancel``    request cancellation
========  =======================  ==========================================

Every error is a typed JSON object ``{"error": {"code", "message"}}``
with a matching status: 400 malformed, 404 unknown job/path, 405 wrong
method, 413 over budget, 429 admission refusal.  A job the scheduler no
longer retains (see ``RETAINED_TERMINAL_JOBS`` in
:mod:`repro.serve.scheduler`) is an unknown job: the same 404.

A stream is written batch by batch as the scheduler hands batches over
(:meth:`~repro.serve.scheduler.Scheduler.stream_batches`): the response
head plus the job's whole history in the first write, then one write and
one drain per wake-up carrying every record emitted since — never one
syscall per line, and never a ready record waiting for a later one.

The server binds either a TCP address (loopback by default — this is a
trusted-network service, there is no auth layer) or a Unix domain
socket, or both.  ``ready_file`` (used by CI and the test harness)
receives one line per bound address once accepting.
"""

from __future__ import annotations

import asyncio
import json
import os
from typing import Any, Dict, List, Optional

from .. import __version__ as ENGINE_VERSION
from .http import (ProtocolError, Request, json_line, read_request,
                   response_bytes, split_path, stream_head)
from .jobs import JobError
from .scheduler import Scheduler


class ServeServer:
    """Owns the listening sockets and routes requests into a Scheduler."""

    def __init__(self, scheduler: Scheduler,
                 host: Optional[str] = "127.0.0.1", port: int = 0,
                 unix_path: Optional[str] = None,
                 ready_file: Optional[str] = None) -> None:
        if host is None and unix_path is None:
            raise ValueError("need a TCP host or a unix socket path to bind")
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.ready_file = ready_file
        self._servers: List[asyncio.AbstractServer] = []
        #: bound addresses, e.g. ["127.0.0.1:8642", "unix:/tmp/s.sock"]
        self.addresses: List[str] = []

    # ------------------------------------------------------------------
    async def start(self) -> List[str]:
        await self.scheduler.start()
        if self.host is not None:
            server = await asyncio.start_server(self._handle, self.host,
                                                self.port)
            for sock in server.sockets:
                bound_host, bound_port = sock.getsockname()[:2]
                self.addresses.append(f"{bound_host}:{bound_port}")
                self.port = bound_port
            self._servers.append(server)
        if self.unix_path is not None:
            server = await asyncio.start_unix_server(self._handle,
                                                     path=self.unix_path)
            self.addresses.append(f"unix:{self.unix_path}")
            self._servers.append(server)
        if self.ready_file:
            tmp = self.ready_file + f".tmp{os.getpid()}"
            with open(tmp, "w") as fh:
                fh.write("\n".join(self.addresses) + "\n")
            os.replace(tmp, self.ready_file)
        return self.addresses

    async def stop(self) -> None:
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers.clear()
        await self.scheduler.stop()
        if self.unix_path and os.path.exists(self.unix_path):
            try:
                os.unlink(self.unix_path)
            except OSError:
                pass

    async def serve_forever(self) -> None:
        await self.start()
        try:
            await asyncio.gather(*(s.serve_forever() for s in self._servers))
        finally:
            await self.stop()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await read_request(reader)
            except ProtocolError as exc:
                writer.write(response_bytes(exc.status, exc.to_json()))
                return
            await self._route(request, reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass                      # client went away mid-exchange
        except Exception as exc:      # never let a handler kill the loop
            try:
                writer.write(response_bytes(500, {"error": {
                    "code": "internal",
                    "message": f"{type(exc).__name__}: {exc}"}}))
            except ConnectionError:
                pass
        finally:
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(self, request: Request, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        segments = split_path(request.path)
        try:
            if segments == ("healthz",):
                self._require(request, "GET")
                writer.write(response_bytes(200, {
                    "ok": True, "version": ENGINE_VERSION,
                    "addresses": self.addresses}))
            elif segments == ("metrics",):
                self._require(request, "GET")
                writer.write(response_bytes(
                    200, self.scheduler.registry.snapshot()))
            elif segments == ("jobs",):
                if request.method == "GET":
                    writer.write(response_bytes(200, {
                        "jobs": [job.snapshot() for job in
                                 self.scheduler.jobs.values()]}))
                elif request.method == "POST":
                    job = self.scheduler.submit(request.json())
                    writer.write(response_bytes(202, {"job": job.snapshot()}))
                else:
                    raise ProtocolError(405, "method-not-allowed",
                                        f"{request.method} /jobs")
            elif len(segments) == 2 and segments[0] == "jobs":
                self._require(request, "GET")
                job = self.scheduler.get(segments[1])
                writer.write(response_bytes(200, {"job": job.snapshot()}))
            elif len(segments) == 3 and segments[0] == "jobs" and \
                    segments[2] == "stream":
                self._require(request, "GET")
                await self._stream(segments[1], writer)
            elif len(segments) == 3 and segments[0] == "jobs" and \
                    segments[2] == "cancel":
                self._require(request, "POST")
                job = self.scheduler.cancel(segments[1])
                writer.write(response_bytes(200, {"job": job.snapshot()}))
            else:
                raise ProtocolError(404, "not-found",
                                    f"no route {request.path!r}")
        except ProtocolError as exc:
            writer.write(response_bytes(exc.status, exc.to_json()))
        except JobError as exc:
            writer.write(response_bytes(exc.status, exc.to_json()))

    @staticmethod
    def _require(request: Request, method: str) -> None:
        if request.method != method:
            raise ProtocolError(405, "method-not-allowed",
                                f"{request.method} {request.path} "
                                f"(use {method})")

    async def _stream(self, job_id: str, writer: asyncio.StreamWriter) -> None:
        batches = self.scheduler.stream_batches(job_id)
        # The head rides with the first batch (the history, never empty),
        # so an unknown job raises before a byte is written: a plain 404.
        head = stream_head()
        try:
            async for batch in batches:
                # Everything ready goes out in one write + one drain;
                # nothing ready ever waits for a later record.
                writer.write(head + b"".join(map(json_line, batch)))
                head = b""
                await writer.drain()
        finally:
            await batches.aclose()     # detach now, not at collection
