"""Blocking client for the simulation service — stdlib sockets only.

Host-side tooling (CLI, tests, benchmarks): nothing here runs inside a
simulated process, so real sockets are the point.  One request per
connection, matching the server's ``Connection: close`` discipline.

The address string is either ``host:port`` or ``unix:/path/to.sock``.
:meth:`ServeClient.stream` yields each JSON-lines record as it arrives
on the wire, so callers observe per-point results incrementally::

    client = ServeClient("127.0.0.1:8642")
    job = client.submit({"app": "water", "kind": "sweep"})
    for record in client.stream(job["id"]):
        print(record)

:func:`merge_grid` folds a complete record stream back into the exact
:class:`~repro.experiments.runner.SpeedupGrid` a direct
``Sweeper(workers=N)`` run would have produced — the same
:meth:`SpeedupGrid.put`, in the same insertion order — which is what the
byte-identity test pins.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ..experiments.runner import SpeedupGrid


class ServeError(Exception):
    """A typed error response (or transport failure) from the service."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(f"[{status} {code}] {message}")
        self.status = status
        self.code = code
        self.message = message


def _parse_address(address: str) -> Tuple[str, Any]:
    if address.startswith("unix:"):
        return ("unix", address[len("unix:"):])
    host, sep, port = address.rpartition(":")
    if not sep:
        raise ValueError(f"bad address {address!r} "
                         f"(want host:port or unix:/path)")
    return ("tcp", (host, int(port)))


class ServeClient:
    """Thin blocking HTTP client bound to one server address."""

    def __init__(self, address: str, timeout: float = 60.0) -> None:
        self.kind, self.target = _parse_address(address)
        self.address = address
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _connect(self) -> socket.socket:
        if self.kind == "unix":
            sock = socket.socket(socket.AF_UNIX,  # lint: ignore[blocking-call]
                                 socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            sock.connect(self.target)
            return sock
        # Host-side client code: blocking on the service socket is the job.
        return socket.create_connection(  # lint: ignore[blocking-call]
            self.target, timeout=self.timeout)

    def _request_raw(self, method: str, path: str,
                     payload: Any = None) -> Tuple[int, Any]:
        """Send one request; return ``(status, buffered reader)``."""
        body = b""
        if payload is not None:
            body = json.dumps(payload, sort_keys=True).encode()
        host = self.target[0] if self.kind == "tcp" else "localhost"
        head = (f"{method} {path} HTTP/1.1\r\n"
                f"Host: {host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n")
        sock = self._connect()
        try:
            sock.sendall(head.encode("latin-1") + body)
            reader = sock.makefile("rb")
        except Exception:
            sock.close()
            raise
        status_line = reader.readline().decode("latin-1")
        parts = status_line.split(" ", 2)
        if len(parts) < 2 or not parts[1].isdigit():
            reader.close()
            sock.close()
            raise ServeError(0, "protocol", f"bad status line {status_line!r}")
        status = int(parts[1])
        while True:                      # headers; close semantics only
            line = reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
        return status, (sock, reader)

    def _request(self, method: str, path: str, payload: Any = None) -> Any:
        """One request -> parsed JSON body; typed ServeError on 4xx/5xx."""
        status, (sock, reader) = self._request_raw(method, path, payload)
        try:
            raw = reader.read()
        finally:
            reader.close()
            sock.close()
        doc = json.loads(raw.decode()) if raw.strip() else None
        if status >= 400:
            err = (doc or {}).get("error", {})
            raise ServeError(status, err.get("code", "unknown"),
                             err.get("message", raw.decode(errors="replace")))
        return doc

    # ------------------------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        return self._request("GET", "/metrics")

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/jobs")["jobs"]

    def submit(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """Submit one job; returns its status object (with ``id``)."""
        return self._request("POST", "/jobs", payload=spec)["job"]

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")["job"]

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("POST", f"/jobs/{job_id}/cancel")["job"]

    def stream(self, job_id: str) -> Iterator[Dict[str, Any]]:
        """Yield result records as they arrive, ending after ``end``."""
        status, (sock, reader) = self._request_raw(
            "GET", f"/jobs/{job_id}/stream")
        try:
            if status >= 400:
                raw = reader.read()
                doc = json.loads(raw.decode()) if raw.strip() else {}
                err = doc.get("error", {})
                raise ServeError(status, err.get("code", "unknown"),
                                 err.get("message", "stream refused"))
            for line in reader:
                if not line.strip():
                    continue
                record = json.loads(line.decode())
                yield record
                if record.get("kind") == "end":
                    return
        finally:
            reader.close()
            sock.close()

    def submit_and_stream(self, spec: Dict[str, Any]
                          ) -> Iterator[Dict[str, Any]]:
        job = self.submit(spec)
        return self.stream(job["id"])


# ----------------------------------------------------------------------
# Merging streamed records back into Sweeper-shaped results
# ----------------------------------------------------------------------
def merge_grid(records: Iterable[Dict[str, Any]]) -> SpeedupGrid:
    """Fold one complete job stream into a :class:`SpeedupGrid`.

    Point insertion follows the spec's serial iteration order (``for lat
    in latencies for bw in bandwidths``) and points are set the way the
    Sweeper sets them, so the merged grid is byte-identical —
    ``repr``-equal, point for point — to a direct
    ``Sweeper(workers=N).speedup_grid(...)`` on the same inputs.
    """
    spec: Optional[Dict[str, Any]] = None
    baseline: Optional[float] = None
    runtimes: Dict[Tuple[float, float], float] = {}
    final: Optional[Dict[str, Any]] = None
    for record in records:
        kind = record.get("kind")
        if kind == "job":
            spec = record["spec"]
        elif kind == "baseline":
            baseline = float(record["runtime"])
        elif kind == "point":
            if record.get("ok") is False:
                raise ServeError(0, record.get("error", "point-failed"),
                                 record.get("detail", "point failed"))
            runtimes[(record["bandwidth_mbyte_s"],
                      record["latency_ms"])] = float(record["runtime"])
        elif kind == "end":
            final = record
    if spec is None or final is None:
        raise ServeError(0, "incomplete-stream",
                         "stream ended without job header or end record")
    if final["state"] != "done":
        raise ServeError(0, f"job-{final['state']}",
                         final.get("error", f"job ended {final['state']}"))
    if baseline is None:
        raise ServeError(0, "incomplete-stream", "no baseline record")
    grid = SpeedupGrid(app=spec["app"], variant=spec["variant"],
                       baseline_runtime=baseline)
    for lat in spec["latencies"]:
        for bw in spec["bandwidths"]:
            grid.put(bw, lat, runtimes[(bw, lat)])
    return grid
