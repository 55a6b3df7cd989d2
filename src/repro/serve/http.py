"""Minimal HTTP/1.1 plumbing for the asyncio front end — stdlib only.

Deliberately tiny: request parsing off a :class:`asyncio.StreamReader`
with hard size limits, JSON responses with ``Content-Length``, and a
chunkless streaming mode (``Connection: close``, no length) for the
JSON-lines result streams: :func:`stream_head` and :func:`json_line`
only build bytes, and the server joins the head and every line that is
ready into one write.  Every connection serves exactly one request;
keep-alive is not supported (clients open one socket per call, and the
stream endpoint holds its socket for the job's lifetime anyway).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

#: Request-line + headers budget.
MAX_HEADER_BYTES = 16 * 1024
#: Body budget (job submissions are small JSON objects).
MAX_BODY_BYTES = 1024 * 1024

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error",
}


class ProtocolError(Exception):
    """A malformed or over-budget request; maps to one typed response."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message

    def to_json(self) -> Dict[str, Any]:
        return {"error": {"code": self.code, "message": self.message}}


@dataclass
class Request:
    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Any:
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ProtocolError(400, "invalid-json",
                                f"request body is not valid JSON: {exc}") \
                from None


def _parse_query(raw: str) -> Dict[str, str]:
    """``a=1&b=2`` -> dict.  No percent-decoding: the service's query
    parameters (ids, counts) never need it, and skipping it keeps the
    parser dependency-free."""
    out: Dict[str, str] = {}
    for part in raw.split("&"):
        if not part:
            continue
        key, _, value = part.partition("=")
        out[key] = value
    return out


async def read_request(reader) -> Request:
    """Parse one request from the stream, enforcing size budgets."""
    try:
        line = await reader.readuntil(b"\r\n")
    except Exception as exc:
        raise ProtocolError(400, "bad-request",
                            f"could not read request line: {exc}") from None
    if len(line) > MAX_HEADER_BYTES:
        raise ProtocolError(413, "header-too-large", "request line too long")
    try:
        method, target, _version = line.decode("latin-1").strip().split(" ", 2)
    except ValueError:
        raise ProtocolError(400, "bad-request",
                            f"malformed request line {line!r}") from None

    headers: Dict[str, str] = {}
    total = len(line)
    while True:
        hline = await reader.readuntil(b"\r\n")
        total += len(hline)
        if total > MAX_HEADER_BYTES:
            raise ProtocolError(413, "header-too-large", "headers too large")
        if hline in (b"\r\n", b"\n"):
            break
        name, sep, value = hline.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(400, "bad-request",
                                f"malformed header line {hline!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise ProtocolError(400, "bad-request",
                                "non-integer Content-Length") from None
        if length < 0:
            raise ProtocolError(400, "bad-request", "negative Content-Length")
        if length > MAX_BODY_BYTES:
            raise ProtocolError(413, "body-too-large",
                                f"body of {length} bytes exceeds the "
                                f"{MAX_BODY_BYTES}-byte budget")
        body = await reader.readexactly(length)

    path, _, query = target.partition("?")
    return Request(method=method.upper(), path=path,
                   query=_parse_query(query), headers=headers, body=body)


def response_bytes(status: int, payload: Any = None,
                   body: Optional[bytes] = None,
                   content_type: str = "application/json") -> bytes:
    """One complete response with ``Content-Length`` and close semantics."""
    if body is None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode() \
            if payload is not None else b""
    head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n")
    return head.encode("latin-1") + body


def stream_head(status: int = 200) -> bytes:
    """Response head for an unbounded JSON-lines stream (no length;
    the end of the stream is the end of the connection)."""
    return (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/x-ndjson\r\n"
            f"Cache-Control: no-store\r\n"
            f"Connection: close\r\n\r\n").encode("latin-1")


def json_line(record: Dict[str, Any]) -> bytes:
    return (json.dumps(record, sort_keys=True) + "\n").encode()


def split_path(path: str) -> Tuple[str, ...]:
    """``/jobs/j0001/stream`` -> ``("jobs", "j0001", "stream")``."""
    return tuple(seg for seg in path.split("/") if seg)
