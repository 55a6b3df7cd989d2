"""HTTP plumbing units + the typed-error matrix over a live server."""

import asyncio
import json
import socket

import pytest

from repro.serve.http import (MAX_BODY_BYTES, ProtocolError, read_request,
                              response_bytes, split_path, stream_head)
from repro.serve.client import ServeClient, ServeError
from repro.serve.scheduler import AdmissionPolicy

from .conftest import ServeHarness


def parse(raw: bytes):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(go())


# ----------------------------------------------------------------------
# Parser units
# ----------------------------------------------------------------------
def test_parse_request_with_body_and_query():
    body = b'{"app": "water"}'
    raw = (b"POST /jobs?tail=5&flag HTTP/1.1\r\n"
           b"Host: x\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body))
    request = parse(raw)
    assert request.method == "POST"
    assert request.path == "/jobs"
    assert request.query == {"tail": "5", "flag": ""}
    assert request.headers["host"] == "x"
    assert request.json() == {"app": "water"}


@pytest.mark.parametrize("raw,status,code", [
    (b"NONSENSE\r\n\r\n", 400, "bad-request"),
    (b"GET /x HTTP/1.1\r\nNoColonHere\r\n\r\n", 400, "bad-request"),
    (b"GET /x HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 400, "bad-request"),
    (b"GET /x HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400, "bad-request"),
    (b"GET /x HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
     % (MAX_BODY_BYTES + 1), 413, "body-too-large"),
    (b"GET /" + b"x" * 20_000 + b" HTTP/1.1\r\n\r\n", 413,
     "header-too-large"),
    (b"GET /x HTTP/1.1\r\nLong: " + b"y" * 20_000 + b"\r\n\r\n", 413,
     "header-too-large"),
])
def test_malformed_requests_raise_typed_protocol_errors(raw, status, code):
    with pytest.raises(ProtocolError) as err:
        parse(raw)
    assert err.value.status == status
    assert err.value.code == code


def test_invalid_json_body_is_typed():
    raw = b"POST /jobs HTTP/1.1\r\nContent-Length: 3\r\n\r\n{{{"
    with pytest.raises(ProtocolError) as err:
        parse(raw).json()
    assert err.value.status == 400
    assert err.value.code == "invalid-json"


def test_response_bytes_shape():
    raw = response_bytes(202, {"ok": True})
    head, _, body = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 202 Accepted\r\n")
    assert b"Connection: close" in head
    assert f"Content-Length: {len(body)}".encode() in head
    assert json.loads(body) == {"ok": True}
    assert stream_head().startswith(b"HTTP/1.1 200 OK\r\n")
    assert b"application/x-ndjson" in stream_head()
    assert split_path("/jobs/j1/stream") == ("jobs", "j1", "stream")


# ----------------------------------------------------------------------
# Typed-error matrix over a live server
# ----------------------------------------------------------------------
def raw_roundtrip(address: str, raw: bytes) -> bytes:
    host, port = address.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=30) as sock:
        sock.sendall(raw)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def expect_error(call, status, code):
    with pytest.raises(ServeError) as err:
        call()
    assert err.value.status == status
    assert err.value.code == code


def test_error_matrix(harness):
    client = harness.client
    expect_error(lambda: client.submit("not an object"), 400, "invalid-job")
    expect_error(lambda: client.submit({"app": "water", "nope": 1}),
                 400, "invalid-job")
    expect_error(lambda: client.status("j9999-cafecafe"), 404, "unknown-job")
    expect_error(lambda: client.cancel("j9999-cafecafe"), 404, "unknown-job")
    expect_error(lambda: list(client.stream("j9999-cafecafe")),
                 404, "unknown-job")
    expect_error(lambda: client._request("GET", "/bogus"), 404, "not-found")
    expect_error(lambda: client._request("DELETE", "/jobs"),
                 405, "method-not-allowed")
    expect_error(lambda: client._request("GET", "/jobs/x/cancel"),
                 405, "method-not-allowed")
    expect_error(lambda: client._request("POST", "/healthz"),
                 405, "method-not-allowed")


def test_raw_protocol_errors_over_the_wire(harness):
    response = raw_roundtrip(harness.address, b"BAD\r\n\r\n")
    assert response.startswith(b"HTTP/1.1 400 ")

    response = raw_roundtrip(
        harness.address,
        b"POST /jobs HTTP/1.1\r\nContent-Length: 7\r\n\r\nnotjson")
    assert response.startswith(b"HTTP/1.1 400 ")
    assert b"invalid-json" in response

    body = b'{"app": "water", "latencies": [0.5, Infinity]}'
    response = raw_roundtrip(
        harness.address,
        b"POST /jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
        % (len(body), body))
    assert response.startswith(b"HTTP/1.1 400 ")
    assert b"invalid-job" in response

    response = raw_roundtrip(
        harness.address,
        b"POST /jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
        % (MAX_BODY_BYTES + 1))
    assert response.startswith(b"HTTP/1.1 413 ")
    assert b"body-too-large" in response


def test_admission_refusals_are_429(tmp_path):
    harness = ServeHarness(tmp_path / "cache",
                           policy=AdmissionPolicy(max_jobs=0))
    try:
        expect_error(lambda: harness.client.submit({"app": "water"}),
                     429, "admission")
    finally:
        harness.close()


def test_healthz_and_metrics_endpoints(harness):
    health = harness.client.healthz()
    assert health["ok"] is True
    assert harness.address in health["addresses"]
    # Submitting garbage bumps the rejected counter in the snapshot.
    expect_error(lambda: harness.client.submit({}), 400, "invalid-job")
    snapshot = harness.client.metrics()
    assert snapshot["serve.jobs.rejected"] >= 1


def test_forgotten_job_answers_404_on_status_and_stream(tmp_path,
                                                        monkeypatch):
    from repro.serve import scheduler as scheduler_module
    monkeypatch.setattr(scheduler_module, "RETAINED_TERMINAL_JOBS", 1)
    # max_concurrent_jobs=0: jobs stay queued (no pool is ever spawned)
    # and reach a terminal state through cancel.
    harness = ServeHarness(tmp_path / "cache",
                           policy=AdmissionPolicy(max_concurrent_jobs=0))
    try:
        client = harness.client
        old = client.submit({"app": "water"})
        new = client.submit({"app": "water", "seed": 1})
        assert client.cancel(old["id"])["state"] == "cancelled"
        assert [r["kind"] for r in client.stream(old["id"])] == ["job", "end"]
        assert client.cancel(new["id"])["state"] == "cancelled"
        # one terminal job is kept: the older one is gone from every route
        expect_error(lambda: client.status(old["id"]), 404, "unknown-job")
        expect_error(lambda: list(client.stream(old["id"])),
                     404, "unknown-job")
        expect_error(lambda: client.cancel(old["id"]), 404, "unknown-job")
        assert [job["id"] for job in client.jobs()] == [new["id"]]
        assert [r["kind"] for r in client.stream(new["id"])] == ["job", "end"]
        assert client.metrics()["serve.cache.corrupt"] == 0
    finally:
        harness.close()
