"""Keep-alive transport: response latency and request framing.

One ``http.client`` connection carries many requests, as a polling
client's does.  The latency guard catches a response that waits on the
client's delayed ACK (Nagle on the server socket costs ~40 ms per
response, so 25 round trips would take about a second); the framing
tests check that a POST answered before its body is read closes the
connection instead of parsing the body as the next request.
"""

import http.client
import json
import socket
import time

import pytest

from repro.service.app import MAX_BODY_BYTES

CELL = {"workload": "HIST", "policy": "all-near", "threads": 8,
        "scale": 0.5, "seed": 0}

#: Wall-clock budget for the whole keep-alive sequence below.
KEEPALIVE_BUDGET_S = 0.5


def _json(conn, method, path, payload=None):
    body = None if payload is None else json.dumps(payload).encode()
    conn.request(method, path, body=body,
                 headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read())


def test_keepalive_round_trips_do_not_stall(service):
    server, _client = service
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        status, _ = _json(conn, "GET", "/v1/healthz")  # connect, warm up
        assert status == 200
        sock = conn.sock
        t0 = time.perf_counter()
        for _ in range(25):
            status, body = _json(conn, "GET", "/v1/healthz")
            assert (status, body["status"]) == (200, "ok")
        status, posted = _json(conn, "POST", "/v1/batch", {"cells": [CELL]})
        assert status == 202, posted
        status, job = _json(conn, "GET",
                            f"/v1/batch/{posted['job']}?wait=5")
        elapsed = time.perf_counter() - t0
        assert status == 200 and job["done"], job
        assert conn.sock is sock, "every request reused one connection"
    finally:
        conn.close()
    assert elapsed < KEEPALIVE_BUDGET_S, \
        f"27 keep-alive round trips took {elapsed:.3f} s"


def _read_until_closed(sock):
    chunks = []
    while True:
        chunk = sock.recv(65536)  # raises socket.timeout if left open
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


@pytest.mark.parametrize("length", ["abc", "-5", str(MAX_BODY_BYTES + 1)])
def test_rejected_body_closes_the_connection(service, length):
    """The unread body must not be parsed as a pipelined request."""
    server, _client = service
    body = json.dumps({"cells": [CELL]}).encode()
    request = (f"POST /v1/batch HTTP/1.1\r\nHost: 127.0.0.1\r\n"
               f"Content-Type: application/json\r\n"
               f"Content-Length: {length}\r\n\r\n").encode() + body
    pipelined = b"GET /v1/healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=10) as sock:
        sock.sendall(request + pipelined)
        data = _read_until_closed(sock)
    head, _, rest = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    assert lines[0].startswith("HTTP/1.1 400 "), lines[0]
    headers = {k.lower(): v.strip() for k, v in
               (line.split(":", 1) for line in lines[1:])}
    assert headers["content-type"] == "application/json"
    assert headers["connection"] == "close"
    length_sent = int(headers["content-length"])
    assert len(rest) == length_sent, \
        "exactly one response: nothing follows the 400's body"
    assert "error" in json.loads(rest)
