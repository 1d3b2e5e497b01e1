"""HTTP server and client over the simulated TCP stack."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..packets import HTTPRequest, HTTPResponse
from .node import Host
from .stack import TCPConnection

__all__ = ["WebServer", "HTTPResult", "http_get"]

HTTP_PORT = 80


class WebServer:
    """A small HTTP/1.1 server: path -> body, with per-vhost support.

    The default page body is configurable so tests can serve content that a
    keyword censor matches on the *response* direction as well as on the
    request direction.
    """

    def __init__(
        self,
        host: Host,
        port: int = HTTP_PORT,
        pages: Optional[Dict[str, str]] = None,
        default_body: str = "<html><body>hello world</body></html>",
        reply_ttl: Optional[int] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.pages = dict(pages or {})
        self.default_body = default_body
        self.requests_served = 0
        self.request_log: list[HTTPRequest] = []
        assert host.stack is not None
        host.stack.tcp_listen(port, self._accept, reply_ttl=reply_ttl)

    def add_page(self, path: str, body: str) -> None:
        self.pages[path] = body

    def _accept(self, conn: TCPConnection) -> None:
        buffer = bytearray()

        def handler(event: str, data: bytes) -> None:
            if event == "data":
                buffer.extend(data)
                if b"\r\n\r\n" in buffer:
                    self._respond(conn, bytes(buffer))
                    buffer.clear()
            elif event == "fin":
                conn.close()

        conn.handler = handler

    def _respond(self, conn: TCPConnection, raw: bytes) -> None:
        try:
            request = HTTPRequest.from_bytes(raw)
        except ValueError:
            conn.send(HTTPResponse(status=400, reason="Bad Request").to_bytes())
            conn.close()
            return
        self.requests_served += 1
        self.request_log.append(request)
        body = self.pages.get(request.path, self.default_body)
        response = HTTPResponse(
            status=200,
            reason="OK",
            headers={"Content-Type": "text/html", "Server": "repro/1.0"},
            body=body.encode(),
        )
        conn.send(response.to_bytes())
        conn.close()


@dataclass
class HTTPResult:
    """Outcome of one client HTTP transaction."""

    status: str  # "ok" | "reset" | "timeout" | "closed" | "error"
    response: Optional[HTTPResponse] = None
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def http_get(
    client: Host,
    dst_ip: str,
    hostname: str,
    path: str = "/",
    callback: Optional[Callable[[HTTPResult], None]] = None,
    port: int = HTTP_PORT,
    headers: Optional[Dict[str, str]] = None,
    timeout: float = 3.0,
) -> None:
    """Fetch ``http://hostname{path}`` from ``dst_ip`` and report the outcome."""
    assert client.stack is not None
    sim = client.stack.sim
    started = sim.now
    buffer = bytearray()
    finished = {"done": False}

    def finish(result: HTTPResult) -> None:
        if finished["done"]:
            return
        finished["done"] = True
        result.elapsed = sim.now - started
        if callback is not None:
            callback(result)

    request = HTTPRequest(
        method="GET",
        path=path,
        host=hostname,
        headers={"User-Agent": "Mozilla/5.0", **(headers or {})},
    )

    def handler(event: str, data: bytes) -> None:
        if event == "connected":
            conn.send(request.to_bytes())
        elif event == "data":
            buffer.extend(data)
        elif event in ("fin", "closed"):
            if buffer:
                try:
                    response = HTTPResponse.from_bytes(bytes(buffer))
                except ValueError:
                    finish(HTTPResult(status="error"))
                    return
                finish(HTTPResult(status="ok", response=response))
            else:
                finish(HTTPResult(status="closed"))
            if event == "fin":
                conn.close()
        elif event == "reset":
            finish(HTTPResult(status="reset"))
        elif event in ("timeout", "icmp_error"):
            finish(HTTPResult(status="timeout"))

    conn = client.stack.tcp_connect(dst_ip, port, handler, timeout=timeout)

    # Overall transaction deadline (connection may establish but data be
    # dropped mid-flow by a censoring middlebox).
    def deadline() -> None:
        if not finished["done"]:
            conn.abort()
            finish(HTTPResult(status="timeout"))

    sim.at(timeout * 2, deadline)
