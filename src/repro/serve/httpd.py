"""Stdlib ``asyncio`` HTTP/1.1 host (and client) for the ASGI gateway.

The gateway is a plain ASGI application; this module is the
zero-dependency way to put it on a socket — tests, benchmarks and the
demo need no third-party HTTP stack.  Three pieces:

* :class:`AsgiHttpServer` — a keep-alive HTTP/1.1 server on
  ``asyncio.start_server``.  Request bodies are streamed to the app in
  bounded chunks (the gateway enforces its own byte cap), responses go
  out with ``Content-Length`` when the app provides one and chunked
  transfer-encoding otherwise, and a connection serves any number of
  back-to-back requests until either side closes.
* :class:`HttpClient` — a minimal keep-alive client for one persistent
  connection: exactly what the concurrency stress test and
  ``bench_gateway`` need to drive thousands of sockets cheaply.
* :func:`asgi_request` — in-process dispatch straight into an ASGI app
  (no sockets), the fast path the conformance suite runs on.

Deliberately *not* a general web server: no TLS, no HTTP/2, no
trailers, no request chunked-encoding — the subset the wire contract
uses, implemented strictly (malformed framing answers 400 and closes).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

__all__ = ["HttpResponse", "AsgiHttpServer", "HttpClient", "asgi_request"]

#: Socket read granularity for request bodies.
_READ_CHUNK = 64 * 1024
#: Bound on a request line / header line (over answers 400).
_MAX_LINE = 16 * 1024
#: Bound on the number of request headers.
_MAX_HEADERS = 100


@dataclass
class HttpResponse:
    """One parsed HTTP response (client side and in-process dispatch)."""

    status: int
    headers: dict[str, str]
    #: Kept out of the repr: asyncio reprs a task's result, and a
    #: multi-megabyte body would make every such repr cost milliseconds.
    body: bytes = field(repr=False)

    def header(self, name: str, default: str | None = None) -> str | None:
        """A header value by case-insensitive name."""
        return self.headers.get(name.lower(), default)


class _BadRequest(Exception):
    """Unparseable HTTP framing; the connection answers 400 and closes."""


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    line = await reader.readline()
    if len(line) > _MAX_LINE:
        raise _BadRequest("header line too long")
    return line


async def _read_headers(reader: asyncio.StreamReader) -> dict[str, str]:
    headers: dict[str, str] = {}
    while True:
        line = await _read_line(reader)
        if line in (b"\r\n", b"\n", b""):
            return headers
        if len(headers) >= _MAX_HEADERS:
            raise _BadRequest("too many headers")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise _BadRequest(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()


class AsgiHttpServer:
    """Host an ASGI app over HTTP/1.1 with keep-alive connections.

    Usage::

        server = AsgiHttpServer(gateway)
        await server.start()          # binds 127.0.0.1 on an OS port
        ... requests against server.port ...
        await server.aclose()

    Also an async context manager.  Each connection is one asyncio task;
    requests on it are served strictly in order (no pipelining overlap),
    and an app-level exception answers 500 and closes the connection —
    the gateway itself never lets exceptions escape, so that path is
    only for foreign apps.
    """

    def __init__(self, app, host: str = "127.0.0.1", port: int = 0):
        self.app = app
        self.host = host
        self._requested_port = port
        self._server: asyncio.AbstractServer | None = None

    @property
    def port(self) -> int:
        """The bound TCP port (valid after :meth:`start`)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "AsgiHttpServer":
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self._requested_port
        )
        return self

    async def aclose(self) -> None:
        """Stop accepting and close listening sockets (idempotent)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "AsgiHttpServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                keep_alive = await self._serve_one(reader, writer)
                if not keep_alive:
                    break
        except (
            _BadRequest,
            ConnectionError,
            asyncio.IncompleteReadError,
        ):
            pass
        finally:
            # Close without awaiting: the transport tears down in the
            # background, and awaiting here races loop shutdown.
            writer.close()

    async def _serve_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Serve one request; returns True to keep the connection open."""
        request_line = await _read_line(reader)
        if not request_line:
            return False  # clean EOF between requests
        try:
            method, target, version = (
                request_line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            await self._write_simple(writer, 400, b"malformed request line")
            return False
        if version not in ("HTTP/1.1", "HTTP/1.0"):
            await self._write_simple(writer, 400, b"unsupported HTTP version")
            return False
        headers = await _read_headers(reader)
        if "chunked" in headers.get("transfer-encoding", "").lower():
            await self._write_simple(
                writer, 400, b"chunked request bodies not supported"
            )
            return False
        try:
            remaining = int(headers.get("content-length", "0"))
            if remaining < 0:
                raise ValueError
        except ValueError:
            await self._write_simple(writer, 400, b"bad content-length")
            return False

        path, _, query = target.partition("?")
        scope = {
            "type": "http",
            "asgi": {"version": "3.0", "spec_version": "2.3"},
            "http_version": version.split("/")[1],
            "method": method.upper(),
            "path": path,
            "raw_path": target.encode("latin-1"),
            "query_string": query.encode("latin-1"),
            "headers": [
                (k.encode("latin-1"), v.encode("latin-1"))
                for k, v in headers.items()
            ],
            "client": writer.get_extra_info("peername"),
            "server": writer.get_extra_info("sockname"),
        }

        body_state = {"remaining": remaining, "sent_final": False}

        async def receive():
            if body_state["sent_final"]:
                # The app over-reads; report a disconnect-shaped message
                # rather than blocking forever.
                return {"type": "http.disconnect"}
            if body_state["remaining"] <= 0:
                body_state["sent_final"] = True
                return {"type": "http.request", "body": b"", "more_body": False}
            n = min(body_state["remaining"], _READ_CHUNK)
            chunk = await reader.readexactly(n)
            body_state["remaining"] -= len(chunk)
            more = body_state["remaining"] > 0
            if not more:
                body_state["sent_final"] = True
            return {"type": "http.request", "body": chunk, "more_body": more}

        want_close = (
            headers.get("connection", "").lower() == "close"
            or version == "HTTP/1.0"
        )
        sender = _ResponseWriter(writer, close_after=want_close)
        try:
            await self.app(scope, receive, sender.send)
        except Exception:  # noqa: BLE001 - foreign app escape hatch
            if not sender.started:
                await self._write_simple(writer, 500, b"application error")
            return False
        await sender.finish()
        # Drain any request body the app did not consume, so the next
        # keep-alive request starts on a clean framing boundary.
        while body_state["remaining"] > 0:
            n = min(body_state["remaining"], _READ_CHUNK)
            await reader.readexactly(n)
            body_state["remaining"] -= n
        return not want_close

    async def _write_simple(
        self, writer: asyncio.StreamWriter, status: int, body: bytes
    ) -> None:
        writer.write(
            f"HTTP/1.1 {status} X\r\ncontent-length: {len(body)}\r\n"
            f"connection: close\r\n\r\n".encode("latin-1") + body
        )
        await writer.drain()


class _ResponseWriter:
    """Bridges ASGI send messages onto one HTTP/1.1 response."""

    def __init__(self, writer: asyncio.StreamWriter, close_after: bool):
        self.writer = writer
        self.close_after = close_after
        self.started = False
        self.chunked = False
        self.finished = False

    async def send(self, message: dict) -> None:
        """The ASGI ``send`` callable for one response cycle."""
        if message["type"] == "http.response.start":
            headers = list(message.get("headers", []))
            names = {k.lower() for k, _ in headers}
            self.chunked = b"content-length" not in names
            if self.chunked:
                headers.append((b"transfer-encoding", b"chunked"))
            if self.close_after:
                headers.append((b"connection", b"close"))
            head = [f"HTTP/1.1 {message['status']} X".encode("latin-1")]
            head += [k + b": " + v for k, v in headers]
            self.writer.write(b"\r\n".join(head) + b"\r\n\r\n")
            self.started = True
            return
        if message["type"] == "http.response.body":
            body = message.get("body", b"")
            if self.chunked:
                if body:
                    self.writer.write(
                        f"{len(body):x}\r\n".encode("ascii") + body + b"\r\n"
                    )
                if not message.get("more_body", False):
                    self.writer.write(b"0\r\n\r\n")
                    self.finished = True
            else:
                self.writer.write(body)
                if not message.get("more_body", False):
                    self.finished = True
            await self.writer.drain()
            return
        raise RuntimeError(f"unsupported ASGI message: {message['type']!r}")

    async def finish(self) -> None:
        """Flush after the app returns (tolerates body-less responses)."""
        if self.started and not self.finished and self.chunked:
            self.writer.write(b"0\r\n\r\n")
        await self.writer.drain()


class HttpClient:
    """One persistent keep-alive HTTP/1.1 connection (test/bench client).

    Requests are strictly sequential per client; open many clients for
    concurrency (each is one socket, which is the point of the
    keep-alive stress paths).  Also an async context manager.
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> "HttpClient":
        """Open the connection (idempotent)."""
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
        return self

    async def aclose(self) -> None:
        """Close the connection (idempotent)."""
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass
            self._reader = self._writer = None

    async def __aenter__(self) -> "HttpClient":
        return await self.connect()

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    async def request(
        self,
        method: str,
        path: str,
        headers: dict[str, str] | None = None,
        body: bytes = b"",
    ) -> HttpResponse:
        """One request/response cycle on the persistent connection."""
        await self.connect()
        assert self._reader is not None and self._writer is not None
        lines = [f"{method} {path} HTTP/1.1", f"host: {self.host}:{self.port}"]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        lines.append(f"content-length: {len(body)}")
        self._writer.write(
            "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + body
        )
        await self._writer.drain()
        return await _read_response(self._reader)


async def _read_response(reader: asyncio.StreamReader) -> HttpResponse:
    status_line = await _read_line(reader)
    if not status_line:
        raise ConnectionError("connection closed before response")
    parts = status_line.decode("latin-1").strip().split(" ", 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise _BadRequest(f"malformed status line: {status_line!r}")
    status = int(parts[1])
    headers = await _read_headers(reader)
    if "chunked" in headers.get("transfer-encoding", "").lower():
        chunks = []
        while True:
            size_line = await _read_line(reader)
            size = int(size_line.strip(), 16)
            if size == 0:
                await _read_line(reader)  # trailing CRLF
                break
            chunks.append(await reader.readexactly(size))
            await reader.readexactly(2)  # chunk CRLF
        body = b"".join(chunks)
    else:
        length = int(headers.get("content-length", "0"))
        body = await reader.readexactly(length) if length else b""
    return HttpResponse(status=status, headers=headers, body=body)


async def asgi_request(
    app,
    method: str,
    path: str,
    headers: dict[str, str] | None = None,
    body: bytes = b"",
) -> HttpResponse:
    """Dispatch one request straight into an ASGI app (no sockets).

    The conformance suite's fast path: the same scope shape
    :class:`AsgiHttpServer` builds, with the response collected from the
    send channel into an :class:`HttpResponse`.
    """
    scope = {
        "type": "http",
        "asgi": {"version": "3.0", "spec_version": "2.3"},
        "http_version": "1.1",
        "method": method.upper(),
        "path": path,
        "raw_path": path.encode("latin-1"),
        "query_string": b"",
        "headers": [
            (k.lower().encode("latin-1"), v.encode("latin-1"))
            for k, v in (headers or {}).items()
        ],
        "client": ("127.0.0.1", 0),
        "server": ("127.0.0.1", 0),
    }
    sent = {"done": False}

    async def receive():
        if sent["done"]:
            return {"type": "http.disconnect"}
        sent["done"] = True
        return {"type": "http.request", "body": body, "more_body": False}

    status: list[int] = []
    resp_headers: dict[str, str] = {}
    chunks: list[bytes] = []

    async def send(message: dict) -> None:
        if message["type"] == "http.response.start":
            status.append(message["status"])
            for k, v in message.get("headers", []):
                resp_headers[k.decode("latin-1").lower()] = v.decode("latin-1")
        elif message["type"] == "http.response.body":
            chunks.append(message.get("body", b""))

    await app(scope, receive, send)
    assert status, "app sent no response"
    return HttpResponse(
        status=status[0], headers=resp_headers, body=b"".join(chunks)
    )
