"""Stdlib asyncio HTTP/1.1 host for the ASGI application.

The container ships no ASGI server (uvicorn/hypercorn), so this
module provides a minimal one on ``asyncio.start_server``: enough of
HTTP/1.1 for a JSON API — request line, headers, ``Content-Length``
bodies, keep-alive with an idle timeout — and the ASGI 3 connection
scope/``receive``/``send`` contract (including the lifespan
protocol).  Chunked request bodies are answered with 501, bodies
above the size limit with 413 (unread) and a malformed
``Content-Length`` with 400; responses are never chunked because the
app always sets ``Content-Length``.

Three entry points:

* :class:`AsgiHttpServer` — the async server object (tests drive it
  directly inside an event loop);
* :func:`run` — blocking convenience for ``repro serve``;
* :class:`ServerThread` — a context manager running the server on a
  background thread with a real TCP port, for integration tests and
  the load benchmark.
"""

from __future__ import annotations

import asyncio
import threading

#: Hard limits keeping a misbehaving client from hogging the loop.
MAX_HEADER_LINE = 16 * 1024
MAX_HEADERS = 100
KEEPALIVE_TIMEOUT_S = 10.0
#: Longest a refused connection keeps discarding the client's input.
LINGER_S = 2.0


class _BadRequest(Exception):
    """Malformed HTTP — the connection is answered 400 and closed."""


class AsgiHttpServer:
    """Serve one ASGI 3 application over HTTP/1.1.

    A request announcing a ``Content-Length`` above the app's
    ``config.request_max_bytes`` is answered 413 before any of its
    body is read.
    """

    def __init__(self, app, host="127.0.0.1", port=0, *,
                 keepalive_timeout_s=KEEPALIVE_TIMEOUT_S):
        self.app = app
        self.host = host
        self.port = port          # 0 = ephemeral; real port set by start()
        self.keepalive_timeout_s = keepalive_timeout_s
        self._server = None
        self._lifespan_task = None
        self._lifespan_queue = None
        self._lifespan_done = None
        self._connections = set()

    async def start(self):
        """Run lifespan startup and bind the listening socket."""
        await self._lifespan_event("startup")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self):
        """Close the socket, drain connections, run lifespan shutdown."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*list(self._connections),
                                 return_exceptions=True)
        if self._lifespan_task is not None:
            await self._lifespan_event("shutdown")
            await self._lifespan_task
            self._lifespan_task = None

    async def serve_forever(self):
        await self._server.serve_forever()

    async def _lifespan_event(self, event):
        """Feed one event to the (single, long-lived) lifespan task.

        The app call lives from startup to shutdown, per the ASGI
        lifespan protocol; events arrive through a queue and
        completions are awaited before the server proceeds.
        """
        if self._lifespan_task is None:
            self._lifespan_queue = asyncio.Queue()
            self._lifespan_done = asyncio.Event()

            async def send(message):
                if message["type"].endswith(".complete"):
                    self._lifespan_done.set()
                return None

            async def run_app():
                try:
                    await self.app(
                        {"type": "lifespan", "asgi": {"version": "3.0"}},
                        self._lifespan_queue.get, send,
                    )
                finally:
                    self._lifespan_done.set()

            self._lifespan_task = asyncio.ensure_future(run_app())
        self._lifespan_done.clear()
        await self._lifespan_queue.put({"type": "lifespan.{}".format(event)})
        await self._lifespan_done.wait()
        if self._lifespan_task.done():
            self._lifespan_task.result()  # surface a lifespan crash

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader, writer):
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        self._read_request(reader),
                        timeout=self.keepalive_timeout_s,
                    )
                except asyncio.TimeoutError:
                    break  # idle keep-alive connection
                if request is None:
                    break  # clean EOF between requests
                keep_alive = await self._dispatch(request, writer)
                await writer.drain()
                if request["reject"]:
                    await self._lingering_close(reader, writer)
                    break
                if not keep_alive:
                    break
        except (_BadRequest, asyncio.IncompleteReadError, ValueError):
            self._write_error(writer, 400, "bad request")
            await self._lingering_close(reader, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            pass  # server shutting down; close the socket and exit cleanly
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    async def _lingering_close(reader, writer):
        """Half-close a refused connection, dropping the client's input.

        Closing a socket with unread input makes the kernel send a
        reset, which can destroy the refusal before the client reads
        it — and a client usually sends its body right after the
        headers.  So the write side is shut first and incoming bytes
        are discarded until the client closes or :data:`LINGER_S`
        passes.
        """

        async def discard():
            while await reader.read(64 * 1024):
                pass

        try:
            writer.write_eof()
            await asyncio.wait_for(discard(), LINGER_S)
        except (asyncio.TimeoutError, ConnectionError):
            pass

    async def _read_request(self, reader):
        line = await reader.readline()
        if not line:
            return None
        if len(line) > MAX_HEADER_LINE:
            raise _BadRequest("request line too long")
        parts = line.decode("latin-1").rstrip("\r\n").split(" ")
        if len(parts) != 3:
            raise _BadRequest("malformed request line")
        method, target, version = parts
        if not version.startswith("HTTP/1."):
            raise _BadRequest("unsupported HTTP version")
        headers = []
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            if len(raw) > MAX_HEADER_LINE or len(headers) >= MAX_HEADERS:
                raise _BadRequest("headers too large")
            name, _, value = raw.decode("latin-1").partition(":")
            headers.append((name.strip().lower(), value.strip()))
        header_map = dict(headers)
        request = {"method": method, "target": target, "headers": headers,
                   "body": b"", "version": version, "reject": None}
        if header_map.get("transfer-encoding", "").lower() == "chunked":
            request["reject"] = (501, "chunked bodies not supported")
            return request
        raw_length = header_map.get("content-length", "") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise _BadRequest("invalid content-length")
        length = int(raw_length)
        if length > self.app.config.request_max_bytes:
            # Refused unread: the connection closes after the answer.
            request["reject"] = (413, "request body too large")
        elif length:
            request["body"] = await reader.readexactly(length)
        return request

    async def _dispatch(self, request, writer):
        if request["reject"]:
            self._write_error(writer, *request["reject"])
            return False
        path, _, query = request["target"].partition("?")
        scope = {
            "type": "http",
            "asgi": {"version": "3.0", "spec_version": "2.3"},
            "http_version": request["version"].split("/", 1)[1],
            "method": request["method"].upper(),
            "scheme": "http",
            "path": path,
            "raw_path": request["target"].encode("latin-1"),
            "query_string": query.encode("latin-1"),
            "root_path": "",
            "headers": [
                (name.encode("latin-1"), value.encode("latin-1"))
                for name, value in request["headers"]
            ],
            "client": writer.get_extra_info("peername"),
            "server": (self.host, self.port),
        }
        header_map = dict(request["headers"])
        keep_alive = header_map.get("connection", "").lower() != "close"
        if request["version"] == "HTTP/1.0":
            keep_alive = header_map.get("connection", "").lower() == "keep-alive"

        body_messages = [
            {"type": "http.request", "body": request["body"], "more_body": False}
        ]

        async def receive():
            if body_messages:
                return body_messages.pop(0)
            return {"type": "http.disconnect"}

        state = {"started": False}

        async def send(message):
            if message["type"] == "http.response.start":
                status = message["status"]
                lines = ["HTTP/1.1 {} {}".format(status, _reason(status))]
                for name, value in message.get("headers", []):
                    lines.append("{}: {}".format(
                        name.decode("latin-1"), value.decode("latin-1")
                    ))
                lines.append("connection: {}".format(
                    "keep-alive" if keep_alive else "close"
                ))
                writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
                state["started"] = True
            elif message["type"] == "http.response.body":
                writer.write(message.get("body", b""))

        try:
            await self.app(scope, receive, send)
        except Exception:  # noqa: BLE001 — app crashed mid-connection
            if not state["started"]:
                self._write_error(writer, 500, "internal server error")
            return False
        if not state["started"]:
            self._write_error(writer, 500, "app sent no response")
            return False
        return keep_alive

    @staticmethod
    def _write_error(writer, status, message):
        if writer.is_closing():
            return
        body = ('{"error": "%s"}' % message).encode("ascii")
        head = (
            "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\n"
            "content-length: {}\r\nconnection: close\r\n\r\n"
        ).format(status, _reason(status), len(body))
        writer.write(head.encode("latin-1") + body)


_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    422: "Unprocessable Entity", 500: "Internal Server Error",
    501: "Not Implemented", 503: "Service Unavailable",
}


def _reason(status):
    return _REASONS.get(status, "Status")


def run(app, host="127.0.0.1", port=8080):
    """Blocking server loop for ``repro serve`` (returns on Ctrl-C)."""

    async def main():
        server = AsgiHttpServer(app, host, port)
        await server.start()
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass


class ServerThread:
    """Run an :class:`AsgiHttpServer` on a background thread.

    ``with ServerThread(app) as srv:`` binds an ephemeral port
    (``srv.port``) and tears the loop down on exit; integration tests
    and the serve benchmark talk to it over real TCP.
    """

    def __init__(self, app, host="127.0.0.1", port=0):
        self._server = AsgiHttpServer(app, host, port)
        self._loop = None
        self._thread = None
        self._ready = threading.Event()
        self._startup_error = None
        self._stop_event = None

    @property
    def host(self):
        return self._server.host

    @property
    def port(self):
        return self._server.port

    def start(self):
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve")
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self):
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)

        async def main():
            self._stop_event = asyncio.Event()
            try:
                await self._server.start()
            except Exception as error:  # noqa: BLE001 — surfaced to start()
                self._startup_error = error
                return
            finally:
                self._ready.set()
            try:
                await self._stop_event.wait()
            finally:
                await self._server.stop()

        try:
            self._loop.run_until_complete(main())
        finally:
            self._loop.close()

    def stop(self):
        if self._loop is None or not self._thread.is_alive():
            return
        self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=30.0)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()
        return False
