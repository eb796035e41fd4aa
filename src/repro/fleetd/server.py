"""The fleetd socket server: the daemon half of ``repro fleetd``.

The engine (:mod:`repro.fleetd.engine`) is pure simulation; this module
is the thin real-world shell around it — a tick thread that advances
the engine at a wall-clock cadence and an accept loop serving the
control protocol over a Unix domain socket. All engine access is
serialized through one lock, so a control command observes the fleet
between ticks, never mid-tick.

Wire protocol: one JSON object per connection, newline-terminated, one
JSON response back (``{"ok": true, ...}`` or ``{"ok": false, "error":
...}``). Requests carry ``{"cmd": ..., **params}`` and must match their
verb's row in :data:`repro.fleetd.verbs.VERBS` before they reach the
engine. JSON, not pickle: the socket is an operator surface and must
never execute its inputs.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import traceback
from typing import Any, Dict, Optional

from repro.fleetd.engine import FleetdEngine, FleetdError
from repro.fleetd.verbs import VERBS, NonFinite

#: Hard cap on one request line (a malformed client must not OOM the
#: daemon).
_MAX_REQUEST_BYTES = 1 << 20


class FleetdServer:
    """Serves one engine over a Unix socket until stopped."""

    def __init__(
        self,
        engine: FleetdEngine,
        socket_path: str,
        tick_interval_s: float = 0.05,
    ) -> None:
        self.engine = engine
        self.socket_path = socket_path
        self.tick_interval_s = tick_interval_s
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._listener: Optional[socket.socket] = None
        self._threads: list = []
        self._tick_thread: Optional[threading.Thread] = None
        #: Why the tick loop stopped, once ``engine.tick`` has raised.
        self._tick_error: Optional[Dict[str, str]] = None

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Bind the socket and start the tick + accept threads."""
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(self.socket_path)
        self._listener.listen(8)
        self._listener.settimeout(0.2)
        for target in (self._tick_loop, self._accept_loop):
            thread = threading.Thread(target=target, daemon=True)
            thread.start()
            self._threads.append(thread)
        self._tick_thread = self._threads[0]

    def stop(self) -> None:
        """Stop both loops and remove the socket."""
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads.clear()
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass

    def serve_forever(self) -> None:
        """Run until a ``stop`` command (or :meth:`stop`) arrives."""
        self.start()
        try:
            while not self._stop.wait(0.2):
                pass
        finally:
            self.stop()

    def request_stop(self) -> bool:
        """Ask both loops to stop; returns True (the ``stop`` verb)."""
        self._stop.set()
        return True

    @property
    def stopped(self) -> bool:
        return self._stop.is_set()

    # ------------------------------------------------------------------

    def _tick_loop(self) -> None:
        while not self._stop.is_set():
            try:
                with self._lock:
                    self.engine.tick()
            except Exception as exc:
                # Stop ticking a fleet in an unknown state, but say so:
                # ping and status report the failure (the exception and
                # the function that raised it) instead of a silently
                # frozen tick counter. The traceback, which names the
                # daemon's source files, goes to its stderr only.
                traceback.print_exc()
                self._tick_error = {
                    "error": repr(exc),
                    "function": traceback.extract_tb(
                        exc.__traceback__
                    )[-1].name,
                }
                return
            # Paced on the stop event, so stop() never waits out a
            # whole interval.
            self._stop.wait(self.tick_interval_s)

    def tick_thread_status(self) -> Dict[str, Any]:
        """Whether the tick loop runs, and why it stopped if it has."""
        thread = self._tick_thread
        return {
            "alive": thread is not None and thread.is_alive(),
            "error": self._tick_error,
        }

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                self._serve_one(conn)
            finally:
                conn.close()

    def _serve_one(self, conn: socket.socket) -> None:
        conn.settimeout(5.0)
        chunks = []
        total = 0
        while not chunks or not chunks[-1].endswith(b"\n"):
            try:
                chunk = conn.recv(65536)
            except socket.timeout:
                return
            if not chunk:
                break
            total += len(chunk)
            if total > _MAX_REQUEST_BYTES:
                return
            chunks.append(chunk)
        raw = b"".join(chunks).strip()
        if not raw:
            return
        try:
            request = json.loads(raw.decode("utf-8"),
                                 parse_constant=NonFinite)
            response = self._dispatch(request)
        except (ValueError, KeyError, TypeError) as exc:
            response = {"ok": False, "error": str(exc)}
        except Exception as exc:
            # Any other failure is a bug in a handler or the engine; it
            # must not end the accept loop, or the kill switch becomes
            # unreachable. The traceback goes to the daemon's stderr.
            traceback.print_exc()
            response = {"ok": False, "error": f"request failed: {exc!r}"}
        try:
            # NaN-free wire discipline: the bare ``NaN`` token is
            # invalid JSON; a response carrying one is a server bug
            # surfaced as an error, not shipped for the client to choke
            # on.
            encoded = json.dumps(response, allow_nan=False)
        except ValueError as exc:
            encoded = json.dumps({
                "ok": False,
                "error": f"response carried a non-finite number: {exc}",
            })
        conn.sendall(encoded.encode("utf-8") + b"\n")

    # ------------------------------------------------------------------

    def _dispatch(self, request: Any) -> Dict[str, Any]:
        """Check ``request`` against its verb's row and serve it."""
        cmd = request.get("cmd") if isinstance(request, dict) else None
        verb = VERBS.get(cmd) if type(cmd) is str else None
        if verb is None:
            return {"ok": False, "error": f"unknown command {cmd!r:.40}; "
                    f"a request is an object whose cmd is in {sorted(VERBS)}"}
        try:
            params = verb.check(request)
            with self._lock:
                result = verb.handler(self, params)
        except (FleetdError, ValueError) as exc:
            return {"ok": False, "error": f"{verb.name}: {exc}"}
        if verb.result is None:
            return {"ok": True, **result}
        return {"ok": True, verb.result: result}
