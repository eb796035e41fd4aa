"""The fleetd socket server: the daemon half of ``repro fleetd``.

The engine (:mod:`repro.fleetd.engine`) is pure simulation; this module
is the thin real-world shell around it — a tick thread that advances
the engine at a wall-clock cadence and an accept loop serving the
control protocol over a Unix domain socket. All engine access is
serialized through one lock, so a control command observes the fleet
between ticks, never mid-tick.

Wire protocol: one JSON object per connection, newline-terminated, one
JSON response back (``{"ok": true, ...}`` or ``{"ok": false, "error":
...}``). Requests carry ``{"cmd": ..., **params}``; see ``_COMMANDS``
for the verbs. JSON, not pickle: the socket is an operator surface and
must never execute its inputs.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import traceback
from typing import Any, Dict, Optional

from repro.fleetd.engine import FleetdEngine, FleetdError
from repro.fleetd.policy import PolicyError, PolicySpec
from repro.fleetd.registry import RegistryError
from repro.fleetd.rollup import RollupError

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
                # ping and status report the failure instead of a
                # silently frozen tick counter.
                self._tick_error = {
                    "error": repr(exc),
                    "traceback": traceback.format_exc(limit=-3),
                }
                return
            # Paced on the stop event, so stop() never waits out a
            # whole interval.
            self._stop.wait(self.tick_interval_s)

    def _tick_thread_status(self) -> Dict[str, Any]:
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
            request = json.loads(raw.decode("utf-8"))
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

    def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        cmd = request.get("cmd")
        handler = _COMMANDS.get(cmd)
        if handler is None:
            return {
                "ok": False,
                "error": f"unknown command {cmd!r}; "
                         f"have {sorted(_COMMANDS)}",
            }
        try:
            with self._lock:
                return {"ok": True, **handler(self, request)}
        except (FleetdError, RegistryError, PolicyError,
                RollupError) as exc:
            return {"ok": False, "error": str(exc)}

    # -- command handlers (called with the engine lock held) -----------

    def _cmd_ping(self, request) -> Dict[str, Any]:
        return {
            "pong": True,
            "tick": self.engine.tick_index,
            "tick_thread": self._tick_thread_status(),
        }

    def _cmd_status(self, request) -> Dict[str, Any]:
        return {"status": {
            **self.engine.status(),
            "tick_thread": self._tick_thread_status(),
        }}

    def _cmd_register(self, request) -> Dict[str, Any]:
        spec = None
        if request.get("policy") is not None:
            spec = PolicySpec.from_json(request["policy"])
        entry = self.engine.register(
            request["host_id"],
            request["app"],
            spec=spec,
            size_scale=float(request.get("size_scale", 1.0)),
            include_tax=bool(request.get("include_tax", True)),
            region=str(request.get("region", "default")),
        )
        return {"host": entry.status()}

    def _cmd_deregister(self, request) -> Dict[str, Any]:
        self.engine.deregister(request["host_id"])
        return {"host_id": request["host_id"]}

    def _cmd_rollout(self, request) -> Dict[str, Any]:
        spec = PolicySpec.from_json(request["policy"])
        rollout_id = self.engine.begin_rollout(
            spec, host_ids=request.get("hosts")
        )
        return {"rollout_id": rollout_id}

    def _cmd_rollout_status(self, request) -> Dict[str, Any]:
        result = self.engine.rollout_result(int(request["rollout_id"]))
        if result is None:
            raise FleetdError(
                f"no rollout with id {request['rollout_id']}"
            )
        return {"result": result.to_json()}

    def _cmd_rollback(self, request) -> Dict[str, Any]:
        return {"rolled_back": self.engine.rollback_active()}

    def _cmd_kill_switch(self, request) -> Dict[str, Any]:
        return {"killed": self.engine.kill_switch()}

    def _cmd_reset_quarantine(self, request) -> Dict[str, Any]:
        return {
            "reset": self.engine.reset_quarantine(request["host_id"])
        }

    def _cmd_metrics(self, request) -> Dict[str, Any]:
        # Read-only: the rollups only touch non-registering
        # metric reads, so serving this verb never changes the fleet
        # digest a concurrent chaos/crash-equivalence check computes.
        window_s = float(request.get("window_s", 60.0))
        return {"rollup": self.engine.fleet_rollup(window_s).to_json()}

    def _cmd_top(self, request) -> Dict[str, Any]:
        return {"top": self.engine.top_hosts(
            request["signal"],
            n=int(request.get("n", 5)),
            window_s=float(request.get("window_s", 60.0)),
        )}

    def _cmd_run(self, request) -> Dict[str, Any]:
        # Synchronous extra ticks: lets tests and the smoke harness
        # advance simulated time deterministically faster than the
        # wall-paced tick thread.
        ticks = int(request.get("ticks", 1))
        if not 0 < ticks <= 100_000:
            raise FleetdError("ticks must be in [1, 100000]")
        self.engine.run_ticks(ticks)
        return {"tick": self.engine.tick_index}

    def _cmd_stop(self, request) -> Dict[str, Any]:
        self._stop.set()
        return {"stopping": True}


_COMMANDS = {
    "ping": FleetdServer._cmd_ping,
    "status": FleetdServer._cmd_status,
    "register": FleetdServer._cmd_register,
    "deregister": FleetdServer._cmd_deregister,
    "rollout": FleetdServer._cmd_rollout,
    "rollout-status": FleetdServer._cmd_rollout_status,
    "rollback": FleetdServer._cmd_rollback,
    "kill-switch": FleetdServer._cmd_kill_switch,
    "reset-quarantine": FleetdServer._cmd_reset_quarantine,
    "metrics": FleetdServer._cmd_metrics,
    "top": FleetdServer._cmd_top,
    "run": FleetdServer._cmd_run,
    "stop": FleetdServer._cmd_stop,
}
