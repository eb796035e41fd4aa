"""Client for the fleetd control socket.

One request per connection, newline-delimited JSON both ways (the
protocol :mod:`repro.fleetd.server` documents). The client raises
:class:`FleetdClientError` for transport failures and for ``ok: false``
responses, so CLI verbs can surface daemon-side refusals (unknown
host, kill switch engaged, invalid policy) as ordinary errors.

Each row of :data:`repro.fleetd.verbs.VERBS` is a method here (``run``
is ``run_ticks``). The client does not check what it sends: the daemon
does, once.
"""

from __future__ import annotations

import functools
import json
import socket
from typing import Any, Dict

from repro.fleetd.verbs import REQUIRED, VERBS


class FleetdClientError(RuntimeError):
    """The daemon refused a request or could not be reached."""


class FleetdClient:
    """Talks to a running fleetd over its Unix socket."""

    def __init__(self, socket_path: str, timeout_s: float = 10.0) -> None:
        self.socket_path = socket_path
        self.timeout_s = timeout_s

    def request(self, cmd: str, **params: Any) -> Dict[str, Any]:
        """Send one command; returns the response payload.

        Raises :class:`FleetdClientError` on connection failure, a
        malformed response, or an ``ok: false`` reply.
        """
        payload = dict(params)
        payload["cmd"] = cmd
        line = json.dumps(payload).encode("utf-8") + b"\n"
        try:
            with socket.socket(
                socket.AF_UNIX, socket.SOCK_STREAM
            ) as conn:
                conn.settimeout(self.timeout_s)
                conn.connect(self.socket_path)
                conn.sendall(line)
                chunks = []
                while not chunks or not chunks[-1].endswith(b"\n"):
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    chunks.append(chunk)
        except OSError as exc:
            raise FleetdClientError(
                f"cannot reach fleetd at {self.socket_path}: {exc}"
            ) from exc
        raw = b"".join(chunks).strip()
        if not raw:
            raise FleetdClientError(
                "fleetd closed the connection without a response"
            )
        try:
            response = json.loads(raw.decode("utf-8"))
        except ValueError as exc:
            raise FleetdClientError(
                f"malformed fleetd response: {exc}"
            ) from exc
        if not response.get("ok"):
            raise FleetdClientError(
                response.get("error", "fleetd refused the request")
            )
        return response

    def call(self, verb: str, *args: Any, **kwargs: Any) -> Any:
        """Send one verb, its parameters in table order with the table's
        defaults; returns its result, checked by the row's ``parse``."""
        row = VERBS[verb]
        if len(args) > len(row.params):
            raise TypeError(f"{verb} takes {len(row.params)} parameters")
        params = {p.name: p.default for p in row.params}
        params.update(zip(params, args), **kwargs)
        reply = self.request(verb, **{
            name: value for name, value in params.items()
            if value is not REQUIRED
        })
        result = reply if row.result is None else reply[row.result]
        if row.parse is None:
            return result
        try:
            return row.parse(result)
        except ValueError as exc:
            raise FleetdClientError(
                f"malformed {verb} result from daemon: {exc}"
            ) from exc


# The named verbs: ``client.register(...)`` is
# ``client.call("register", ...)``.
for _verb in VERBS.values():
    setattr(FleetdClient, _verb.method,
            functools.partialmethod(FleetdClient.call, _verb.name))
