"""The fleetd verb table: each socket verb, written once.

A :class:`Verb` row names the verb, its parameters, the reply key that
holds its result, its help text and its handler. The server checks
each request against its row and calls the handler under the engine
lock; the client builds its named methods from the rows; ``repro
fleetd`` builds one sub-parser per row. Handlers look the engine method
up when called, never at import, so class-level wraps of
:class:`~repro.fleetd.engine.FleetdEngine` methods see every call. This
module imports neither the engine nor the server.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.fleetd.policy import PolicySpec
from repro.fleetd.rollup import (
    ROLLUP_SIGNALS,
    parse_fleet_rollup,
    parse_top_report,
)

#: The default of a parameter that every request must carry.
REQUIRED: Any = object()

#: Each parameter type: what it accepts, as errors and docs say it, and
#: its test of a decoded value (a number must fit a double).
JSON_TYPES: Dict[type, Tuple[str, Callable[[Any], bool]]] = {
    int: ("an integer", lambda v: type(v) is int),
    float: ("a finite number", lambda v: type(v) in (int, float)
            and abs(v) <= sys.float_info.max),
    str: ("a string", lambda v: type(v) is str),
    list: ("a list of strings", lambda v: type(v) is list
           and all(type(item) is str for item in v)),
    dict: ("an object", lambda v: type(v) is dict),
}


class NonFinite:
    """What ``NaN`` and ``Infinity`` parse to: no parameter accepts it."""

    def __init__(self, token: str) -> None:
        self.token = token

    def __repr__(self) -> str:
        return self.token


@dataclass(frozen=True)
class Param:
    """One verb parameter, as the server, client and CLI read it.
    ``name`` is the wire name; ``type`` a key of :data:`JSON_TYPES`;
    ``default`` the value when omitted, or :data:`REQUIRED` (a ``None``
    default also admits ``null``); ``help`` the CLI help; ``cli`` the
    CLI flag, or the bare name of a positional (``None``: ``--`` and the
    name with dashes); ``bound`` an inclusive range the engine does not
    enforce itself."""

    name: str
    type: type
    default: Any = REQUIRED
    help: str = ""
    cli: Optional[str] = None
    bound: Optional[Tuple[int, int]] = None

    @property
    def flag(self) -> str:
        return self.cli or "--" + self.name.replace("_", "-")

    def check(self, value: Any) -> Any:
        """The accepted value; raises :class:`ValueError`."""
        if value is None and self.default is None:
            return None
        accepts, test = JSON_TYPES[self.type]
        if not test(value):
            raise ValueError(
                f"{self.name} must be {accepts}, got {value!r:.40}"
            )
        if self.bound and not self.bound[0] <= value <= self.bound[1]:
            low, high = self.bound
            raise ValueError(f"{self.name} must be in [{low}, {high}]")
        return float(value) if self.type is float else value


@dataclass(frozen=True)
class Verb:
    """One row of the verb table: a socket verb and its surfaces.
    ``name`` is the ``cmd`` a request carries; ``result`` the reply key
    holding the result (``None`` merges its keys into the reply);
    ``handler(server, params)`` runs under the engine lock on the
    checked parameters; ``help`` is one line; ``params`` are in wire
    order; ``alias`` names the client method when it is not the name
    with underscores; ``parse`` is the client's check of the result."""

    name: str
    result: Optional[str]
    handler: Callable[[Any, Dict[str, Any]], Any]
    help: str
    params: Tuple[Param, ...] = ()
    alias: Optional[str] = None
    parse: Optional[Callable[[Any], Any]] = None

    @property
    def method(self) -> str:
        return self.alias or self.name.replace("-", "_")

    def check(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """The request's parameters, defaults filled in; raises
        :class:`ValueError` for an undeclared, missing or ill-typed one."""
        names = [p.name for p in self.params]
        unknown = request.keys() - {"cmd", *names}
        if unknown:
            raise ValueError(
                f"unknown parameter {min(unknown)!r}; have {names}"
            )
        params = {}
        for p in self.params:
            if p.name in request:
                params[p.name] = p.check(request[p.name])
            elif p.default is REQUIRED:
                raise ValueError(f"{p.name} is required")
            else:
                params[p.name] = p.default
        return params


# -- handlers (called with the engine lock held) ------------------------


def _register(server, p: Dict[str, Any]) -> Dict[str, Any]:
    spec = None if p["policy"] is None else PolicySpec.from_json(p["policy"])
    return server.engine.register(
        p["host_id"], p["app"], spec=spec,
        size_scale=p["size_scale"], region=p["region"],
    ).status()


def _rollout_status(server, p: Dict[str, Any]) -> Dict[str, Any]:
    result = server.engine.rollout_result(p["rollout_id"])
    if result is None:
        raise ValueError(f"no rollout with id {p['rollout_id']}")
    return result.to_json()


_HOST_ID = Param("host_id", str, help="host id ([A-Za-z0-9._-])",
                 cli="host_id")
_WINDOW = Param("window_s", float, 60.0, "trailing window per host "
                "(simulated seconds, default 60)", cli="--window")

#: Every verb, by name.
VERBS: Dict[str, Verb] = {verb.name: verb for verb in (
    Verb("ping", None, lambda server, p: {
        "pong": True,
        "tick": server.engine.tick_index,
        "tick_thread": server.tick_thread_status(),
    }, "check that the daemon and its tick thread are up"),
    Verb("status", "status", lambda server, p: {
        **server.engine.status(),
        "tick_thread": server.tick_thread_status(),
    }, "print the daemon's fleet status JSON"),
    Verb("register", "host", _register,
         "admit a host into the running fleet", params=(
             _HOST_ID,
             Param("app", str, "Feed", "application (see list-apps)"),
             Param("policy", dict, None, "initial policy (default: the "
                   "fleet's committed policy)"),
             Param("size_scale", float, 0.003,
                   "fraction of the production footprint"),
             Param("region", str, "default", "placement region label; "
                   "rollups fold host -> region -> fleet and wave planning "
                   "never makes one region all-canary (default: 'default')"),
         )),
    Verb("deregister", "host_id",
         lambda server, p: server.engine.deregister(p["host_id"]).host_id,
         "remove a host from the fleet", params=(_HOST_ID,)),
    Verb("rollout", "rollout_id", lambda server, p: (
        server.engine.begin_rollout(
            PolicySpec.from_json(p["policy"]), host_ids=p["hosts"])
    ), "start a guarded policy rollout", params=(
        Param("policy", dict, help="the policy to roll out"),
        Param("hosts", list, None, "target hosts (default: whole fleet)"),
    )),
    Verb("rollout-status", "result", _rollout_status,
         "print one rollout's RolloutResult envelope",
         params=(Param("rollout_id", int, help="rollout id", cli="--id"),)),
    Verb("rollback", "rolled_back",
         lambda server, p: server.engine.rollback_active(),
         "abort the active rollout, reverting its hosts"),
    Verb("kill-switch", "killed",
         lambda server, p: server.engine.kill_switch(),
         "revert every in-flight rollout and freeze the fleet"),
    # Read-only: the rollups only touch non-registering metric reads,
    # so serving metrics or top never changes the fleet digest a
    # concurrent chaos/crash-equivalence check computes.
    Verb("metrics", "rollup", lambda server, p: (
        server.engine.fleet_rollup(p["window_s"]).to_json()
    ), "print the read-only host/region/fleet metric rollup envelope",
        params=(_WINDOW,), parse=parse_fleet_rollup),
    Verb("top", "top", lambda server, p: server.engine.top_hosts(
        p["signal"], n=p["n"], window_s=p["window_s"],
    ), "rank hosts by a rollup signal's window mean", params=(
        Param("signal", str, "psi_mem_some",
              f"signal to rank by ({', '.join(ROLLUP_SIGNALS)})"),
        Param("n", int, 5, "how many hosts (default 5)", cli="-n"),
        _WINDOW,
    ), parse=parse_top_report),
    # Synchronous extra ticks: lets tests and the smoke harness advance
    # simulated time deterministically faster than the wall-paced tick
    # thread.
    Verb("run", "tick",
         lambda server, p: server.engine.run_ticks(p["ticks"]),
         "advance the daemon's simulated clock synchronously", params=(
             Param("ticks", int, 60, "ticks to advance (default 60)",
                   bound=(1, 100_000)),
         ), alias="run_ticks"),
    Verb("stop", "stopping", lambda server, p: server.request_stop(),
         "shut the daemon down cleanly"),
)}
