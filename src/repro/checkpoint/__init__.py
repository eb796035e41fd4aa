"""Crash-safe checkpoint/restore of the whole simulation.

The paper's controllers survive restarts because ``memory.reclaim`` is
stateless (Section 3.3); this package extends that restartability to
the entire reproduction. A host — clock, memory manager, cgroup trees,
LRU orders, shadow entries, PSI trackers, device queues, fault seams,
RNG streams, workloads, controllers, metric series — serializes to a
single versioned, digest-protected JSON document, and restores to a
host that continues *bit-identically*: running to ``t1``, snapshotting,
killing the process, restoring and running to ``t2`` produces the same
metric-series digest as running straight to ``t2``. Every host chaos
storm (``python -m repro chaos``) asserts exactly that, through
:func:`save_snapshot` / :func:`load_snapshot`.

What is saved is what each class declares (:mod:`repro.checkpoint.
state`); the payload is the host's config plus the walker's encoding
of the host, restored in place on a host rebuilt from that config.

Entry points: ``Host.snapshot()`` / ``Host.restore()`` wrap
:func:`snapshot_host` / :func:`restore_host`; :func:`save_snapshot` /
:func:`load_snapshot` add the file layer used by
``python -m repro run --checkpoint-every N --resume PATH`` and by the
fleet spool (:func:`repro.core.fleetres.spool_snapshot`).
"""

from __future__ import annotations

import os
from typing import Any, Dict

from repro.checkpoint.snapshot import (
    PAYLOAD_KIND,
    SCHEMA_VERSION,
    SnapshotError,
    dump_payload,
    parse_document,
    payload_digest,
    validate_envelope,
    wrap_payload,
)
from repro.checkpoint.state import decode_state, encode_state

__all__ = [
    "SCHEMA_VERSION",
    "SnapshotError",
    "snapshot_host",
    "restore_host",
    "save_snapshot",
    "load_snapshot",
    "payload_digest",
]


def snapshot_host(host) -> Dict[str, Any]:
    """Snapshot a host into a versioned, digest-carrying envelope.

    Raises :class:`SnapshotError` — before anything is written — when
    any object on the host declares no state or carries an undeclared
    attribute (a trace workload, an unknown controller type).
    """
    return wrap_payload(_encode_payload(host))


def _encode_payload(host) -> Dict[str, Any]:
    return {
        "kind": PAYLOAD_KIND,
        "config": encode_state(host.config, type(host.config)),
        "host": encode_state(host, type(host)),
    }


def restore_host(envelope: Any):
    """Validate an envelope and rebuild the host it describes.

    The envelope is checked end to end (schema version, digest, shape)
    *before* any construction, so a bad snapshot raises
    :class:`SnapshotError` and never yields a half-restored host.
    """
    from repro.sim.host import Host, HostConfig

    payload = validate_envelope(envelope)
    try:
        host = Host(decode_state(payload["config"], HostConfig))
        decode_state(payload["host"], Host, into=host)
    except SnapshotError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise SnapshotError(
            f"snapshot payload does not fit this build: {exc!r}",
            field="payload",
        ) from exc
    return host


def save_snapshot(host, path: str) -> str:
    """Atomically snapshot ``host`` to ``path``; returns the payload digest.

    The file is ``dump_envelope(host.snapshot())``, but the payload is
    serialized once (:func:`dump_payload`), not once to hash it and
    again to write it. The document is encoded and dumped first,
    written to ``path + ".tmp"`` and only then renamed over ``path``,
    so a run that fails or is killed mid-write leaves the previous
    snapshot (or its absence) intact. There is no fsync: this guards
    against process death, not power loss.
    """
    digest, document = dump_payload(_encode_payload(host))
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(document)
    os.replace(tmp, path)
    return digest


def load_snapshot(path: str):
    """Read, validate and restore a snapshot file.

    Raises ``OSError`` when the file cannot be read and
    :class:`SnapshotError` for any content that is not a valid
    snapshot, bytes that do not decode as UTF-8 included.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SnapshotError(
            f"snapshot is not UTF-8 text: {exc.reason}", offset=exc.start
        ) from exc
    return restore_host(parse_document(text))
