"""The snapshot envelope: versioning, integrity, refusal semantics.

A snapshot is a canonical-JSON document in a three-field envelope::

    {"schema_version": 7, "digest": "<sha256>", "payload": {...}}

``digest`` is the SHA-256 of the *canonical* payload encoding
(``json.dumps(payload, sort_keys=True, separators=(",", ":"))``), so a
snapshot is content-addressed: two hosts with identical state produce
byte-identical envelopes, and a single flipped bit in the payload is
caught before any restore work begins. Packed arrays are ``bytes``
leaves of the payload, already base64; the serializer
(:func:`canonical_parts`) writes them into the document verbatim, as
the JSON strings they spell, without scanning them for escapes.

Refusal semantics (docs/RESILIENCE.md, "Recovery"): a bad snapshot —
truncated file, unknown schema version, digest mismatch, wrong shape —
raises :class:`SnapshotError` naming the offending field or byte
offset. Validation happens *before* any host object is constructed, so
a failed restore can never leave a half-restored host behind.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Tuple

#: Current snapshot schema version. Bump on any change to the payload
#: layout; old versions are refused, never silently migrated (the
#: versioning policy is documented in docs/RESILIENCE.md).
#: v2: Supervisor payloads carry a restart budget and its state.
#: v3: the payload is written by the declared-state walker
#: (:mod:`repro.checkpoint.state`) in place of the hand-written codecs:
#: objects are positional rows, every dict is ordered pairs (so dict
#: order survives a restore), shared objects are written by key.
#: v4: pages are the memory manager's page table, one column per page
#: attribute (integer and bool columns as packed bytes), in place of
#: per-page rows and per-cgroup LRU lists; workloads hold page-id
#: arrays. A v3 payload has no page table to read.
#: v5: float64 arrays are packed bytes like the integer ones (page
#: table float columns, latency reservoirs, metric samples), and the
#: metrics recorder writes each distinct time column once, with each
#: series as ``[name, column index, values]``. JSON float lists made
#: snapshot encode and spool writes most of a fleetd host-tick; a v4
#: payload holds those lists, which this build no longer reads.
#: v6: a PSI group's stall integrals and running averages are flat
#: six-slot lists indexed ``2 * resource ordinal + (kind == full)``, in
#: place of dicts keyed by ``(resource, kind)``: the per-transition
#: accrual no longer hashes enum tuples. A v5 payload holds those
#: dicts, which this build no longer reads.
#: v7: Supervisor rows lose the restart budget's state (the give-up
#: flag, manual re-admission count and death streak) and
#: ``SupervisorConfig`` rows lose the budget itself: a supervised
#: controller is always restarted. A v6 row has more fields than this
#: build's Supervisor declares.
SCHEMA_VERSION = 7

#: Payload marker distinguishing host snapshots from other documents.
PAYLOAD_KIND = "tmo-host-snapshot"


class SnapshotError(ValueError):
    """A snapshot could not be produced or refused to load.

    Attributes:
        field: the envelope/payload field that failed validation
            (``"schema_version"``, ``"digest"``, ...), when known.
        offset: byte offset of a parse failure in the serialized
            document, when known (truncated/corrupt files).
    """

    def __init__(
        self,
        message: str,
        field: Optional[str] = None,
        offset: Optional[int] = None,
    ) -> None:
        detail = message
        if field is not None:
            detail += f" (field: {field})"
        if offset is not None:
            detail += f" (offset: {offset})"
        super().__init__(detail)
        self.field = field
        self.offset = offset


#: What the serializer writes in place of each packed leaf before it
#: splices the leaf back in.
_PACKED = "\x00packed\x00"
#: :data:`_PACKED` as it reads inside a JSON string.
_PACKED_TEXT = json.dumps(_PACKED)[1:-1]


def canonical_parts(payload: Any) -> List[bytes]:
    """The canonical encoding of ``payload``, as byte parts in order.

    Their concatenation is ``json.dumps(payload, sort_keys=True,
    separators=(",", ":"))`` with every ``bytes`` leaf written as the
    ASCII string it spells. ``bytes`` leaves are packed arrays
    (:func:`repro.checkpoint.state.encode_array`): base64, whose
    alphabet holds no character JSON escapes, so each is its own part,
    written verbatim and never scanned. The JSON encoder writes a
    marker for each and the text is split on the markers. A string of
    the payload that holds the marker's text makes the count come out
    wrong; then the leaves are decoded and encoded as JSON strings.
    """
    leaves: List[bytes] = []

    def packed(value: Any) -> str:
        if type(value) is not bytes:
            raise TypeError(
                f"Object of type {type(value).__name__} is not JSON "
                "serializable"
            )
        leaves.append(value)
        return _PACKED

    text = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=packed
    )
    if not leaves:
        return [text.encode()]
    pieces = text.split(_PACKED_TEXT)
    if len(pieces) != len(leaves) + 1:
        return [json.dumps(
            payload, sort_keys=True, separators=(",", ":"),
            default=bytes.decode,
        ).encode()]
    parts = [pieces[0].encode()]
    for leaf, piece in zip(leaves, pieces[1:]):
        parts += (leaf, piece.encode())
    return parts


def canonical_json(payload: Any) -> str:
    """The one true serialization of a payload (sorted keys, no spaces)."""
    return b"".join(canonical_parts(payload)).decode()


def _sha256(parts: List[bytes]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def payload_digest(payload: Any) -> str:
    """SHA-256 hex digest of the canonical payload encoding."""
    return _sha256(canonical_parts(payload))


def wrap_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Build the versioned, digest-carrying envelope around a payload."""
    return {
        "schema_version": SCHEMA_VERSION,
        "digest": payload_digest(payload),
        "payload": payload,
    }


def validate_envelope(envelope: Any) -> Dict[str, Any]:
    """Check an envelope end to end; return the verified payload.

    Raises :class:`SnapshotError` on any defect — wrong shape, missing
    field, schema-version mismatch, digest mismatch, wrong payload
    kind — without constructing anything.
    """
    if not isinstance(envelope, dict):
        raise SnapshotError(
            f"snapshot envelope must be a JSON object, "
            f"got {type(envelope).__name__}",
        )
    for key in ("schema_version", "digest", "payload"):
        if key not in envelope:
            raise SnapshotError("snapshot envelope is missing a field",
                                field=key)
    version = envelope["schema_version"]
    if version != SCHEMA_VERSION:
        raise SnapshotError(
            f"unsupported snapshot schema version {version!r}; "
            f"this build reads version {SCHEMA_VERSION}",
            field="schema_version",
        )
    payload = envelope["payload"]
    if not isinstance(payload, dict):
        raise SnapshotError("snapshot payload must be a JSON object",
                            field="payload")
    expected = payload_digest(payload)
    found = envelope["digest"]
    if found != expected:
        raise SnapshotError(
            f"snapshot digest mismatch: envelope says {found!r}, "
            f"payload hashes to {expected!r} — refusing a corrupt "
            "snapshot",
            field="digest",
        )
    kind = payload.get("kind")
    if kind != PAYLOAD_KIND:
        raise SnapshotError(
            f"payload kind {kind!r} is not {PAYLOAD_KIND!r}",
            field="kind",
        )
    return payload


def dump_envelope(envelope: Dict[str, Any]) -> str:
    """Serialize a full envelope (canonical form, trailing newline)."""
    return canonical_json(envelope) + "\n"


def dump_payload(payload: Dict[str, Any]) -> Tuple[str, List[bytes]]:
    """``(digest, document parts)`` for a payload, serializing it once.

    The parts joined are ``dump_envelope(wrap_payload(payload))``
    encoded, byte for byte: sorted keys put ``digest`` before
    ``payload`` before ``schema_version``, so the canonical payload
    parts are hashed and then written between the envelope's head and
    tail as they are. Nothing joins them: a writer takes them one by
    one (``writelines``).
    """
    parts = canonical_parts(payload)
    digest = _sha256(parts)
    head = f'{{"digest":"{digest}","payload":'.encode()
    tail = f',"schema_version":{SCHEMA_VERSION}}}\n'.encode()
    return digest, [head, *parts, tail]


def parse_document(text: str) -> Any:
    """Parse a serialized snapshot, mapping JSON errors to SnapshotError.

    A truncated or otherwise unparseable document reports the byte
    offset where decoding failed.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SnapshotError(
            f"snapshot is truncated or not valid JSON: {exc.msg}",
            offset=exc.pos,
        ) from exc
