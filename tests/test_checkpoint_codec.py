"""Spool bytes, pinned: the snapshot codec's output, byte for byte.

Each test pins the SHA-256 of what the codec writes for one shape of
state the serializer and the metrics recorder treat specially:

* a fleetd host whose byte-equal time columns live in different
  :class:`~repro.sim.metrics.SeriesBlock`\\ s (8 block-starts, written
  as 4 columns);
* a host that gained a workload mid-run, so one block has two starts;
* an in-memory payload holding packed arrays next to strings that read
  like the serializer's splice marker, which must come out verbatim.

A change that moves one of these digests changes the spool format, so
it comes with a ``SCHEMA_VERSION`` bump and new pins.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.checkpoint import SCHEMA_VERSION, save_snapshot
from repro.checkpoint.snapshot import (
    canonical_json,
    dump_envelope,
    parse_document,
    payload_digest,
    wrap_payload,
)
from repro.checkpoint.state import decode_array, encode_array
from repro.sim.host import Host, HostConfig
from repro.workloads.web import WebWorkload

SMALL = dict(ram_gb=0.25, ncpu=4, page_size_bytes=1 << 20)

#: SHA-256 of each spool file at snapshot schema 7.
FLEETD_HOST_FILE = (
    "dd2edb8a2d1c5000a77a7e16881b6f418136ca274b7ed09cd08fa8e05da0c026"
)
LATE_WORKLOAD_FILE = (
    "828d3b51f912321986d67dfc6488ef429993029f9268d4a3b84a40ef88ea211d"
)
#: SHA-256 of :func:`marker_payload`'s canonical encoding.
MARKER_PAYLOAD_TEXT = (
    "181a3525cfb34b3f195b7a88b59d6dc86f72dd66780537238780fd8a545de0c0"
)

#: The text the serializer writes in place of a packed leaf before it
#: splices the leaf back in.
MARKER = "\x00packed\x00"


def block_starts(metrics):
    """``{block id: sorted series start offsets}`` of a recorder."""
    starts = {}
    for series in metrics._series.values():
        starts.setdefault(id(series._block), set()).add(series._start)
    return {block: sorted(found) for block, found in starts.items()}


def saved(host, tmp_path):
    """``(payload digest, file bytes)`` of one ``save_snapshot``."""
    path = tmp_path / "host.json"
    digest = save_snapshot(host, str(path))
    return digest, path.read_bytes()


def test_fleetd_host_spool_is_pinned(tmp_path):
    from repro.fleetd.engine import FleetdConfig, FleetdEngine

    assert SCHEMA_VERSION == 7, "new schema: take new pins"
    with FleetdEngine(FleetdConfig(
        seed=1, base_config=HostConfig(**SMALL),
        checkpoint_every_s=float("inf"),
    )) as engine:
        engine.register("h0", "Feed", size_scale=0.003)
        engine.run_ticks(300)
        host = engine.registry.get("h0").host
        starts = block_starts(host.metrics)
        assert sum(len(s) for s in starts.values()) == 8
        columns, _ = host.metrics.__snapshot__()
        assert len(columns) == 4
        digest, data = saved(host, tmp_path)
        assert data == dump_envelope(host.snapshot()).encode()
    assert hashlib.sha256(data).hexdigest() == FLEETD_HOST_FILE
    assert json.loads(data)["digest"] == digest


def test_host_that_gained_a_workload_spool_is_pinned(tmp_path):
    host = Host(HostConfig(**SMALL, seed=3))
    host.add_workload(WebWorkload, name="web", size_scale=0.003)
    host.run(60.0)
    host.add_workload(WebWorkload, name="late", size_scale=0.003)
    host.run(60.0)
    assert sorted(block_starts(host.metrics).values()) == [[0, 60]]
    digest, data = saved(host, tmp_path)
    assert data == dump_envelope(host.snapshot()).encode()
    assert hashlib.sha256(data).hexdigest() == LATE_WORKLOAD_FILE
    restored = Host.restore(parse_document(data.decode()))
    assert restored.snapshot()["digest"] == digest


def marker_payload():
    """Packed arrays next to strings that read like the splice marker:
    the marker itself as a value and as a key, inside a longer string,
    and its JSON text. One packed array is empty."""
    floats = encode_array(np.array([0.5, -0.0, float("nan"), 1e300]))
    return {
        "kind": "codec-marker",
        MARKER: [MARKER, "a" + MARKER + "b", json.dumps(MARKER)],
        "packed": [
            floats,
            encode_array(np.arange(-3, 300)),
            encode_array(np.array([True, False, True])),
            encode_array(np.empty(0)),
        ],
        "tail": {"z": MARKER, "a": [encode_array(np.array([2.0]))]},
    }


def as_text(doc):
    """``doc`` with every bytes leaf as the ASCII string it spells."""
    if isinstance(doc, bytes):
        return doc.decode("ascii")
    if isinstance(doc, dict):
        return {key: as_text(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [as_text(value) for value in doc]
    return doc


@pytest.mark.parametrize("with_marker", [True, False])
def test_strings_like_the_marker_are_written_verbatim(with_marker):
    payload = marker_payload()
    if not with_marker:
        del payload[MARKER]
        payload["tail"]["z"] = "z"
    text = canonical_json(payload)
    assert text == json.dumps(
        as_text(payload), sort_keys=True, separators=(",", ":")
    )
    assert payload_digest(payload) == hashlib.sha256(
        text.encode()).hexdigest()
    envelope = dump_envelope(wrap_payload(payload))
    assert envelope == (
        f'{{"digest":"{payload_digest(payload)}","payload":{text},'
        f'"schema_version":{SCHEMA_VERSION}}}\n'
    )
    again = parse_document(text)
    assert again == as_text(payload)
    assert decode_array(again["packed"][1]).tolist() == list(range(-3, 300))
    if with_marker:
        assert hashlib.sha256(text.encode()).hexdigest() == (
            MARKER_PAYLOAD_TEXT
        )
