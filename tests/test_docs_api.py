"""Keep docs/API.md in sync with the public surface."""

import importlib.util
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[1]


def load_generator():
    spec = importlib.util.spec_from_file_location(
        "gen_api", REPO / "docs" / "gen_api.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_api_md_is_current(tmp_path):
    gen = load_generator()
    committed = (REPO / "docs" / "API.md").read_text()
    gen.OUT = tmp_path / "API.md"
    gen.main()
    fresh = gen.OUT.read_text()
    assert committed == fresh, (
        "docs/API.md is stale; run `python docs/gen_api.py`"
    )


def test_api_md_covers_core_modules():
    text = (REPO / "docs" / "API.md").read_text()
    for module in (
        "repro.psi.group",
        "repro.kernel.mm",
        "repro.core.senpai",
        "repro.backends.zswap",
        "repro.workloads.base",
        "repro.sim.host",
    ):
        assert f"## `{module}`" in text


def _modules_listing(item):
    """The docs/API.md sections (module names) that list ``item``."""
    text = (REPO / "docs" / "API.md").read_text()
    return [
        section.split("`", 1)[0]
        for section in text.split("\n## `")[1:]
        if f"- **`{item}`**" in section
    ]


def test_api_md_lists_a_constant_only_where_it_is_defined():
    """An imported constant is not credited to the importing module
    (the server, the client and the package re-export ``VERBS``)."""
    assert _modules_listing("VERBS") == ["repro.fleetd.verbs"]
    assert _modules_listing("ROLLUP_SIGNALS") == ["repro.fleetd.rollup"]
    assert _modules_listing("SeriesBlock") == ["repro.sim.metrics"]


def _verb_reference():
    """Each row of docs/RESILIENCE.md's verb table, parsed."""
    import re

    text = (REPO / "docs" / "RESILIENCE.md").read_text()
    section = text.split("### The verbs", 1)[1].split("\n### ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        verb, params, result = [c.strip() for c in line.strip("|").split("|")]
        rows[verb.strip("`")] = (
            re.findall(r"`(\w+)` (an? [a-z ]+?), "
                       r"(required|default `([^`]*)`)", params),
            re.match(r"`(\w+)`", result).group(1)
            if result.startswith("`") else None,
        )
    return rows


def test_resilience_md_lists_every_verb_and_parameter():
    """The verb reference in docs/RESILIENCE.md, "Control plane", names
    exactly the verbs, parameters, types, defaults and result keys of
    the verb table."""
    import json

    from repro.fleetd.verbs import JSON_TYPES, REQUIRED, VERBS

    expected = {
        verb.name: (
            [
                (p.name, JSON_TYPES[p.type][0],
                 "required" if p.default is REQUIRED
                 else f"default `{json.dumps(p.default)}`",
                 "" if p.default is REQUIRED else json.dumps(p.default))
                for p in verb.params
            ],
            verb.result,
        )
        for verb in VERBS.values()
    }
    assert _verb_reference() == expected
