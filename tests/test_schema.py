"""The config schema as the CLI's input contract, on mutated shipped configs.

Each example takes a shipped config and sets one or two of the fields that
``docs/config_schema.json`` defines (present or not) to a new value: one
the schema allows, a value of the wrong type or range, or nothing (the
field is removed). ``jsonschema`` then says whether the result is valid.
A config the schema rejects must exit 2; one it accepts must exit 0, or 2
or 3 with a message, and must never raise.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import jsonschema
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ldesc_sim.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "docs" / "config_schema.json").read_text())
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)
SHIPPED = {p.name: json.loads(p.read_text()) for p in sorted((ROOT / "configs").glob("*.json"))}

DELETE = object()
# Wrong types and out-of-range values; small, so that no accepted run is long.
JUNK = st.sampled_from([None, True, -1, 0, 3, 1.5, "x", "", [], {}, [1, 1], [0, 1, 1]])


def _resolve(node: dict) -> dict:
    while "$ref" in node:
        node = SCHEMA["$defs"][node["$ref"].rsplit("/", 1)[1]]
    return node


def _fields(node: dict, value, path: tuple) -> list[tuple[tuple, dict]]:
    """(path, schema node) of every field under ``value`` that the schema
    defines, whether the config sets it or not."""
    node = _resolve(node)
    for branch in node.get("oneOf", ()):
        if branch.get("type") == "object" and isinstance(value, dict):
            node = branch
    out = []
    if node.get("type") == "object" and isinstance(value, dict):
        for key, sub in node["properties"].items():
            out.append((path + (key,), sub))
            if key in value:
                out.extend(_fields(sub, value[key], path + (key,)))
    elif node.get("type") == "array" and isinstance(value, list):
        items = _resolve(node["items"])
        if items.get("type") == "object":
            for i, item in enumerate(value):
                out.extend(_fields(items, item, path + (i,)))
    return out


def _values(node: dict):
    """Values the schema allows for a field, kept small."""
    node = _resolve(node)
    branches = node.get("oneOf", [node])
    out = []
    for b in branches:
        if "enum" in b:
            out.append(st.sampled_from(b["enum"]))
        elif b.get("type") == "integer":
            out.append(st.integers(b.get("minimum", -1), 16))
        elif b.get("type") == "number":
            out.append(st.floats(0.01, 4))
        elif b.get("type") == "string":
            out.append(st.sampled_from(["0x0", "0x10000", "table", "hist", "a"]))
        elif b.get("type") == "array":
            out.append(st.lists(st.integers(-1, 8), min_size=3, max_size=3))
        elif b.get("type") == "object":
            out.append(st.just({}))
    return st.one_of(out)


def _set(raw: dict, path: tuple, value) -> None:
    """Set or delete one field. A drawn value goes in as a copy. JUNK's
    ``{}`` and ``[]`` and ``_values``' ``{}`` are one object each: set into
    two fields, one could hold itself, and an edit inside one would reach
    later examples."""
    for key in path[:-1]:
        raw = raw[key]
    if value is DELETE:
        raw.pop(path[-1], None)
    else:
        raw[path[-1]] = copy.deepcopy(value)


def _edited(name: str, edits: list[tuple[tuple, object]]) -> dict:
    """Shipped config ``name`` with each (path, value) of ``edits`` set in turn."""
    raw = copy.deepcopy(SHIPPED[name])
    for path, value in edits:
        _set(raw, path, value)
    return raw


@st.composite
def mutated_configs(draw):
    raw = copy.deepcopy(SHIPPED[draw(st.sampled_from(sorted(SHIPPED)))])
    for _ in range(draw(st.integers(1, 2))):
        path, node = draw(st.sampled_from(_fields(SCHEMA, raw, ())))
        _set(raw, path, draw(st.one_of(_values(node), JUNK, st.just(DELETE))))
    if draw(st.booleans()):
        # The schema cannot say that zone_count divides sm_count, so most
        # single-field edits stop at that check; draw the two together.
        zones = draw(st.sampled_from(range(1, 9)))
        system = raw.get("system", {})
        if isinstance(system, str):
            system = {"preset": system}
        if isinstance(system, dict):
            raw["system"] = {**system, "zone_count": zones,
                             "sm_count": zones * draw(st.integers(1, 4))}
    return raw


def _run(raw: dict) -> tuple[int, str]:
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(raw))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", str(cfg)])
    return code, err.getvalue()


_SHARED: dict = {}  # one drawn object set into two fields, as JUNK's {} can be


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_configs())
@example(_edited("histo.json", [(("grid",), _SHARED), (("grid", "warps_per_cta"), _SHARED)]))
def test_cli_agrees_with_the_schema(raw):
    code, err = _run(raw)
    if not VALIDATOR.is_valid(raw):
        assert code == 2, (code, err)
    else:
        assert code in (0, 2, 3), (code, err)
        assert code == 0 or err.strip()
    assert "Traceback" not in err


def test_shipped_configs_are_valid_and_run():
    for name, raw in SHIPPED.items():
        VALIDATOR.validate(raw)
        assert _run(raw) == (0, ""), name
