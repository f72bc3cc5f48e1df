"""Experiment configuration: JSON parsing, policy wiring, single runs.

A config names a system (or preset), a grid, data structures with their
descriptors, a scheduling policy and a placement scheme. This module turns
one into validated library objects and composes the right schedule,
placement and cache/prefetch policy set for a simulation run.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from .cache import InsertionClass
from .descriptor import (
    AccessPattern,
    DataStructureRef,
    LocalityDescriptor,
    LocalityType,
    SharingType,
    TileSemantics,
    validate_descriptor_set,
)
from .engine import (
    DescriptorPolicy,
    SimMetrics,
    SystemConfig,
    Workload,
    preset,
    select_policies,
    simulate,
)
from .errors import TOO_DEEP, ConfigError, LdescError, too_long_int, undecodable
from .grid import CtaGrid
from .numa import (
    NumaPlan,
    distributed_schedule,
    first_touch,
    place_and_partition,
    xor_hash,
)
from .prefetch import PrefetchKind
from .sched import (
    assign_clusters,
    assign_clusters_by_zone,
    baseline_bcs,
    baseline_round_robin,
    form_clusters,
)

# Each named policy's CTA schedule and whether it keeps the descriptor-driven
# cache insertion and prefetching, as (schedule, insertion, prefetch). The
# schedule is "rr" (round robin), "bcs" (consecutive CTA pairs) or
# "clusters" (descriptor clusters); a dropped lever falls back to LRU
# insertion or no prefetching.
POLICIES = {
    "rr": ("rr", False, False),
    "bcs": ("bcs", False, False),
    "ldesc": ("clusters", True, True),
    "ldesc-sched": ("clusters", False, False),
    "ldesc-cache": ("rr", True, False),
    "ldesc-pref": ("rr", False, True),
}
POLICY_NAMES = tuple(POLICIES)
PLACEMENT_NAMES = ("ldesc", "xor", "first_touch")
SWEEP_AXES = ("sm_count", "zone_count", "l1_capacity", "pin_reset_period", "seed")


@dataclass
class ExperimentConfig:
    system: SystemConfig
    grid: CtaGrid
    descs: list[LocalityDescriptor]
    policy: str = "ldesc"
    placement: str = "ldesc"
    seed: int = 1


def _typed(value, path: str, kind: type):
    """A field of JSON type object, array or string (``dict``, ``list``, ``str``)."""
    if not isinstance(value, kind):
        name = {dict: "an object", list: "a list", str: "a string"}[kind]
        raise ConfigError(f"{path}: expected {name}")
    return value


def _object(value, path: str, fields: tuple[str, ...]) -> dict:
    """A JSON object of the schema, holding no field outside ``fields``."""
    unknown = sorted(set(_typed(value, path, dict)) - set(fields))
    if unknown:
        raise ConfigError(f"{path}: unknown fields {unknown}")
    return value


def _get(obj: dict, key: str, path: str, default=None, required: bool = False):
    if key not in obj:
        if required:
            raise ConfigError(f"{path}.{key}: missing required field")
        return default
    return obj[key]


def _int(value, path: str, minimum: int | None = None) -> int:
    """An integer field of the schema; JSON booleans are not integers."""
    if type(value) is not int:
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: {value} is below the minimum {minimum}")
    return value


def _addr(value, path: str) -> int:
    if isinstance(value, str):
        try:
            return int(value, 16)
        except ValueError:
            raise ConfigError(f"{path}: {value!r} is not a hex address") from None
    if type(value) is int:
        return value
    raise ConfigError(f"{path}: expected hex string or integer")


def _triple(value, path: str) -> tuple[int, int, int]:
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"{path}: expected a list of three integers")
    x, y, z = (_int(v, f"{path}[{i}]") for i, v in enumerate(value))
    return (x, y, z)


def _system(raw, preset_override: str | None) -> SystemConfig:
    if isinstance(raw, str):
        raw = {"preset": raw}
    raw = _object(raw, "system", (
        "preset", "sm_count", "zone_count", "max_resident_ctas_per_sm",
        "remote_link_capacity", "l1", "l2", "latencies",
    ))
    name = preset_override or _typed(raw.get("preset", "desk"), "system.preset", str)
    try:
        base = preset(name)
    except LdescError as exc:
        raise ConfigError(f"system.preset: {exc}") from None
    updates = {}
    for key in ("sm_count", "zone_count", "max_resident_ctas_per_sm"):
        if key in raw:
            updates[key] = _int(raw[key], f"system.{key}", 1)
    if "remote_link_capacity" in raw:
        capacity = raw["remote_link_capacity"]
        if type(capacity) not in (int, float) or not capacity > 0:
            raise ConfigError(f"system.remote_link_capacity: expected a number above 0, got {capacity!r}")
        updates["remote_link_capacity"] = float(capacity)
    for group in ("l1", "l2", "latencies"):  # every field of these is an integer
        if group in raw:
            fields = tuple(f.name for f in dataclasses.fields(getattr(base, group)))
            if group == "l2":
                # Every L2 access is NORMAL and is filled at once, so an L2 line
                # is never pinned and the L2 MSHR never holds two entries.
                fields = ("capacity", "ways", "line_size")
            sub = {
                k: _int(v, f"system.{group}.{k}", 0 if k == "pin_reset_period" else 1)
                for k, v in _object(raw[group], f"system.{group}", fields).items()
            }
            try:
                updates[group] = dataclasses.replace(getattr(base, group), **sub)
            except ValueError as exc:
                raise ConfigError(f"system.{group}: {exc}") from None
    cfg = dataclasses.replace(base, **updates)
    _check_zone_count(cfg.zone_count, "system.zone_count")
    if cfg.sm_count % cfg.zone_count != 0:
        raise ConfigError(
            f"system: {cfg.sm_count} SMs do not divide into {cfg.zone_count} zones"
        )
    return cfg


def _check_zone_count(zone_count: int, path: str) -> None:
    # Zones are picked by address bits (bit-range and XOR hashing).
    if zone_count & (zone_count - 1):
        raise ConfigError(f"{path}: {zone_count} zones is not a power of two")


def _pattern(raw, path: str) -> AccessPattern:
    raw = _object(raw, path, ("kind", "stride_bytes"))
    kind = _get(raw, "kind", path, required=True)
    if kind == "REGULAR" or "stride_bytes" in raw:
        stride = _int(_get(raw, "stride_bytes", path, required=True), f"{path}.stride_bytes", 1)
    if kind == "REGULAR":
        return AccessPattern.regular_stride(stride)
    if kind == "IRREGULAR":
        return AccessPattern.irregular()
    raise ConfigError(f"{path}.kind: {kind!r} is not REGULAR or IRREGULAR")


def _enum(cls, value, path: str):
    try:
        return cls(value)
    except ValueError:
        raise ConfigError(
            f"{path}: {value!r} is not one of {[m.value for m in cls]}"
        ) from None


def parse_config(raw: dict, preset_override: str | None = None) -> ExperimentConfig:
    _object(raw, "top level", (
        "system", "grid", "data_structures", "descriptors", "policy", "placement", "seed",
    ))
    system = _system(raw.get("system", {}), preset_override)

    graw = _get(raw, "grid", "top level", required=True)
    _object(graw, "grid", ("dims", "warps_per_cta"))
    grid = CtaGrid(
        dims=_triple(_get(graw, "dims", "grid", required=True), "grid.dims"),
        warps_per_cta=_int(
            _get(graw, "warps_per_cta", "grid", default=8), "grid.warps_per_cta", 1
        ),
    )

    structures: dict[str, DataStructureRef] = {}
    sraws = _get(raw, "data_structures", "top level", required=True)
    for i, sraw in enumerate(_typed(sraws, "data_structures", list)):
        path = f"data_structures[{i}]"
        sraw = _object(sraw, path, ("name", "base_addr", "elem_size", "dims"))
        name = _typed(_get(sraw, "name", path, required=True), f"{path}.name", str)
        if name in structures:
            raise ConfigError(f"{path}.name: duplicate structure {name!r}")
        structures[name] = DataStructureRef(
            name=name,
            base_addr=_addr(_get(sraw, "base_addr", path, required=True), f"{path}.base_addr"),
            elem_size=_int(_get(sraw, "elem_size", path, required=True), f"{path}.elem_size", 1),
            dims=_triple(_get(sraw, "dims", path, required=True), f"{path}.dims"),
        )

    descs = []
    draws = _get(raw, "descriptors", "top level", required=True)
    for i, draw in enumerate(_typed(draws, "descriptors", list)):
        path = f"descriptors[{i}]"
        draw = _object(draw, path, (
            "data", "locality_type", "sharing", "pattern", "dtile_dims", "ctile_dims",
            "compute_data_map", "priority",
        ))
        ref = _typed(_get(draw, "data", path, required=True), f"{path}.data", str)
        if ref not in structures:
            raise ConfigError(f"{path}.data: unknown data structure {ref!r}")
        ltype = _enum(LocalityType, _get(draw, "locality_type", path, required=True), f"{path}.locality_type")
        sharing = _enum(SharingType, draw["sharing"], f"{path}.sharing") if "sharing" in draw else None
        descs.append(
            LocalityDescriptor(
                data=structures[ref],
                ltype=ltype,
                tiles=TileSemantics(
                    dtile_dims=_triple(_get(draw, "dtile_dims", path, required=True), f"{path}.dtile_dims"),
                    ctile_dims=_triple(_get(draw, "ctile_dims", path, required=True), f"{path}.ctile_dims"),
                    compute_data_map=_triple(
                        _get(draw, "compute_data_map", path, default=[1, 2, 3]),
                        f"{path}.compute_data_map",
                    ),
                ),
                pattern=_pattern(_get(draw, "pattern", path, required=True), f"{path}.pattern"),
                sharing=sharing,
                priority=_int(_get(draw, "priority", path, default=0), f"{path}.priority", 0),
            )
        )

    policy = _get(raw, "policy", "top level", default="ldesc")
    if policy not in POLICY_NAMES:
        raise ConfigError(f"policy: {policy!r} is not one of {list(POLICY_NAMES)}")
    placement = _get(raw, "placement", "top level", default="ldesc")
    if placement not in PLACEMENT_NAMES:
        raise ConfigError(
            f"placement: {placement!r} is not one of {list(PLACEMENT_NAMES)}"
        )

    try:
        ordered = validate_descriptor_set(descs, grid)
    except LdescError as exc:
        raise ConfigError(f"descriptors: {exc}") from None

    return ExperimentConfig(
        system=system,
        grid=grid,
        descs=ordered,
        policy=policy,
        placement=placement,
        seed=_int(_get(raw, "seed", "top level", default=1), "seed"),
    )


def load_config(path: str | Path, preset_override: str | None = None) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise undecodable(path, exc) from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except ValueError:
        raise ConfigError(f"{path}:{_long_int_line(text)}: {too_long_int()}") from None
    except RecursionError:
        raise ConfigError(f"{path}: {TOO_DEEP}") from None
    return parse_config(raw, preset_override)


def _long_int_line(text: str) -> int:
    """Line of the first integer in JSON ``text`` that is too long for int():
    strings are skipped whole, and a number token with a fraction or an
    exponent is a float, which has no digit limit."""
    limit = sys.get_int_max_str_digits()
    for m in re.finditer(r'"(?:[^"\\]|\\.)*"|-?[0-9][0-9.eE+-]*', text):
        digits = m[0].lstrip("-")
        if digits.isdigit() and len(digits) > limit:
            return text.count("\n", 0, m.start()) + 1
    return 1


def compose(cfg: ExperimentConfig):
    """Build (workload, policies, schedule, placement) for one experiment.

    Each descriptor keeps the insertion and prefetch levers that
    ``select_policies`` derives from it when the named policy keeps that
    lever. The placement comes first, then the schedule the policy names;
    ``clusters`` is round robin when no descriptor is inter-thread, and
    keeps each cluster next to its data under a placement plan.
    """
    try:
        schedule_kind, insertion, prefetch = POLICIES[cfg.policy]
    except KeyError:
        raise ConfigError(f"unknown policy {cfg.policy!r}") from None
    policies = tuple(
        DescriptorPolicy(
            p.insertion if insertion else InsertionClass.NORMAL,
            p.prefetch if prefetch else PrefetchKind.NONE,
        )
        for p in select_policies(cfg.descs)
    )
    workload = Workload(cfg.grid, cfg.descs, cfg.seed)
    grid, sms, zones = cfg.grid, cfg.system.sm_count, cfg.system.zone_count
    if zones == 1:
        placement = None
    elif cfg.placement == "ldesc":
        placement = place_and_partition(cfg.descs, grid, zones)
    elif cfg.placement == "xor":
        placement = xor_hash(zones)
    else:
        # first_touch prescribes its own distributed contiguous schedule;
        # pages are placed in-simulation at the zone of their first toucher.
        return workload, policies, distributed_schedule(grid, zones, sms), first_touch(zones)

    if schedule_kind == "clusters" and not any(
        d.ltype is LocalityType.INTER_THREAD for d in cfg.descs
    ):
        schedule_kind = "rr"
    if schedule_kind == "bcs":
        schedule = baseline_bcs(grid, sms)
    elif schedule_kind == "rr":
        schedule = baseline_round_robin(grid, sms)
    elif isinstance(placement, NumaPlan):
        cls = form_clusters(cfg.descs, grid, sms // zones)
        schedule = assign_clusters_by_zone(cls, grid, placement.cta_partition, sms, zones)
    else:
        schedule = assign_clusters(form_clusters(cfg.descs, grid, sms), grid, sms)
    return workload, policies, schedule, placement


def run_experiment(cfg: ExperimentConfig) -> SimMetrics:
    workload, policies, schedule, placement = compose(cfg)
    return simulate(workload, cfg.system, schedule, placement=placement, policies=policies)


def apply_axis(cfg: ExperimentConfig, axis: str, value: int) -> ExperimentConfig:
    """New config with one sweep axis changed."""
    if axis in ("sm_count", "zone_count") and value < 1:
        raise ConfigError(f"axis {axis}={value}: must be at least 1")
    if axis == "seed":
        return dataclasses.replace(cfg, seed=value)
    system = cfg.system
    if axis == "sm_count":
        system = dataclasses.replace(system, sm_count=value)
    elif axis == "zone_count":
        _check_zone_count(value, f"axis zone_count={value}: system.zone_count")
        system = dataclasses.replace(system, zone_count=value)
    elif axis in ("l1_capacity", "pin_reset_period"):
        field = "capacity" if axis == "l1_capacity" else axis
        try:
            l1 = dataclasses.replace(system.l1, **{field: value})
        except ValueError as exc:
            raise ConfigError(f"axis {axis}={value}: {exc}") from None
        system = dataclasses.replace(system, l1=l1)
    else:
        raise ConfigError(f"axis: {axis!r} is not one of {list(SWEEP_AXES)}")
    if system.sm_count % system.zone_count != 0:
        raise ConfigError(
            f"axis {axis}={value}: {system.sm_count} SMs do not divide into "
            f"{system.zone_count} zones"
        )
    return dataclasses.replace(cfg, system=system)
