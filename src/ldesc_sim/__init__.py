"""Locality-descriptor-driven GPU locality simulator.

A library plus CLI for studying how per-data-structure locality
declarations drive CTA cluster scheduling, cache insertion policy,
guided prefetching and NUMA data placement on a desk-scale model.
"""

from .cache import AccessOutcome, CacheConfig, CacheModel, InsertionClass
from .descriptor import (
    AccessPattern,
    DataStructureRef,
    LocalityDescriptor,
    LocalityType,
    SharingType,
    TileSemantics,
    ctile_count,
    dtile_count,
    validate_descriptor_set,
)
from .engine import (
    AccessEvent,
    Latencies,
    PolicySet,
    SimMetrics,
    SystemConfig,
    Workload,
    generate_accesses,
    normal_policies,
    preset,
    select_policies,
    simulate,
    working_set,
)
from .grid import (
    CtaGrid,
    TileIndex,
    TileTable,
    ctile_of_cta,
    dtile_byte_runs,
    dtile_of_ctile,
)
from .numa import (
    NumaPlan,
    ZoneMapping,
    baseline_first_touch,
    comp_util,
    numa_part,
    place_and_partition,
    zone_of_address,
)
from .prefetch import PrefetchKind, StreamState
from .sched import (
    ClusterDims,
    Schedule,
    assign_clusters,
    assign_clusters_by_zone,
    baseline_bcs,
    baseline_round_robin,
    form_clusters,
)

__version__ = "0.1.0"

__all__ = [
    "AccessEvent",
    "AccessOutcome",
    "AccessPattern",
    "CacheConfig",
    "CacheModel",
    "ClusterDims",
    "CtaGrid",
    "DataStructureRef",
    "InsertionClass",
    "Latencies",
    "LocalityDescriptor",
    "LocalityType",
    "NumaPlan",
    "PolicySet",
    "PrefetchKind",
    "Schedule",
    "SharingType",
    "SimMetrics",
    "StreamState",
    "SystemConfig",
    "TileIndex",
    "TileSemantics",
    "TileTable",
    "Workload",
    "ZoneMapping",
    "assign_clusters",
    "assign_clusters_by_zone",
    "baseline_bcs",
    "baseline_first_touch",
    "baseline_round_robin",
    "comp_util",
    "ctile_count",
    "ctile_of_cta",
    "dtile_byte_runs",
    "dtile_count",
    "dtile_of_ctile",
    "form_clusters",
    "generate_accesses",
    "normal_policies",
    "numa_part",
    "place_and_partition",
    "preset",
    "select_policies",
    "simulate",
    "validate_descriptor_set",
    "working_set",
    "zone_of_address",
]
