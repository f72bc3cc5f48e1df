"""Shared builders for descriptor-based tests."""

import pytest
from hypothesis import Phase, settings

from ldesc_sim import (
    AccessPattern,
    CtaGrid,
    DataStructureRef,
    LocalityDescriptor,
    LocalityType,
    SharingType,
    TileSemantics,
)

# CI runs with --hypothesis-profile=ci, so that a property draws the same
# examples on every run; local runs stay random.
settings.register_profile("ci", derandomize=True, deadline=None)
# tests/mutants.py runs the ci draws without shrinking: a mutant is caught by
# any failing draw, and shrinking one through the reference engine is slow.
settings.register_profile(
    "mutants", settings.get_profile("ci"),
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)


def make_desc(
    name="a",
    base=0,
    elem=4,
    data_dims=(5120, 1, 1),
    ltype=LocalityType.INTER_THREAD,
    sharing=SharingType.COACCESSED,
    pattern=None,
    dtile=(1024, 1, 1),
    ctile=(1, 8, 1),
    cdmap=(1, 0, 0),
    priority=0,
):
    if pattern is None:
        pattern = AccessPattern.regular_stride(128)
    if ltype is not LocalityType.INTER_THREAD:
        sharing = None
    return LocalityDescriptor(
        data=DataStructureRef(name, base, elem, data_dims),
        ltype=ltype,
        tiles=TileSemantics(dtile, ctile, cdmap),
        pattern=pattern,
        sharing=sharing,
        priority=priority,
    )


@pytest.fixture
def histo_grid():
    return CtaGrid((5, 8, 1))


@pytest.fixture
def histo_desc():
    return make_desc()
