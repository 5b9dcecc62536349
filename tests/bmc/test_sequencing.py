"""Tests for declarative power sequencing."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.bmc import (
    ALL_RAILS,
    RailRequirement,
    SequencingError,
    power_down_order,
    solve_sequence,
    verify_sequence,
)


def test_simple_chain():
    reqs = [
        RailRequirement("a"),
        RailRequirement("b", after=("a",)),
        RailRequirement("c", after=("b",)),
    ]
    assert solve_sequence(reqs) == ["a", "b", "c"]


def test_diamond_dependency():
    reqs = [
        RailRequirement("root"),
        RailRequirement("left", after=("root",)),
        RailRequirement("right", after=("root",)),
        RailRequirement("sink", after=("left", "right")),
    ]
    order = solve_sequence(reqs)
    verify_sequence(order, reqs)
    assert order[0] == "root"
    assert order[-1] == "sink"


def test_solver_is_deterministic():
    reqs = [RailRequirement(n) for n in ("z", "m", "a")]
    assert solve_sequence(reqs) == ["a", "m", "z"]
    assert solve_sequence(reversed(reqs)) == ["a", "m", "z"]


def test_cycle_detected():
    # r1 and r2 form the cycle; r0 is only blocked behind it.  The names
    # avoid letters of the word "cycle", and the blocked rail sorts first.
    reqs = [
        RailRequirement("r0", after=("r1",)),
        RailRequirement("r1", after=("r2",)),
        RailRequirement("r2", after=("r1",)),
    ]
    with pytest.raises(SequencingError, match="cycle") as err:
        solve_sequence(reqs)
    message = str(err.value)
    assert "r1" in message and "r2" in message
    assert "r0" not in message


def test_unknown_dependency_detected():
    with pytest.raises(SequencingError, match="unknown"):
        solve_sequence([RailRequirement("a", after=("ghost",))])


def test_duplicate_rail_detected():
    with pytest.raises(SequencingError, match="duplicate"):
        solve_sequence([RailRequirement("a"), RailRequirement("a")])


def test_self_dependency_rejected_at_declaration():
    with pytest.raises(ValueError):
        RailRequirement("a", after=("a",))


def test_negative_settle_rejected():
    for settle_ms in (-1, math.nan, math.inf):
        with pytest.raises(ValueError):
            RailRequirement("a", settle_ms=settle_ms)


#: The Enzian power-up order: a reviewed, version-controlled artifact.
ENZIAN_ORDER = [
    "12V_SB", "12V_MAIN", "3V3_BMC", "1V8_BMC", "5V_MAIN", "3V3_MAIN",
    "CLK_MAIN", "VCCINT", "VCCINT_IO", "VCCBRAM", "VCCAUX", "MGTAVCC",
    "MGTAVTT", "VCC1V8_FPGA", "VDD_CORE", "VDD_09_CPU", "VDD_15_CPU",
    "VDD_CPU_IO", "VDD_DDRCPU01", "VDD_DDRCPU23", "VDD_DDRFPGA01",
    "VDD_DDRFPGA23", "VTT_DDRCPU01", "VTT_DDRCPU23", "VTT_DDRFPGA01",
    "VTT_DDRFPGA23",
]


def test_enzian_order_is_pinned():
    assert solve_sequence(ALL_RAILS) == ENZIAN_ORDER
    assert solve_sequence(reversed(ALL_RAILS)) == ENZIAN_ORDER


def test_verify_accepts_solver_output_for_enzian():
    order = solve_sequence(ALL_RAILS)
    verify_sequence(order, ALL_RAILS)
    assert len(order) == len(ALL_RAILS)


def test_verify_rejects_wrong_order():
    reqs = [RailRequirement("a"), RailRequirement("b", after=("a",))]
    with pytest.raises(SequencingError, match="prerequisite"):
        verify_sequence(["b", "a"], reqs)


def test_verify_rejects_missing_rail():
    reqs = [RailRequirement("a"), RailRequirement("b")]
    with pytest.raises(SequencingError, match="omits"):
        verify_sequence(["a"], reqs)


def test_verify_rejects_unknown_rail():
    with pytest.raises(SequencingError, match="unknown"):
        verify_sequence(["a", "x"], [RailRequirement("a")])


def test_verify_rejects_duplicates():
    with pytest.raises(SequencingError, match="repeats"):
        verify_sequence(["a", "a"], [RailRequirement("a")])


def test_power_down_is_reverse():
    order = solve_sequence(ALL_RAILS)
    assert power_down_order(order) == order[::-1]


def test_enzian_standby_comes_first_core_rails_late():
    order = solve_sequence(ALL_RAILS)
    assert order[0] == "12V_SB"
    assert order.index("VDD_CORE") > order.index("12V_MAIN")
    assert order.index("VTT_DDRCPU01") > order.index("VDD_DDRCPU01")
    assert order.index("MGTAVTT") > order.index("MGTAVCC")


@st.composite
def random_dags(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    # Shuffled names, so dependency order and name order disagree.
    names = draw(st.permutations([f"r{i}" for i in range(n)]))
    reqs = []
    for i, name in enumerate(names):
        # Only depend on earlier rails: guarantees acyclicity.  A
        # prerequisite may be listed twice.
        deps = draw(st.lists(st.sampled_from(names[:i]), max_size=3)) if i else []
        reqs.append(RailRequirement(name, after=tuple(deps)))
    return reqs


@given(random_dags())
def test_solver_output_always_verifies(reqs):
    order = solve_sequence(reqs)
    verify_sequence(order, reqs)
    # Lexicographic minimality: each rail is the smallest name whose
    # prerequisites all come earlier.
    after = {r.rail: set(r.after) for r in reqs}
    for i, rail in enumerate(order):
        done = set(order[:i])
        ready = [r for r in after if r not in done and after[r] <= done]
        assert rail == min(ready)
