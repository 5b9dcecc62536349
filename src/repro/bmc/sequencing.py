"""Declarative power sequencing (§4.2, after Schult et al. [60]).

"Given the precise thresholds and sequencing requirements of the system
components, finding a correct sequence and configuration for the 25
regulators requires non-trivial engineering.  To bring assurance to
this process, we developed a technique of declarative power sequencing
in which powering requirements are specified, and then a solver is used
to generate a provably correct sequence."

Here the requirements are :class:`RailRequirement` records, the solver
is a lexicographic topological sort (Kahn's algorithm over a heap of
ready rails) and :func:`verify_sequence` is the independent checker
that the generated (or any hand-written) sequence satisfies every
requirement.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence


class SequencingError(RuntimeError):
    """Unsatisfiable requirements or an invalid sequence."""


@dataclass(frozen=True)
class RailRequirement:
    """Declarative powering requirement for one rail.

    ``after`` lists rails that must be *live* before this one may be
    enabled.  ``settle_ms`` is the dwell after enabling before dependent
    rails may proceed (soft-start plus margin).
    """

    rail: str
    after: tuple[str, ...] = ()
    settle_ms: float = 10.0

    def __post_init__(self):
        # Written so that NaN fails too: a NaN dwell would turn the board
        # clock NaN and surface later as a bogus rail fault.
        if not 0 <= self.settle_ms < math.inf:
            raise ValueError(f"settle_ms must be non-negative and finite, got {self.settle_ms}")
        if self.rail in self.after:
            raise ValueError(f"rail {self.rail} cannot depend on itself")


def solve_sequence(requirements: Iterable[RailRequirement]) -> List[str]:
    """Generate a correct power-up order, or raise on cycles.

    Deterministic: ties broken lexicographically, so the output is a
    stable artifact that can be reviewed and version-controlled (as the
    real firmware's generated sequences are).
    """
    reqs = list(requirements)
    names = [r.rail for r in reqs]
    if len(set(names)) != len(names):
        raise SequencingError("duplicate rail in requirements")
    dependents: Dict[str, List[str]] = {name: [] for name in names}
    # Prerequisites not yet placed, per rail; one listed twice counts once.
    unmet: Dict[str, int] = {}
    for r in reqs:
        prerequisites = dict.fromkeys(r.after)
        for dep in prerequisites:
            if dep not in dependents:
                raise SequencingError(f"{r.rail} depends on unknown rail {dep!r}")
            dependents[dep].append(r.rail)
        unmet[r.rail] = len(prerequisites)
    # Names are unique, so the smallest ready name is the only tie-break.
    ready = [name for name in names if not unmet[name]]
    heapq.heapify(ready)
    order: List[str] = []
    while ready:
        rail = heapq.heappop(ready)
        order.append(rail)
        for dependent in dependents[rail]:
            unmet[dependent] -= 1
            if not unmet[dependent]:
                heapq.heappush(ready, dependent)
    if len(order) < len(names):
        cycle = _find_cycle(reqs, {rail for rail, n in unmet.items() if n})
        raise SequencingError(f"dependency cycle: {' -> '.join(cycle)}")
    return order


def _find_cycle(reqs: List[RailRequirement], blocked: set[str]) -> List[str]:
    """One cycle among the rails the sort could not place: each rail is
    a prerequisite of the next, and the first is repeated at the end.

    Every blocked rail has a blocked prerequisite, so walking
    prerequisites from any of them must revisit a rail.  The walk from
    that rail's first visit on is the cycle; the rails before it are
    only blocked behind it.
    """
    after = {r.rail: r.after for r in reqs}
    path: List[str] = []
    rail = min(blocked)
    while rail not in path:
        path.append(rail)
        rail = next(dep for dep in after[rail] if dep in blocked)
    cycle = path[path.index(rail):][::-1]
    return cycle + cycle[:1]


def verify_sequence(
    order: Sequence[str], requirements: Iterable[RailRequirement]
) -> None:
    """Check that ``order`` satisfies every requirement; raise otherwise.

    This is the independent checker: it must not share logic with the
    solver beyond the requirement records themselves.
    """
    reqs = {r.rail: r for r in requirements}
    position = {rail: i for i, rail in enumerate(order)}
    if len(position) != len(order):
        raise SequencingError("sequence repeats a rail")
    missing = set(reqs) - set(position)
    if missing:
        raise SequencingError(f"sequence omits rails: {sorted(missing)}")
    extra = set(position) - set(reqs)
    if extra:
        raise SequencingError(f"sequence contains unknown rails: {sorted(extra)}")
    for rail, req in reqs.items():
        for dep in req.after:
            if position[dep] >= position[rail]:
                raise SequencingError(
                    f"{rail} enabled before its prerequisite {dep}"
                )


def power_down_order(order: Sequence[str]) -> List[str]:
    """Power-down is the exact reverse of a correct power-up sequence."""
    return list(reversed(order))


# -- the Enzian power network ------------------------------------------------

#: Power domains, grouped as the power manager drives them.
COMMON_RAILS = (
    RailRequirement("12V_SB", settle_ms=20.0),
    RailRequirement("3V3_BMC", after=("12V_SB",), settle_ms=10.0),
    RailRequirement("1V8_BMC", after=("3V3_BMC",), settle_ms=5.0),
    RailRequirement("12V_MAIN", after=("12V_SB",), settle_ms=25.0),
    RailRequirement("5V_MAIN", after=("12V_MAIN",), settle_ms=10.0),
    RailRequirement("3V3_MAIN", after=("5V_MAIN",), settle_ms=10.0),
    RailRequirement("CLK_MAIN", after=("3V3_MAIN",), settle_ms=5.0),
)

CPU_RAILS = (
    RailRequirement("VDD_CORE", after=("12V_MAIN", "CLK_MAIN"), settle_ms=15.0),
    RailRequirement("VDD_09_CPU", after=("VDD_CORE",), settle_ms=5.0),
    RailRequirement("VDD_15_CPU", after=("VDD_09_CPU",), settle_ms=5.0),
    RailRequirement("VDD_DDRCPU01", after=("VDD_15_CPU",), settle_ms=10.0),
    RailRequirement("VTT_DDRCPU01", after=("VDD_DDRCPU01",), settle_ms=5.0),
    RailRequirement("VDD_DDRCPU23", after=("VDD_15_CPU",), settle_ms=10.0),
    RailRequirement("VTT_DDRCPU23", after=("VDD_DDRCPU23",), settle_ms=5.0),
    RailRequirement("VDD_CPU_IO", after=("VDD_15_CPU",), settle_ms=5.0),
)

FPGA_RAILS = (
    RailRequirement("VCCINT", after=("12V_MAIN", "CLK_MAIN"), settle_ms=20.0),
    RailRequirement("VCCINT_IO", after=("VCCINT",), settle_ms=5.0),
    RailRequirement("VCCBRAM", after=("VCCINT_IO",), settle_ms=5.0),
    RailRequirement("VCCAUX", after=("VCCBRAM",), settle_ms=5.0),
    RailRequirement("VCC1V8_FPGA", after=("VCCAUX",), settle_ms=5.0),
    RailRequirement("MGTAVCC", after=("VCCAUX",), settle_ms=10.0),
    RailRequirement("MGTAVTT", after=("MGTAVCC",), settle_ms=10.0),
    RailRequirement("VDD_DDRFPGA01", after=("VCC1V8_FPGA",), settle_ms=10.0),
    RailRequirement("VTT_DDRFPGA01", after=("VDD_DDRFPGA01",), settle_ms=5.0),
    RailRequirement("VDD_DDRFPGA23", after=("VCC1V8_FPGA",), settle_ms=10.0),
    RailRequirement("VTT_DDRFPGA23", after=("VDD_DDRFPGA23",), settle_ms=5.0),
)

ALL_RAILS: tuple[RailRequirement, ...] = COMMON_RAILS + CPU_RAILS + FPGA_RAILS
