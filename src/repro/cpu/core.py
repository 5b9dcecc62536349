"""In-order core timing model.

The ThunderX-1 trades single-thread performance for parallelism ("it is
mostly in-order", §3).  An in-order core cannot hide load misses behind
other work, so core time decomposes cleanly into compute cycles plus
memory stall cycles -- exactly the structure the paper exploits when it
attributes the §5.4 speedups to removed remote-L2 refills.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..params import CoreParams
from .pmu import PmuCounters


@dataclass(frozen=True)
class WorkloadSlice:
    """A unit of work characterized by instruction and memory behaviour."""

    instructions: int
    l1_accesses: int
    l1_miss_rate: float
    l2_local_fraction: float = 1.0   # of L1 misses, fraction served locally
    l2_miss_rate: float = 0.0        # of L2 accesses, fraction going to DRAM

    def __post_init__(self):
        for name in ("l1_miss_rate", "l2_local_fraction", "l2_miss_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class ExecutionResult:
    cycles: float
    compute_cycles: float
    stall_cycles: float
    l1_refills: float

    @property
    def stall_fraction(self) -> float:
        return self.stall_cycles / self.cycles if self.cycles else 0.0


class InOrderCore:
    """Executes workload slices, accumulating PMU counters."""

    def __init__(self, params: CoreParams | None = None, core_id: int = 0):
        self.params = params or CoreParams()
        self.core_id = core_id
        self.pmu = PmuCounters()

    def execute(self, work: WorkloadSlice) -> ExecutionResult:
        """Time a slice and update the PMU."""
        p = self.params
        compute = work.instructions / p.ipc_peak
        l1_misses = work.l1_accesses * work.l1_miss_rate
        local = l1_misses * work.l2_local_fraction
        remote = l1_misses - local
        dram = local * work.l2_miss_rate
        l2_hits = local - dram
        stall = (
            l2_hits * p.l2_hit_cycles
            + dram * p.local_dram_cycles
            + remote * p.remote_refill_cycles
        )
        cycles = compute + stall
        self.pmu.add("cycles", round(cycles))
        self.pmu.add("instructions_retired", work.instructions)
        self.pmu.add("memory_stall_cycles", round(stall))
        self.pmu.add("l1_refills", round(l1_misses))
        self.pmu.add("l2_refills_local", round(dram))
        self.pmu.add("l2_refills_remote", round(remote))
        return ExecutionResult(
            cycles=cycles,
            compute_cycles=compute,
            stall_cycles=stall,
            l1_refills=l1_misses,
        )

    def cycles_to_ns(self, cycles: float) -> float:
        return cycles * self.params.cycle_ns
