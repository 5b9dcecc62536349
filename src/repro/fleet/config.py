"""The ``fleet`` section of the platform configuration tree.

A fleet is a *rack* of simulated Enzians: ``machines`` boards attached
to one multi-port switch and serving a sharded key-value store with
``replication_factor`` copies of every key placed by a consistent-hash
ring (:data:`VNODES` virtual nodes per machine).  The write and read
quorums are not knobs: they are derived majorities of the replication
factor (:attr:`FleetConfig.write_quorum`, :attr:`FleetConfig.read_quorum`).
The rack's wire and service timings are not knobs either: no preset,
example or benchmark ever set them, so they are the module constants
below, shared by the rack, its clients and single-board replay.

The section acts only once a :class:`repro.fleet.rack.Rack` is built
from it: building a rack is the decision to run one, and a run that
builds none carries no rack machinery.  Determinism is part of the
contract -- ``seed`` pins the rack's kernel RNG, and an identical
``(seed, FleetConfig)`` pair must reproduce bit-identical metrics.
The anti-entropy interval must be finite, and its check is written so
that NaN fails it too: a NaN gap would otherwise surface mid-run as a
kernel scheduling error.

This module deliberately imports nothing from :mod:`repro.config` (the
tree imports *us*).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: Virtual nodes per machine on the consistent-hash ring.
VNODES = 64
#: Per-port line rate into the rack switch (the FPGA-side 100 GbE).
LINK_GBPS = 100.0
#: One-way propagation per link (ns).
LINK_PROPAGATION_NS = 500.0
#: Store-and-forward latency of the rack switch (ns).
SWITCH_FORWARDING_NS = 300.0
#: Per-request service time on a shard server (hash + DRAM access, the
#: FPGA KVS pipeline's initiation interval at depth).
SERVICE_NS = 900.0
#: Client-side request timeout before placement is re-resolved and the
#: request retried (the failover detection latency).
REQUEST_TIMEOUT_NS = 60_000.0


@dataclass(frozen=True)
class AntiEntropyConfig:
    """Background Merkle-tree replica synchronization.

    Read by an :class:`repro.fleet.antientropy.AntiEntropyScheduler`,
    which, once started, periodically compares every live replica
    pair's shared key ranges via hash trees and pushes apply-iff-newer
    repairs for divergent ranges, so convergence after heals and
    rejoins no longer rides on reads or hinted handoff.  A rack that
    builds no scheduler runs no pass.
    """

    #: Gap between background passes (ns of simulated time).
    interval_ns: float = 1_000_000.0

    def __post_init__(self):
        # Written so that NaN fails too; an infinite gap would park the
        # first tick at t = inf.
        if not 0 < self.interval_ns < math.inf:
            raise ValueError(
                f"interval_ns must be positive and finite, got {self.interval_ns}"
            )


@dataclass(frozen=True)
class FleetConfig:
    """Rack size, replication, retry and store-size knobs."""

    #: Boards in the rack.
    machines: int = 2
    #: Copies of every key (1 = no replication).  A write is acked at
    #: a majority of them (:attr:`write_quorum`), so a single machine
    #: failure never loses an acknowledged write when this is >= 2.
    replication_factor: int = 1
    #: Queue a hinted handoff on an acked replica for every placement
    #: target that missed a quorum write, drained when the partition
    #: heals.  Inert while ``write_quorum == replication_factor`` (a
    #: full-set ack never has a missing target).
    hinted_handoff: bool = True
    #: Bounded retries per request after timeouts.
    max_retries: int = 4
    #: Slots in each machine's local hash-table shard.
    kvs_slots: int = 4096
    #: Seed for the rack's simulation kernel (all stochastic draws).
    seed: int = 0xF1EE7
    #: Background Merkle-tree replica synchronization (acts only once an
    #: :class:`repro.fleet.antientropy.AntiEntropyScheduler` is built).
    anti_entropy: AntiEntropyConfig = field(default_factory=AntiEntropyConfig)

    def __post_init__(self):
        if self.machines < 2:
            raise ValueError(
                f"machines must be >= 2 (a rack is at least a pair), "
                f"got {self.machines}"
            )
        if not 1 <= self.replication_factor <= self.machines:
            raise ValueError(
                f"replication_factor must be in 1..{self.machines} (machines), "
                f"got {self.replication_factor}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.kvs_slots < 8:
            raise ValueError(f"kvs_slots must be >= 8, got {self.kvs_slots}")

    @property
    def write_quorum(self) -> int:
        """Acks that commit a put/delete: a strict majority of the
        replication factor, so two disjoint write quorums can never both
        commit the same key under a partition."""
        return self.replication_factor // 2 + 1

    @property
    def read_quorum(self) -> int:
        """Responses that commit a get: the fewest that still intersect
        every write quorum (``write_quorum + read_quorum > rf``)."""
        return self.replication_factor - self.write_quorum + 1

    def machine_names(self) -> tuple[str, ...]:
        """The rack's board names, in rack-slot order."""
        return tuple(f"enzian{i}" for i in range(self.machines))
