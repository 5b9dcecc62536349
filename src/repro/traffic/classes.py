"""Request classes: what one production request *is*.

Each class maps onto a real app model already in the tree:

* ``kvs_put`` / ``kvs_get`` execute against the rack's sharded KVS
  through :class:`repro.fleet.kvs.FleetKvsClient` -- real frames, real
  shard service times, real failover semantics;
* ``recsys`` is a DLRM-style embedding lookup: its service time is the
  steady-state per-request latency of
  :class:`repro.apps.recsys.RecsysAccelerator` with tables in FPGA
  DRAM (the placement the paper argues for);
* ``gbdt`` is decision-tree inference: its service time comes from the
  Figure-9 Enzian engine model (compute- or bandwidth-bound streaming
  throughput) for one small request batch.

Deriving service times from the app models -- instead of inventing
numbers -- keeps the traffic engine honest: speed up the accelerator
model and the serving scenario gets faster with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .config import TrafficConfig

#: Tuples per GBDT inference request (a small scoring batch, far below
#: the 64 KB streaming batches of the throughput experiment).
GBDT_REQUEST_TUPLES = 32

#: Bytes of a put's value payload (a small user-profile record).
PUT_VALUE_BYTES = 64


def recsys_service_ns() -> float:
    """Per-request service time of the FPGA-resident recsys engine."""
    from ..apps.recsys import (
        EmbeddingModel,
        RecsysAccelerator,
        enzian_fpga_placement,
    )

    # Throughput depends on table count/dim and placement, not rows;
    # keep the functional tables tiny so construction stays cheap.
    model = EmbeddingModel(n_tables=8, rows_per_table=64, dim=64, seed=0)
    accel = RecsysAccelerator(model, enzian_fpga_placement())
    return 1e9 / accel.requests_per_s()


def gbdt_service_ns(tuples: int = GBDT_REQUEST_TUPLES) -> float:
    """Service time of one GBDT scoring request on the Enzian engine."""
    from ..apps.gbdt.accel import CYCLES_PER_TUPLE, FIGURE9_PLATFORMS, TUPLE_BYTES

    platform = FIGURE9_PLATFORMS["Enzian"]
    compute = platform.clock_mhz * 1e6 * platform.max_engines / CYCLES_PER_TUPLE
    bandwidth = platform.host_bandwidth_gbps * 1e9 / TUPLE_BYTES
    return tuples / min(compute, bandwidth) * 1e9


@dataclass(frozen=True)
class RequestClass:
    """One executable request class (resolved from its config entry)."""

    kind: str
    weight: float
    slo_ns: float
    #: Backend service time for accelerator classes (0 = rack KVS op).
    service_ns: float
    #: May the gateway cache tier answer this class?
    cacheable: bool


def build_classes(config: TrafficConfig) -> List[RequestClass]:
    """Resolve the config's mix into executable classes."""
    resolved = []
    for entry in config.classes:
        service = 0.0
        if entry.kind == "recsys":
            service = recsys_service_ns()
        elif entry.kind == "gbdt":
            service = gbdt_service_ns()
        resolved.append(
            RequestClass(
                kind=entry.kind,
                weight=entry.weight,
                slo_ns=entry.slo_ns,
                service_ns=service,
                cacheable=entry.kind in ("kvs_get", "recsys"),
            )
        )
    return resolved


class Request:
    """One request in flight through the gateway."""

    __slots__ = ("cls", "key", "value", "phase", "submitted_ns", "outcome")

    def __init__(
        self,
        cls: RequestClass,
        key: bytes,
        value: bytes,
        phase: str,
        submitted_ns: float,
    ):
        self.cls = cls
        self.key = key
        self.value = value
        self.phase = phase
        self.submitted_ns = submitted_ns
        #: "served" | "cache_hit" | "rejected:<reason>" | "error" | "".
        self.outcome = ""


class RequestSampler:
    """Draws (class, user, key) triples from the kernel RNG.

    Class choice is weight-proportional; the user id is uniform over
    the population; the key index applies the configured popularity
    skew (``int(key_space * u**key_skew)``), so a larger ``key_skew``
    concentrates load -- and cache hits -- on a hot subset.
    """

    def __init__(self, config: TrafficConfig, classes: List[RequestClass]):
        self.config = config
        self.classes = classes
        self._cumulative: List[Tuple[float, RequestClass]] = []
        total = 0.0
        for cls in classes:
            total += cls.weight
            self._cumulative.append((total, cls))
        self._total_weight = total

    def sample(self, kernel, phase: str) -> Request:
        rng = kernel.rng
        pick = rng.random() * self._total_weight
        cls = self._cumulative[-1][1]
        for bound, candidate in self._cumulative:
            if pick < bound:
                cls = candidate
                break
        uid = int(rng.random() * self.config.users)
        if cls.kind in ("kvs_put", "kvs_get"):
            index = int(self.config.key_space * rng.random() ** self.config.key_skew)
            index = min(index, self.config.key_space - 1)
            key = b"u:%06d" % index
        else:
            # Accelerator classes cache per user (embedding results).
            key = b"%s:%08d" % (cls.kind.encode(), uid)
        value = b""
        if cls.kind == "kvs_put":
            value = (b"p%07d" % (uid % 10_000_000)) * (PUT_VALUE_BYTES // 8)
        return Request(cls, key, value, phase, kernel.now)
