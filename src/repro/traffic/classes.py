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
    """Per-request service time of the FPGA-resident recsys engine
    (eight 64-wide tables), priced from the model's shape alone."""
    from ..apps.recsys import engine_requests_per_s, enzian_fpga_placement

    return 1e9 / engine_requests_per_s(8, 64, enzian_fpga_placement())


def gbdt_service_ns(tuples: int = GBDT_REQUEST_TUPLES) -> float:
    """Service time of one GBDT scoring request on the Enzian engine."""
    from ..apps.gbdt.accel import FIGURE9_PLATFORMS, streaming_tuples_per_s

    platform = FIGURE9_PLATFORMS["Enzian"]
    return tuples / streaming_tuples_per_s(platform, platform.max_engines) * 1e9


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

    __slots__ = ("cls", "key", "value", "phase", "submitted_ns")

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


class RequestSampler:
    """Draws (class, user, key) triples from the kernel RNG.

    Class choice is weight-proportional; the user id is uniform over
    the population; the key index applies the configured popularity
    skew (``int(key_space * u**key_skew)``), so a larger ``key_skew``
    concentrates load -- and cache hits -- on a hot subset.

    Everything that does not depend on a draw is built once: every KVS
    key (``b"u:%06d" % index``), and each class's kind checks and key
    prefix.
    """

    def __init__(self, config: TrafficConfig, classes: List[RequestClass]):
        self.config = config
        self.classes = classes
        #: (cumulative weight, class, is KVS, is put, accelerator key prefix).
        self._cumulative: List[Tuple[float, RequestClass, bool, bool, bytes]] = []
        total = 0.0
        for cls in classes:
            total += cls.weight
            kvs = cls.kind in ("kvs_put", "kvs_get")
            self._cumulative.append(
                (total, cls, kvs, cls.kind == "kvs_put", cls.kind.encode())
            )
        self._total_weight = total
        self._kvs_keys: List[bytes] = []
        if any(entry[2] for entry in self._cumulative):
            self._kvs_keys = [b"u:%06d" % index for index in range(config.key_space)]

    def sample(self, kernel, phase: str) -> Request:
        random = kernel.rng.random
        config = self.config
        pick = random() * self._total_weight
        for entry in self._cumulative:
            if pick < entry[0]:
                break
        # No break: the last class, whatever rounding left in ``pick``.
        _, cls, kvs, put, prefix = entry
        uid = int(random() * config.users)
        if kvs:
            index = int(config.key_space * random() ** config.key_skew)
            index = min(index, config.key_space - 1)
            key = self._kvs_keys[index]
        else:
            # Accelerator classes cache per user (embedding results).
            key = b"%s:%08d" % (prefix, uid)
        value = b""
        if put:
            value = (b"p%07d" % (uid % 10_000_000)) * (PUT_VALUE_BYTES // 8)
        return Request(cls, key, value, phase, kernel.now)
