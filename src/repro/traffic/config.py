"""The ``traffic`` section of the platform configuration tree.

A traffic scenario drives a rack the way production traffic drives a
serving system: a *population* of simulated users generates requests
through an open-loop arrival process (Poisson or a flash crowd), the
requests pass a *gateway* (admission control, batching, a cache
tier), and land on the fleet KVS or on accelerator-backed app models
(recsys embedding lookups, GBDT inference).

The section acts only once a :class:`repro.traffic.TrafficEngine` is
built from it: building an engine is the decision to run a scenario,
and a run that builds none carries no traffic machinery.  Determinism
is part of the contract -- every stochastic draw (arrival gaps, request
classes, key popularity) comes from the kernel-owned RNG, so one seed
pins the entire trace.  Every float knob must be finite, and each check
is written so that NaN fails it too: a NaN rate silently disables the
token bucket, and a NaN or infinite window never closes the arrival
source.

This module deliberately imports nothing from :mod:`repro.config` (the
tree imports *us*), mirroring :mod:`repro.fleet.config`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

#: Request-class kinds the engine knows how to execute.
CLASS_KINDS = ("kvs_put", "kvs_get", "recsys", "gbdt")

#: Arrival-process model names.
ARRIVAL_MODELS = ("poisson", "flash")


@dataclass(frozen=True)
class RequestClassConfig:
    """One request class in the workload mix.

    ``kind`` names how the engine executes it (``kvs_put``/``kvs_get``
    hit the rack's sharded KVS; ``recsys``/``gbdt`` run against the
    accelerator service-time models); ``weight`` is its share of the
    mix; ``slo_ns`` is the class's p99 latency objective, against which
    the SLO report judges attainment.
    """

    kind: str
    weight: float = 1.0
    slo_ns: float = 100_000.0

    def __post_init__(self):
        if self.kind not in CLASS_KINDS:
            raise ValueError(
                f"unknown request class kind {self.kind!r}; "
                f"known: {', '.join(CLASS_KINDS)}"
            )
        if not 0 < self.weight < math.inf:
            raise ValueError(
                f"class weight must be positive and finite, got {self.weight}"
            )
        if not 0 < self.slo_ns < math.inf:
            raise ValueError(f"slo_ns must be positive and finite, got {self.slo_ns}")


@dataclass(frozen=True)
class GatewayConfig:
    """The serving front-end in front of the rack.

    Admission control is a token bucket (sustained ``admit_rps`` with
    ``admit_burst`` headroom) followed by queue-depth shedding at
    ``max_queue_depth`` -- both produce *typed* rejections, counted per
    reason, rather than unbounded queueing.  Admitted requests are
    drained by ``workers`` backend processes in batches of up to
    ``batch_max`` (a short ``batch_window_ns`` wait lets a batch fill
    under load; ``batch_overhead_ns`` is the per-batch dispatch cost
    the batching amortizes).  A small LRU cache tier in front of the
    backends serves repeat reads at
    :data:`repro.traffic.gateway.CACHE_HIT_NS`.
    """

    #: Enforce the token bucket + shedding.  False = admit everything
    #: (the contrast case: flash crowds then violate the p99 SLO).
    admission: bool = True
    #: Sustained admitted request rate (requests per simulated second).
    admit_rps: float = 1_000_000.0
    #: Token-bucket burst capacity (requests).
    admit_burst: int = 256
    #: Queue-depth shed threshold (requests waiting for a backend).
    max_queue_depth: int = 512
    #: Backend worker processes draining the admitted queue.
    workers: int = 8
    #: Requests per backend batch (1 = no batching).
    batch_max: int = 8
    #: How long a worker waits for a short batch to fill (ns).
    batch_window_ns: float = 2_000.0
    #: Per-batch dispatch overhead (ns), amortized across the batch.
    batch_overhead_ns: float = 600.0
    #: LRU cache entries (0 disables the cache tier).
    cache_slots: int = 4096
    #: Gateway-level retry budget: tokens accrued per admitted request
    #: (Finagle-style).  A backend failure may be retried only while
    #: the budget holds a whole token, so retries are bounded to this
    #: fraction of admitted traffic and can never storm a struggling
    #: backend.  0 (the default) disables gateway retries.
    retry_budget: float = 0.0
    #: Max retry attempts per request (inert while ``retry_budget`` 0).
    retry_limit: int = 2
    #: Per-backend-shard circuit breakers: after
    #: ``breaker_failures`` consecutive failures against one shard the
    #: gateway sheds that shard's requests (typed ``breaker``
    #: rejections) for ``breaker_reset_ns``, then probes.
    breaker_enabled: bool = False
    breaker_failures: int = 5
    breaker_reset_ns: float = 2_000_000.0
    breaker_probes: int = 2

    def __post_init__(self):
        if not 0 < self.admit_rps < math.inf:
            raise ValueError(
                f"admit_rps must be positive and finite, got {self.admit_rps}"
            )
        if self.admit_burst < 1:
            raise ValueError(f"admit_burst must be >= 1, got {self.admit_burst}")
        if self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {self.batch_max}")
        if not 0 <= self.batch_window_ns < math.inf:
            raise ValueError(
                f"batch_window_ns must be non-negative and finite, "
                f"got {self.batch_window_ns}"
            )
        if not 0 <= self.batch_overhead_ns < math.inf:
            raise ValueError(
                f"batch_overhead_ns must be non-negative and finite, "
                f"got {self.batch_overhead_ns}"
            )
        if self.cache_slots < 0:
            raise ValueError(f"cache_slots must be >= 0, got {self.cache_slots}")
        if not 0 <= self.retry_budget <= 1:
            raise ValueError(
                f"retry_budget must be in [0, 1], got {self.retry_budget}"
            )
        if self.retry_limit < 1:
            raise ValueError(f"retry_limit must be >= 1, got {self.retry_limit}")
        if self.breaker_failures < 1:
            raise ValueError(
                f"breaker_failures must be >= 1, got {self.breaker_failures}"
            )
        if not 0 < self.breaker_reset_ns < math.inf:
            raise ValueError(
                f"breaker_reset_ns must be positive and finite, "
                f"got {self.breaker_reset_ns}"
            )
        if self.breaker_probes < 1:
            raise ValueError(f"breaker_probes must be >= 1, got {self.breaker_probes}")


def _default_classes() -> Tuple[RequestClassConfig, ...]:
    return (
        RequestClassConfig("kvs_put", weight=1.0, slo_ns=150_000.0),
        RequestClassConfig("kvs_get", weight=6.0, slo_ns=100_000.0),
        RequestClassConfig("recsys", weight=2.0, slo_ns=100_000.0),
        RequestClassConfig("gbdt", weight=1.0, slo_ns=100_000.0),
    )


@dataclass(frozen=True)
class TrafficConfig:
    """Arrival process, workload mix, and gateway knobs."""

    #: Simulated user population.  Open-loop arrivals scale with it
    #: (rate = ``users * per_user_rps``); keys are drawn from it.
    users: int = 10_000
    #: Per-user request rate (requests per simulated second).
    per_user_rps: float = 0.5
    #: Scenario length (ns of simulated time); arrivals stop here and
    #: in-flight requests drain.
    duration_ns: float = 20_000_000.0
    #: Arrival model: "poisson" (homogeneous) or "flash" (rate
    #: multiplier inside a window).
    arrival: str = "poisson"
    #: Flash crowd: rate is multiplied by ``flash_multiplier`` inside
    #: [flash_at_ns, flash_at_ns + flash_duration_ns).
    flash_at_ns: float = 8_000_000.0
    flash_duration_ns: float = 4_000_000.0
    flash_multiplier: float = 6.0
    #: Distinct KVS keys the population maps onto (bounded working
    #: set; a shard's hash table must hold its share).
    key_space: int = 2048
    #: Key-popularity skew: a request's key index is
    #: ``int(key_space * u**key_skew)`` for uniform u -- higher skew
    #: concentrates traffic on hot keys (what makes the cache tier
    #: earn its keep).  1.0 = uniform.
    key_skew: float = 2.0
    #: The workload mix.
    classes: Tuple[RequestClassConfig, ...] = field(
        default_factory=_default_classes
    )
    #: The serving front-end.
    gateway: GatewayConfig = field(default_factory=GatewayConfig)

    def __post_init__(self):
        if self.users < 1:
            raise ValueError(f"users must be >= 1, got {self.users}")
        if not 0 < self.per_user_rps < math.inf:
            raise ValueError(
                f"per_user_rps must be positive and finite, got {self.per_user_rps}"
            )
        if not 0 < self.duration_ns < math.inf:
            raise ValueError(
                f"duration_ns must be positive and finite, got {self.duration_ns}"
            )
        if self.arrival not in ARRIVAL_MODELS:
            raise ValueError(
                f"unknown arrival model {self.arrival!r}; "
                f"known: {', '.join(ARRIVAL_MODELS)}"
            )
        if not 0 <= self.flash_at_ns < math.inf:
            raise ValueError(
                f"flash_at_ns must be non-negative and finite, got {self.flash_at_ns}"
            )
        if not 0 < self.flash_duration_ns < math.inf:
            raise ValueError(
                f"flash_duration_ns must be positive and finite, "
                f"got {self.flash_duration_ns}"
            )
        if not 1 <= self.flash_multiplier < math.inf:
            raise ValueError(
                f"flash_multiplier must be >= 1 and finite, "
                f"got {self.flash_multiplier}"
            )
        if self.key_space < 1:
            raise ValueError(f"key_space must be >= 1, got {self.key_space}")
        if not 1 <= self.key_skew < math.inf:
            raise ValueError(f"key_skew must be >= 1 and finite, got {self.key_skew}")
        if not self.classes:
            raise ValueError("classes must name at least one request class")
        kinds = [c.kind for c in self.classes]
        if len(kinds) != len(set(kinds)):
            raise ValueError(f"duplicate request class kinds: {kinds}")

    @property
    def base_rate_per_ns(self) -> float:
        """The base arrival rate in requests per ns."""
        return self.users * self.per_user_rps / 1e9

