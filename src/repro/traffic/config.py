"""The ``traffic`` section of the platform configuration tree.

A traffic scenario drives a rack the way production traffic drives a
serving system: a *population* of simulated users generates requests
through an open-loop arrival process (Poisson or a flash crowd), the
requests pass a *gateway* (admission control, batching, a cache
tier), and land on the fleet KVS or on accelerator-backed app models
(recsys embedding lookups, GBDT inference).

Like ``faults``, ``health``, and ``fleet``, the section is *off by
default* and zero-cost when off: with ``enabled = False`` no traffic
machinery is constructed anywhere and every existing scenario is
bit-identical to a build without this package.  Determinism is part of
the contract -- every stochastic draw (arrival gaps, request classes,
key popularity) comes from the kernel-owned RNG, so one seed pins the
entire trace.

This module deliberately imports nothing from :mod:`repro.config` (the
tree imports *us*), mirroring :mod:`repro.fleet.config`.
"""

from __future__ import annotations

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
        if self.weight <= 0:
            raise ValueError(f"class weight must be positive, got {self.weight}")
        if self.slo_ns <= 0:
            raise ValueError(f"slo_ns must be positive, got {self.slo_ns}")


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
    backends serves repeat reads at ``cache_hit_ns``.
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
    #: Service time of a cache hit (ns).
    cache_hit_ns: float = 1_500.0
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
        if self.admit_rps <= 0:
            raise ValueError(f"admit_rps must be positive, got {self.admit_rps}")
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
        if self.batch_window_ns < 0:
            raise ValueError("batch_window_ns must be non-negative")
        if self.batch_overhead_ns < 0:
            raise ValueError("batch_overhead_ns must be non-negative")
        if self.cache_slots < 0:
            raise ValueError(f"cache_slots must be >= 0, got {self.cache_slots}")
        if self.cache_hit_ns <= 0:
            raise ValueError(f"cache_hit_ns must be positive, got {self.cache_hit_ns}")
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
        if self.breaker_reset_ns <= 0:
            raise ValueError("breaker_reset_ns must be positive")
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

    #: Build traffic machinery at all?  False = the section is inert.
    enabled: bool = False
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
        if self.per_user_rps <= 0:
            raise ValueError(
                f"per_user_rps must be positive, got {self.per_user_rps}"
            )
        if self.duration_ns <= 0:
            raise ValueError(f"duration_ns must be positive, got {self.duration_ns}")
        if self.arrival not in ARRIVAL_MODELS:
            raise ValueError(
                f"unknown arrival model {self.arrival!r}; "
                f"known: {', '.join(ARRIVAL_MODELS)}"
            )
        if self.flash_at_ns < 0:
            raise ValueError("flash_at_ns must be non-negative")
        if self.flash_duration_ns <= 0:
            raise ValueError("flash_duration_ns must be positive")
        if self.flash_multiplier < 1:
            raise ValueError(
                f"flash_multiplier must be >= 1, got {self.flash_multiplier}"
            )
        if self.key_space < 1:
            raise ValueError(f"key_space must be >= 1, got {self.key_space}")
        if self.key_skew < 1:
            raise ValueError(f"key_skew must be >= 1, got {self.key_skew}")
        if not self.classes:
            raise ValueError("classes must name at least one request class")
        kinds = [c.kind for c in self.classes]
        if len(kinds) != len(set(kinds)):
            raise ValueError(f"duplicate request class kinds: {kinds}")

    @property
    def base_rate_per_ns(self) -> float:
        """The base arrival rate in requests per ns."""
        return self.users * self.per_user_rps / 1e9


# -- traffic presets -------------------------------------------------------

def _steady() -> TrafficConfig:
    """A homogeneous Poisson mix well under capacity."""
    return TrafficConfig(enabled=True)


def _flash_crowd() -> TrafficConfig:
    """A 6x flash crowd mid-run -- the admission-control stress."""
    return TrafficConfig(enabled=True, arrival="flash")


def _million_users() -> TrafficConfig:
    """The headline scenario: a million simulated users open-loop,
    flash crowd mid-run.  The base rate sits comfortably under one
    rack's capacity; the 10x crowd pushes the offered rate well past
    it, so the run demonstrates what admission control is *for* --
    without the gateway's token bucket the backend queue grows without
    bound for the whole window and the flash-phase p99 blows through
    every class SLO."""
    return TrafficConfig(
        enabled=True,
        users=1_000_000,
        per_user_rps=0.75,
        duration_ns=24_000_000.0,
        arrival="flash",
        flash_at_ns=10_000_000.0,
        flash_duration_ns=6_000_000.0,
        flash_multiplier=10.0,
        gateway=GatewayConfig(admit_rps=1_100_000.0),
    )


_TRAFFIC_PRESETS = {
    "steady": _steady,
    "flash_crowd": _flash_crowd,
    "million_users": _million_users,
}


def traffic_preset_names() -> list[str]:
    """The available named traffic presets."""
    return list(_TRAFFIC_PRESETS)


def traffic_preset(name: str) -> TrafficConfig:
    """Build a named traffic scenario preset."""
    try:
        factory = _TRAFFIC_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown traffic preset {name!r}; "
            f"available: {', '.join(_TRAFFIC_PRESETS)}"
        ) from None
    return factory()
