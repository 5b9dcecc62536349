"""repro.traffic: a serving front-end and traffic engine for the rack.

Drive the fleet the way production traffic drives a serving system:
open-loop arrival processes (Poisson, flash crowd), a workload mix
mapped onto real app models (fleet KVS, recsys embedding lookups, GBDT
inference), and a gateway doing admission control, batching, caching,
budgeted retries and per-shard circuit breaking in front of the rack.
Building a :class:`TrafficEngine` runs a scenario; every run is
deterministic under the kernel seed.
"""

from .._exports import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "arrivals": ("ArrivalModel",),
    "classes": (
        "Request", "RequestClass", "RequestSampler", "build_classes", "gbdt_service_ns",
        "recsys_service_ns",
    ),
    "config": (
        "ARRIVAL_MODELS", "CLASS_KINDS", "GatewayConfig", "RequestClassConfig", "TrafficConfig",
    ),
    "engine": ("TrafficEngine",),
    "gateway": ("LATENCY_METRIC", "AdmissionRejected", "Gateway", "LruCache", "TokenBucket"),
})
