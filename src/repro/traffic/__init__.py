"""repro.traffic: a serving front-end and traffic engine for the rack.

Drive the fleet the way production traffic drives a serving system:
open-loop arrival processes (Poisson, flash crowd), a workload mix
mapped onto real app models (fleet KVS, recsys embedding lookups, GBDT
inference), and a gateway doing admission control, batching, caching,
budgeted retries and per-shard circuit breaking in front of the rack.
Off by default; deterministic under the kernel seed when on.
"""

from .arrivals import ArrivalModel
from .classes import (
    Request,
    RequestClass,
    RequestSampler,
    build_classes,
    gbdt_service_ns,
    recsys_service_ns,
)
from .config import (
    ARRIVAL_MODELS,
    CLASS_KINDS,
    GatewayConfig,
    RequestClassConfig,
    TrafficConfig,
    traffic_preset,
    traffic_preset_names,
)
from .engine import TrafficEngine, TrafficError
from .gateway import (
    LATENCY_METRIC,
    AdmissionRejected,
    Gateway,
    LruCache,
    TokenBucket,
)

__all__ = [
    "ARRIVAL_MODELS",
    "AdmissionRejected",
    "ArrivalModel",
    "CLASS_KINDS",
    "Gateway",
    "GatewayConfig",
    "LATENCY_METRIC",
    "LruCache",
    "Request",
    "RequestClass",
    "RequestClassConfig",
    "RequestSampler",
    "TokenBucket",
    "TrafficConfig",
    "TrafficEngine",
    "TrafficError",
    "build_classes",
    "gbdt_service_ns",
    "recsys_service_ns",
    "traffic_preset",
    "traffic_preset_names",
]
