"""Multi-board use-cases (§6): coherence bridging, disaggregated memory."""

from .._exports import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "bridge": (
        "BridgeError", "BridgePort", "BridgeRouteError", "BridgeTopologyError", "bridge_domains",
        "bridge_fleet",
    ),
    "disagg": (
        "PAGE_BYTES", "ROWS_PER_PAGE", "BufferCacheClient", "DisaggError", "MemoryServer",
        "PushdownResult", "traffic_savings",
    ),
})
