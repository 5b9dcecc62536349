"""Platform-wide observability: metrics registry and exporters.

Usage::

    from repro.obs import MetricsRegistry
    from repro.sim import Kernel

    obs = MetricsRegistry(record_events=True)
    kernel = Kernel(obs=obs)            # metrics stamped with kernel.now
    ...
    print(prometheus_text(obs))         # scrape-format snapshot
    log = events_jsonl(obs)             # replayable event log

Components not given a registry default to :data:`NULL_REGISTRY` and
pay (at most) one truthiness check per operation.
"""

from .._exports import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "export": ("events_jsonl", "parse_jsonl", "prometheus_text", "snapshot_jsonl"),
    "metrics": (
        "NULL_INSTRUMENT", "NULL_REGISTRY", "Counter", "Family", "Gauge", "Histogram",
        "MetricsRegistry", "NullRegistry", "ObsError", "ObsEvent", "labels_key",
    ),
})
