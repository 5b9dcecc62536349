"""Analysis and reporting helpers for the benchmark harness."""

from .._exports import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "report": ("ratio_summary", "render_series", "render_table"),
})
