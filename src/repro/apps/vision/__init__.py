"""The machine-vision pipeline workload (§5.4)."""

from ..._exports import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "blur": ("edge_detect", "gaussian_blur3"),
    "frames": (
        "BYTES_PER_PIXEL", "HEIGHT", "WIDTH", "frame_from_bytes", "frame_to_bytes",
        "synthetic_frame",
    ),
    "pipeline": (
        "MODE_TIMINGS", "ModeTiming", "ReductionMode", "VisionPerformanceModel", "VisionPoint",
        "hard_pipeline", "reduce_frame", "soft_pipeline",
    ),
    "rgb2y": (
        "dequantize4", "pack4", "quantization_error_bound", "quantize4", "rgb_to_y", "unpack4",
    ),
})
