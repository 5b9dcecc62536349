"""The Enzian Coherence Interface (ECI): a MOESI inter-socket protocol.

Public surface:

* message vocabulary and wire format (:mod:`.messages`, :mod:`.serialization`)
* protocol agents (:mod:`.protocol`)
* the specification + runtime checkers (:mod:`.spec`)
* trace capture and decoding (:mod:`.trace`)
* the physical link and bulk-transfer models (:mod:`.link`, :mod:`.transfer`)
"""

from .._exports import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "messages": (
        "CACHE_LINE_BYTES", "HEADER_BYTES", "Message", "MessageType", "VirtualCircuit",
        "line_address", "vc_for",
    ),
    "serialization": ("SerializationError", "decode", "decode_stream", "encode", "encode_stream"),
    "protocol": (
        "CacheAgent", "CacheState", "HomeAgent", "InstantTransport", "LineStore", "ProtocolError",
        "Transport",
    ),
    "spec": (
        "ALLOWED_TRANSITIONS", "CoherenceChecker", "InvariantViolation", "MessageRuleChecker",
        "transition_allowed",
    ),
    "cosim": ("CosimCoordinator", "CosimError", "CosimSide"),
    "trace": ("TraceRecord", "TraceRecorder"),
    "link": ("EciLinkParams", "EciLinkTransport"),
    "transfer": (
        "TransferEngineParams", "TransferResult", "dual_socket_reference",
        "dual_socket_reference_bandwidth_gibps", "simulate_transfer", "sweep_transfer_sizes",
    ),
})
