"""Network substrate: Ethernet, reliable transport, TCP models, RDMA."""

from .._exports import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "ethernet": ("ETH_OVERHEAD_BYTES", "EthernetLink", "Frame", "LinkAttachError"),
    "iperf": ("IperfResult", "run_iperf", "sweep_window"),
    "reliable": ("ReliableReceiver", "ReliableSender", "Segment", "TransferAborted"),
    "rdma": (
        "QueuePair", "RdmaError", "RdmaOp", "RdmaPathParams", "RdmaPerformanceModel", "RdmaTarget",
        "figure8_paths",
    ),
    "switch": ("Switch", "SwitchPortError", "star_topology", "two_hosts_via_switch"),
    "tcp": (
        "FpgaTcpParams", "FpgaTcpStack", "LinuxTcpParams", "LinuxTcpStack", "flows_to_saturate",
    ),
})
