"""Network substrate: packets, flows, links, NICs, servers, traffic."""

from .._lazy import surface

__getattr__, __dir__, __all__ = surface(__name__, {
    "channel": ("DATA_RETRY_POLICY", "Frame", "ReliableChannel"),
    "churn": ("FlowChurnGenerator",),
    "flowgen": (
        "FlashCrowd", "FlowPool", "TrafficGenerator", "WorkloadGenerator",
        "WorkloadSpec", "balanced_flows",
    ),
    "impairment": ("Corrupted", "DataImpairment"),
    "link": ("Link", "LossyLink"),
    "nic": ("DEFAULT_NIC_PPS", "NIC"),
    "packet": ("FlowKey", "Packet", "format_ip", "ip"),
    "retry": (
        "CallResult", "DEFAULT_RETRY_POLICY", "RetryPolicy", "reliable_call",
    ),
    "topology": (
        "ControlImpairment", "DEFAULT_CPU_HZ", "DEFAULT_HOP_DELAY_S",
        "Network", "Server",
    ),
})
