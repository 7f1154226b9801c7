"""Middlebox framework and the paper's Table 1 functions."""

from .._lazy import surface

__getattr__, __dir__, __all__ = surface(__name__, {
    "base": ("DROP", "Middlebox", "PASS", "Verdict"),
    "chains": ("ch_gen", "ch_n", "ch_rec"),
    "firewall": ("Firewall", "Rule"),
    "gen": ("Gen",),
    "ids": ("PortCountIDS",),
    "loadbalancer": ("LoadBalancer",),
    "monitor": ("Monitor",),
    "nat": ("MazuNAT", "SimpleNAT"),
    "policer": ("TokenBucketPolicer",),
    "registry": ("available", "create", "register"),
    "stateful_firewall": ("StatefulFirewall",),
})
