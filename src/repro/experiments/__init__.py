"""Experiment harness: one module per table/figure of the paper.

Each module exposes ``run(...) -> ExperimentResult`` (or a list of
results for multi-panel figures) plus a ``main()`` that prints the
same rows/series the paper reports.  Run any of them directly::

    python -m repro.experiments.fig9
"""

from .._lazy import surface

__getattr__, __dir__, __all__ = surface(__name__, {
    "runner": (
        "ExperimentResult", "latency_under_load", "quick_mode",
        "saturation_throughput",
    ),
    "systems": ("SYSTEMS", "build_system"),
}, modules=(
    "ablations", "calibration", "fig5", "fig6", "fig7", "fig8", "fig9",
    "fig10", "fig11", "fig12", "fig13", "reconfig", "table2",
))
