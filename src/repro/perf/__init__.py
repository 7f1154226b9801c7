"""Counted performance observability (PROTOCOL.md §13).

* :mod:`.profiler` -- :class:`StageProfiler`, per-stage call counts for
  the hot path;
* :mod:`.scenarios` -- six scenarios where per-packet work differs
  structurally; the data-path golden pins their counts;
* :mod:`.counters` -- queue-depth counter tracks for a Chrome trace;
* :mod:`.cli` -- ``repro perf profile``.

Host time is not measured here: ftcbench times the chain from outside.
Nothing is imported until a name is read, so a run with profiling off
never loads :mod:`.profiler` (stages are counted through the enabled
telemetry bundle only).
"""

from .._lazy import surface

__getattr__, __dir__, __all__ = surface(__name__, {
    "profiler": ("STAGES", "StageProfiler"),
})
