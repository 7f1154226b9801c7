"""Counted performance observability (PROTOCOL.md §13).

Three layers, used together by ``repro perf``:

* :mod:`.profiler` -- :class:`StageProfiler`, per-stage call counts for
  the hot path;
* :mod:`.scenarios` / :mod:`.bench` -- the scenario benchmark suite
  emitting schema-versioned ``BENCH_<scenario>.json`` reports of exact
  counts;
* :mod:`.compare` -- the exact gate CI runs against committed
  baselines.

Host time is not measured here: ftcbench times the chain from outside.
Nothing is imported until a name is read: ``compare`` (the CI gate)
loads without the simulator, and :data:`NULL_PROFILER` lives in the
leaf :mod:`repro.telemetry.null`, so a run with profiling off never
loads :mod:`.profiler` either.
"""

from .._lazy import surface

__getattr__, __dir__, __all__ = surface(__name__, {
    "profiler": ("NULL_PROFILER", "NullProfiler", "STAGES", "StageProfiler"),
    "compare": ("compare_dirs", "compare_reports", "load_reports",
                "render_markdown"),
})
