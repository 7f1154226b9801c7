"""Continuous performance observability (PROTOCOL.md §13).

Three layers, used together by ``repro perf``:

* :mod:`.profiler` -- :class:`StageProfiler` per-stage cost attribution
  for the hot path, with collapsed-stack / speedscope flame exports;
* :mod:`.scenarios` / :mod:`.bench` -- the scenario benchmark suite
  emitting schema-versioned ``BENCH_<scenario>.json`` reports;
* :mod:`.compare` -- the regression gate CI runs against committed
  baselines.

Nothing is imported until a name is read: ``compare`` (the CI gate)
loads without the simulator, and :data:`NULL_PROFILER` lives in the
leaf :mod:`repro.telemetry.null`, so a run with profiling off never
loads :mod:`.profiler` either.
"""

from .._lazy import surface

__getattr__, __dir__, __all__ = surface(__name__, {
    "profiler": (
        "NULL_PROFILER", "NullProfiler", "STAGES", "STAGE_TREE",
        "StageProfiler", "collapsed_lines", "exclusive_seconds",
        "speedscope_doc",
    ),
    "compare": (
        "DEFAULT_TOLERANCE", "compare_dirs", "compare_reports", "headline_pps",
        "load_reports", "render_markdown",
    ),
})
