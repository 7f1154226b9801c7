"""One workload in one fresh interpreter (spawned by ``run.py``).

``--mode setup`` builds the workload, steps to the first offered
packet, prints the wall-clock instant and exits: ``run.py`` times five
such launches for ``setup_s``.

``--mode measure`` runs one untimed warm-up repeat (lazy imports,
adaptive-interpreter specialisation), then ``--timed`` timed repeats
with ``gc.collect()`` between them (GC stays on, as users run it),
then optionally one traced repeat.  Single-threaded, no sockets.  The
last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import sys
import time
from types import SimpleNamespace
from typing import Any, Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if SRC.is_dir() and str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import surface  # noqa: E402
from tracer import LayerTracer  # noqa: E402
from workloads import FAULTS, WORKLOADS, first_offer, run_repeat  # noqa: E402


def traced_repeat(workload, api, seed: int, window: float,
                  fault: Optional[str],
                  trace_out: Optional[pathlib.Path]) -> Dict[str, Any]:
    """One repeat under the layer tracer; wrappers are removed again
    whatever happens."""
    found, missing = surface.resolve_boundaries()
    tracer = LayerTracer()
    tracer.install(found)
    try:
        result = run_repeat(workload, api, seed, window, tracer, fault)
    finally:
        tracer.uninstall()
    result["trace"] = {
        "self_s": dict(zip(surface.LAYERS, tracer.self_s)),
        "calls": dict(zip(surface.LAYERS, tracer.calls)),
        "steps": tracer.steps,
        "bytes_per_msg": (tracer.bytes_sum / tracer.bytes_n
                          if tracer.bytes_n else 0.0),
        "span_cost_us": tracer.span_cost_us(),
        "boundaries_missing": missing,
        "spans_recorded": len(tracer.records),
    }
    if trace_out is not None:
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        trace_out.write_text(json.dumps(tracer.chrome_trace()))
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--window", type=float, required=True,
                        help="simulated seconds of traffic per repeat")
    parser.add_argument("--warmup-window", type=float, default=0.0)
    parser.add_argument("--timed", type=int, default=5)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=pathlib.Path, default=None)
    parser.add_argument("--inject-fault", choices=sorted(FAULTS), default=None)
    args = parser.parse_args(argv)

    try:
        api = SimpleNamespace(**surface.resolve_workload_symbols())
    except surface.MissingSymbol as exc:
        print(f"ftcbench: workload symbol {exc} is missing; the benchmark "
              f"cannot build its inputs", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    if args.mode == "setup":
        first_offer(workload, api, args.seed, args.window)
        print(json.dumps({"first_offer_epoch": time.time()}))
        return 0

    fault = args.inject_fault
    warmup = run_repeat(workload, api, args.seed, args.warmup_window,
                        fault=fault)
    timed = []
    for _ in range(args.timed):
        gc.collect()
        timed.append(run_repeat(workload, api, args.seed, args.window,
                                fault=fault))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = None
    if args.traced:
        gc.collect()
        traced = traced_repeat(workload, api, args.seed, args.window, fault,
                               args.trace_out)
    print(json.dumps({
        "workload": workload.name, "seed": args.seed, "window_s": args.window,
        "warmup_violations": warmup["violations"],
        "timed": timed, "peak_rss_mb": peak_rss_mb, "traced": traced,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
