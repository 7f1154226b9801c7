"""Regenerate every table/figure of the paper, one benchmark each.

``pytest benchmarks/bench_paper.py -k fig9`` regenerates one; each
writes ``benchmarks/output/<name>.txt`` (see ``conftest.py``).
"""

import importlib

import pytest

#: experiment -> what the paper reports there (the claim to eyeball).
PAPER = {
    "table2": "processing 355, locking 152, copy 58, forwarder 8, "
              "buffer 100 cycles (MazuNAT in Ch-2)",
    "fig5": "<=9% drop at 128 B packets/128 B state; negligible at 512 B",
    "fig6": "FTC/FTMB 1.2x at sharing 8, 1.4x at 2; NIC cap at sharing 1",
    "fig7": "FTC/FTMB 1.37-1.94x for 1-4 threads; NIC cap at 8 threads",
    "fig8": "flat latency until saturation, then queueing spikes; FTC "
            "within tens of microseconds of NF below saturation",
    "fig9": "FTC 8.28-8.92 Mpps; 2-3.5x FTMB; snapshots drop 13-39%",
    "fig10": "FTC ~20 us/middlebox overhead; FTMB ~35 us/middlebox",
    "fig11": "FTC tail latency only moderately above the minimum",
    "fig12": "factor 5 costs ~3% throughput and ~8 us latency",
    "fig13": "init 1.2/49.8/5.3 ms; state recovery 114-271 ms (WAN)",
    "ablations": "dependency vectors, in-chain replication and "
                 "piggybacking each ablated against their §3.2/§4.3 "
                 "alternatives (DESIGN.md §6)",
}


@pytest.mark.parametrize("name", PAPER)
def test_paper(name, benchmark, record_result):
    experiment = importlib.import_module(f"repro.experiments.{name}")
    record_result(name, benchmark.pedantic(experiment.run, rounds=1,
                                           iterations=1))
