"""Vertical scaling: grow a bottleneck middlebox from 1 to 4 cores.

§1 claims FTC's dependency vectors "easily support vertical scaling
by replacing a running middlebox with a new instance with more CPU
cores" -- replicas may run with a different thread count than the
middlebox.  This example saturates a single-core Monitor, rescales it
to four cores mid-run, and shows throughput rising while all state
carries over.

Run:  python examples/vertical_scaling.py
"""

from repro.core import FTCChain, ReconfigOp, apply_reconfig
from repro.metrics import EgressRecorder
from repro.middlebox import Monitor
from repro.net import TrafficGenerator, balanced_flows
from repro.sim import Simulator


def main():
    sim = Simulator()
    egress = EgressRecorder(sim)
    chain = FTCChain(sim, [Monitor(name="mon", sharing_level=1,
                                   n_threads=8)],
                     f=1, deliver=egress, n_threads=1)
    chain.start()
    generator = TrafficGenerator(sim, chain.ingress, rate_pps=12e6,
                                 flows=balanced_flows(32, 1))

    checkpoints = []

    def observe(sim):
        while True:
            egress.throughput.start_window()
            yield sim.timeout(1e-3)
            checkpoints.append((sim.now, egress.throughput.rate_mpps()))

    def scale(sim):
        yield sim.timeout(3e-3)
        old_threads = len(chain.server_at(0).nic.queues)
        report = yield sim.process(apply_reconfig(chain, ReconfigOp(
            kind="rescale", position=0, n_threads=4)))
        print(f"[{sim.now * 1e3:.2f} ms] rescaled position 0: "
              f"{old_threads} -> {report.op.n_threads} threads in "
              f"{report.total_s * 1e3:.2f} ms "
              f"({report.bytes_transferred} B of state moved)")

    sim.process(observe(sim))
    sim.process(scale(sim))
    sim.run(until=8e-3)
    generator.stop()
    sim.run(until=9.5e-3)  # drain in-flight packets before inspecting

    print("\nthroughput per 1 ms window:")
    for when, mpps in checkpoints:
        bar = "#" * int(mpps * 4)
        print(f"  t={when * 1e3:4.1f} ms  {mpps:5.2f} Mpps  {bar}")

    monitor = chain.middleboxes[0]
    stores = [chain.store_of("mon", pos)
              for pos in chain.group_positions(0)]
    print(f"\ncounts survived the rescale: "
          f"{monitor.total_count(stores[0])} packets counted, "
          f"replicas consistent = {stores[0] == stores[1]}")


if __name__ == "__main__":
    main()
