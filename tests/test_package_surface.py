"""The public surface of every package, pinned against the eager ``__init__``s.

Each ``__init__`` under ``src/repro`` is a name -> submodule table
resolved on first access (:mod:`repro._lazy`).  :data:`PARENT_SURFACE`
is what the eager ``from .x import a, b`` walls exported on the commit
before that change -- package -> module that held the name -> names --
and every name must still be importable from the same place and be the
*same object* its old home holds (an empty string marks a submodule
that is itself the exported name).  The surface checks pass on the eager
tree too; the ones that look at the mechanism do not.
"""

from __future__ import annotations

import ast
import importlib
import pathlib
import re
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

PARENT_SURFACE = {
    "repro": {
        "repro.core": "CostModel DEFAULT_COSTS FTCChain recover_positions",
        "repro.metrics": "EgressRecorder",
        "repro.middlebox":
            "DROP Firewall Gen MazuNAT Middlebox Monitor PASS SimpleNAT "
            "ch_gen ch_n ch_rec",
        "repro.net": "FlowKey Packet TrafficGenerator balanced_flows",
        "repro.orchestration": "CloudNetwork Orchestrator place_chain",
        "repro.sim": "Simulator",
    },
    "repro.sim": {
        "repro.sim.engine":
            "AllOf AnyOf Event Interrupt PRIORITY_NORMAL PRIORITY_URGENT "
            "Process SimulationError Simulator Timeout",
        "repro.sim.randomness": "RandomStreams",
        "repro.sim.resources": "CancelledError RateLimiter Resource Store",
    },
    "repro.stm": {
        "repro.stm.locks": "LockStats PartitionLock TransactionWounded",
        "repro.stm.partition": "DEFAULT_PARTITIONS PartitionSpace",
        "repro.stm.store": "StateStore TOMBSTONE",
        "repro.stm.transaction":
            "Transaction TransactionContext TransactionManager "
            "TransactionResult",
    },
    "repro.net": {
        "repro.net.channel": "DATA_RETRY_POLICY Frame ReliableChannel",
        "repro.net.churn": "FlowChurnGenerator",
        "repro.net.flowgen":
            "FlashCrowd FlowPool TrafficGenerator WorkloadGenerator "
            "WorkloadSpec balanced_flows",
        "repro.net.impairment": "Corrupted DataImpairment",
        "repro.net.link": "Link LossyLink",
        "repro.net.nic": "DEFAULT_NIC_PPS NIC",
        "repro.net.packet": "FlowKey Packet format_ip ip",
        "repro.net.retry":
            "CallResult DEFAULT_RETRY_POLICY RetryPolicy reliable_call",
        "repro.net.topology":
            "ControlImpairment DEFAULT_CPU_HZ DEFAULT_HOP_DELAY_S Network "
            "Server",
    },
    "repro.middlebox": {
        "repro.middlebox.base": "DROP Middlebox PASS Verdict",
        "repro.middlebox.chains": "ch_gen ch_n ch_rec",
        "repro.middlebox.firewall": "Firewall Rule",
        "repro.middlebox.gen": "Gen",
        "repro.middlebox.ids": "PortCountIDS",
        "repro.middlebox.loadbalancer": "LoadBalancer",
        "repro.middlebox.monitor": "Monitor",
        "repro.middlebox.nat": "MazuNAT SimpleNAT",
        "repro.middlebox.policer": "TokenBucketPolicer",
        "repro.middlebox.registry": "available create register",
        "repro.middlebox.stateful_firewall": "StatefulFirewall",
    },
    "repro.metrics": {
        "repro.metrics.meters":
            "EgressRecorder LatencySampler ThroughputMeter",
        "repro.metrics.reporting": "format_series format_table",
        "repro.metrics.stats":
            "cdf_points confidence_interval95 mean percentile stdev",
    },
    "repro.core": {
        "repro.core.admission":
            "AdmissionControl BackpressureBus PressureSource TokenBucket",
        "repro.core.buffer": "Buffer",
        "repro.core.chain": "FTCChain",
        "repro.core.costs": "CostModel DEFAULT_COSTS",
        "repro.core.fencing":
            "AppliedCommand EpochGate StaleConfigError StaleEpochError",
        "repro.core.depvec":
            "DependencyVector ProtocolError ReplicationState",
        "repro.core.forwarder": "Forwarder",
        "repro.core.piggyback":
            "CommitVector PiggybackLog PiggybackMessage value_bytes",
        "repro.core.reconfig":
            "ChainConfig ClassifierRule ClassifierSet RECONFIG_KINDS "
            "RECONFIG_PHASES ReconfigError ReconfigOp ReconfigReport "
            "apply_reconfig",
        "repro.core.recovery":
            "RECOVERY_PHASES RecoveryError RecoveryReport "
            "UnrecoverableError recover_positions",
        "repro.core.replica": "Replica",
        "repro.core.runtime": "CycleCounters MiddleboxRuntime",
    },
    "repro.orchestration": {
        "repro.orchestration.brownout":
            "BROWNOUT_STEPS BrownoutController BrownoutPolicy "
            "BrownoutTransition",
        "repro.orchestration.cloud":
            "CloudNetwork SAVI_REGIONS savi_rtt_matrix",
        "repro.orchestration.election": "ElectionConfig ElectionMember",
        "repro.orchestration.ensemble":
            "EnsembleMember OrchestratorEnsemble",
        "repro.orchestration.journal":
            "CommandJournal JOURNAL_STEPS JournalEntry",
        "repro.orchestration.orchestrator": "FailureEvent Orchestrator",
        "repro.orchestration.placement": "place_chain validate_isolation",
    },
    "repro.chaos": {
        "repro.chaos.auditor":
            "InvariantAuditor InvariantViolation ShadowOracle",
        "repro.chaos.monkey":
            "CTRLPLANE_KIND_WEIGHTS ChaosMonkey DEFAULT_KIND_WEIGHTS",
        "repro.chaos.plan":
            "FAULT_KINDS FaultInjector FaultPlan FaultSpec "
            "IMPAIRED_DELIVERY ORCH_FAULT_KINDS OVERLOAD_FAULT_KINDS "
            "RECONFIG_FAULT_KINDS",
        "repro.chaos.scenario": "CHECKS Monkey Run Scenario Step run",
        "repro.chaos.soak":
            "OverloadSpec SoakResult chaos_scenario ctrlplane_scenario "
            "impaired_scenario overload_scenario reconfig_scenario "
            "run_soak",
    },
    "repro.flight": {
        "repro.flight.recorder":
            "DUMP_VERSION FLIGHT_COMPONENTS FlightEvent FlightRecorder "
            "NULL_FLIGHT NullFlightRecorder",
        "repro.flight.explain":
            "explain_epoch explain_packet explain_recovery load_dump "
            "walk_back",
        "repro.flight.slo":
            "SLOBreach SLOObjective SLOWatchdog parse_slo_spec run_probes",
        "repro.flight.report": "render_report",
    },
    "repro.perf": {
        "repro.perf.profiler":
            "NULL_PROFILER NullProfiler STAGES StageProfiler",
        "repro.perf.compare":
            "compare_dirs compare_reports load_reports render_markdown",
    },
    "repro.telemetry": {
        "repro.telemetry.registry":
            "Counter Gauge Histogram MetricRegistry NULL_COUNTER "
            "NULL_GAUGE NULL_HISTOGRAM NULL_REGISTRY NullRegistry",
        "repro.telemetry.timeline":
            "NULL_TIMELINE NullTimeline RecoveryTimeline "
            "TIMELINE_EVENT_KINDS TimelineAttempt TimelineEvent",
        "repro.telemetry.trace":
            "NULL_TRACER NullTracer PacketTracer SPAN_PHASES "
            "validate_chrome_trace",
        "repro.flight.recorder": "NULL_FLIGHT",
        "repro.perf.profiler": "NULL_PROFILER",
        "repro.telemetry": "NULL_TELEMETRY NullTelemetry Telemetry",
    },
    "repro.baselines": {
        "repro.baselines.ftmb": "FTMBChain",
        "repro.baselines.nf": "NFChain",
        "repro.baselines.remote_store": "RemoteStoreChain",
    },
    "repro.experiments": {
        "repro.experiments.ablations": "",
        "repro.experiments.calibration": "",
        "repro.experiments.fig5": "",
        "repro.experiments.fig6": "",
        "repro.experiments.fig7": "",
        "repro.experiments.fig8": "",
        "repro.experiments.fig9": "",
        "repro.experiments.fig10": "",
        "repro.experiments.fig11": "",
        "repro.experiments.fig12": "",
        "repro.experiments.fig13": "",
        "repro.experiments.reconfig": "",
        "repro.experiments.table2": "",
        "repro.experiments.runner":
            "ExperimentResult latency_under_load quick_mode "
            "saturation_throughput",
        "repro.experiments.systems": "SYSTEMS build_system",
    },
}

PACKAGES = sorted(PARENT_SURFACE)


def _pinned(package):
    """``{public name: (module that held it, attribute or "")}``."""
    return {(name or module.rpartition(".")[2]): (module, name)
            for module, names in PARENT_SURFACE[package].items()
            for name in (names.split() or [""])}


def test_every_package_init_is_pinned():
    found = {".".join(("repro", *init.parent.relative_to(SRC).parts))
             for init in SRC.rglob("__init__.py")}
    assert found == set(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
class TestSurface:
    def test_all_is_the_parents(self, package):
        module = importlib.import_module(package)
        assert sorted(module.__all__) == sorted(_pinned(package))
        assert len(set(module.__all__)) == len(module.__all__)

    def test_every_name_is_its_old_homes_object(self, package):
        module = importlib.import_module(package)
        for public, (home, name) in _pinned(package).items():
            owner = importlib.import_module(home)
            expected = getattr(owner, name) if name else owner
            assert getattr(module, public) is expected, (package, public)

    def test_dir_and_star_import(self, package):
        module = importlib.import_module(package)
        assert set(dir(module)) >= set(module.__all__)
        namespace = {}
        exec(f"from {package} import *", namespace)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name)

    def test_unknown_name_raises_attribute_error_naming_the_package(
            self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match=re.escape(package)):
            module.no_such_name
        assert not hasattr(module, "no_such_name")
        assert getattr(module, "no_such_name", 7) == 7
        with pytest.raises(ImportError):
            exec(f"from {package} import no_such_name", {})

    def test_second_lookup_is_a_plain_dict_hit(self, package, monkeypatch):
        module = importlib.import_module(package)
        name = sorted(module.__all__)[0]
        value = getattr(module, name)
        resolve, calls = module.__getattr__, []

        def counting(attribute):
            calls.append(attribute)
            return resolve(attribute)

        monkeypatch.setitem(vars(module), "__getattr__", counting)
        monkeypatch.delitem(vars(module), name)
        assert getattr(module, name) is value
        assert getattr(module, name) is value
        assert calls == [name]

    def test_submodules_resolve_after_a_bare_package_import(self, package):
        module = importlib.import_module(package)
        for home in PARENT_SURFACE[package]:
            parent, _, leaf = home.rpartition(".")
            if parent != package:
                continue
            vars(module).pop(leaf, None)
            assert getattr(module, leaf) is importlib.import_module(home)


def test_a_known_name_whose_module_is_broken_raises_import_error(
        tmp_path, monkeypatch):
    """``hasattr`` must not turn a broken submodule into "no such name"."""
    package = tmp_path / "lazy_pkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from repro._lazy import surface\n"
        "__getattr__, __dir__, __all__ = surface(\n"
        "    __name__, {'broken': ('thing',)})\n")
    (package / "broken.py").write_text("import no_such_dependency_xyz\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        module = importlib.import_module("lazy_pkg")
        assert module.__all__ == ["thing"]
        with pytest.raises(ImportError, match="no_such_dependency_xyz"):
            hasattr(module, "thing")
    finally:
        sys.modules.pop("lazy_pkg", None)


def test_no_package_init_imports_from_a_sibling_module_again():
    """The tables replaced the eager walls; one relative ``from .x
    import`` in an ``__init__`` brings the whole closure back."""
    offenders = []
    for init in SRC.rglob("__init__.py"):
        for node in ast.walk(ast.parse(init.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.level
                    and node.module != "_lazy"):
                offenders.append(f"{init.relative_to(SRC)}:{node.lineno}")
    assert offenders == []
