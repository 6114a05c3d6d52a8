"""Tests for the runtime safety invariants (repro.recovery.invariants)."""

from types import SimpleNamespace

import pytest

from repro.core.controller import DynamicCapacityController
from repro.net.demands import Demand
from repro.net.topologies import line_topology
from repro.recovery.invariants import (
    InvariantMonitor,
    InvariantViolationError,
)
from repro.te.solution import FlowAssignment, TeSolution


def make_controller(seed=0):
    return DynamicCapacityController(line_topology(3), seed=seed)


def clean_report(**overrides):
    """The minimal report surface the monitor consults."""
    base = {"restored_links": (), "stale_links": ()}
    base.update(overrides)
    return SimpleNamespace(**base)


def doctor_ber_violation(controller):
    """Commit a state holding one link above its SNR-feasible capacity."""
    link_id = next(iter(controller.state.links))
    feasible = controller.table.feasible_capacity(10.0)
    controller.state_store.commit(
        controller.state.evolve(
            {link_id: {"snr_db": 10.0, "capacity_gbps": feasible + 50.0}},
            label="doctored",
        )
    )
    return link_id, feasible


class TestPolicyValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            InvariantMonitor(make_controller(), policy="panic")


class TestChecks:
    def test_clean_state_has_no_violations(self):
        monitor = InvariantMonitor(make_controller())
        monitor.check_round(clean_report())
        assert monitor.violations == []
        assert not monitor.fatal

    def test_ber_violation_detected(self):
        controller = make_controller()
        monitor = InvariantMonitor(controller)
        link_id, _ = doctor_ber_violation(controller)
        monitor.check_round(clean_report())
        kinds = {v.invariant for v in monitor.violations}
        assert "ber" in kinds
        assert any(v.link_id == link_id for v in monitor.violations)

    def test_stale_restore_detected(self):
        monitor = InvariantMonitor(make_controller())
        monitor.check_round(
            clean_report(restored_links=("l0", "l1"), stale_links=("l1",))
        )
        assert [v.invariant for v in monitor.violations] == ["stale-restore"]
        assert monitor.violations[0].link_id == "l1"

    def test_version_rewind_detected(self):
        monitor = InvariantMonitor(make_controller())
        monitor._last_version = 99
        monitor.check_round(clean_report())
        assert [v.invariant for v in monitor.violations] == ["version-chain"]

    def test_journal_lineage_divergence_detected(self):
        controller = make_controller()
        controller.state_store.attach_journal(
            SimpleNamespace(last_version=123, iter_transitions=lambda: iter(()))
        )
        monitor = InvariantMonitor(controller)
        monitor.check_round(clean_report())
        assert [v.invariant for v in monitor.violations] == ["journal-lineage"]


def routed_report(gbps, *, volume=None):
    """A report whose solution routes ``gbps`` over n0 -> n1 -> n2."""
    demand = Demand("n0", "n2", gbps if volume is None else volume)
    flows = {"n0->n1#0": gbps, "n1->n2#2": gbps}
    topology = line_topology(3)
    return clean_report(
        solution=TeSolution(topology, [FlowAssignment(demand, gbps, flows)])
    )


class TestTeFeasibility:
    def test_feasible_solution_passes(self):
        monitor = InvariantMonitor(make_controller())
        monitor.check_round(routed_report(80.0))
        assert monitor.violations == []

    def test_overloaded_solution_flagged(self):
        monitor = InvariantMonitor(make_controller())
        monitor.check_round(routed_report(150.0))
        kinds = [v.invariant for v in monitor.violations]
        assert kinds == ["te-feasibility", "te-feasibility"]
        assert all("overloaded" in v.detail for v in monitor.violations)

    def test_checked_against_committed_capacity(self):
        # the solution's own topology says 100 Gbps; the committed state
        # says the link was degraded to 50, so 80 Gbps no longer fits
        controller = make_controller()
        controller.state_store.commit(
            controller.state.evolve(
                {"n1->n2#2": {"capacity_gbps": 50.0}}, label="degraded"
            )
        )
        monitor = InvariantMonitor(controller)
        monitor.check_round(routed_report(80.0))
        assert [v.detail for v in monitor.violations] == [
            "link n1->n2#2 overloaded: 80.0000 > 50.0000"
        ]

    def test_allocation_above_volume_flagged(self):
        monitor = InvariantMonitor(make_controller())
        monitor.check_round(routed_report(60.0, volume=40.0))
        assert [v.invariant for v in monitor.violations] == ["te-feasibility"]
        assert "outside [0, 40.0000]" in monitor.violations[0].detail

    def test_broken_conservation_flagged(self):
        demand = Demand("n0", "n2", 50.0)
        solution = TeSolution(
            line_topology(3), [FlowAssignment(demand, 50.0, {"n0->n1#0": 50.0})]
        )
        monitor = InvariantMonitor(make_controller())
        monitor.check_round(clean_report(solution=solution))
        assert monitor.violations
        assert all("imbalance" in v.detail for v in monitor.violations)


class TestPolicies:
    def test_record_keeps_running(self):
        controller = make_controller()
        monitor = InvariantMonitor(controller, policy="record")
        doctor_ber_violation(controller)
        monitor.check_round(clean_report())
        assert monitor.violations and not monitor.fatal
        monitor.raise_if_fatal()  # record never raises

    def test_degrade_forces_feasible_capacity(self):
        controller = make_controller()
        monitor = InvariantMonitor(controller, policy="degrade")
        link_id, feasible = doctor_ber_violation(controller)
        monitor.check_round(clean_report())
        assert controller.state.links[link_id].capacity_gbps == feasible
        # the enforcement is itself a journaled state transition
        assert controller.state.label == "invariant.degrade"

    def test_abort_stops_engine_and_raises(self):
        controller = make_controller()
        monitor = InvariantMonitor(controller, policy="abort")
        stopped = []
        monitor.attach(
            SimpleNamespace(
                add_observer=lambda obs: None, stop=lambda: stopped.append(True)
            )
        )
        doctor_ber_violation(controller)
        monitor.check_round(clean_report())
        assert monitor.fatal and stopped
        with pytest.raises(InvariantViolationError, match="ber"):
            monitor.raise_if_fatal()

    def test_fatal_monitor_ignores_later_events(self):
        controller = make_controller()
        monitor = InvariantMonitor(controller, policy="abort")
        doctor_ber_violation(controller)
        monitor.check_round(clean_report())
        n = len(monitor.violations)
        monitor(SimpleNamespace(kind="controller.report", payload=clean_report()))
        assert len(monitor.violations) == n


class TestEventFiltering:
    def test_non_report_payloads_are_skipped(self):
        monitor = InvariantMonitor(make_controller())
        # the plain replay's "te.round" events carry a TelemetrySample,
        # not a report — the monitor must not treat it as one
        monitor(SimpleNamespace(kind="te.round", payload=SimpleNamespace(snr_db={})))
        monitor(SimpleNamespace(kind="telemetry.sample", payload=None))
        assert monitor.violations == []

    def test_report_kind_payloads_are_checked(self):
        controller = make_controller()
        monitor = InvariantMonitor(controller)
        doctor_ber_violation(controller)
        monitor(
            SimpleNamespace(kind="controller.report", payload=clean_report())
        )
        assert monitor.violations


class TestEndToEnd:
    def test_clean_replay_is_violation_free(self):
        from repro.faults.chaos import _chaos_inputs
        from repro.sim.replay import replay_controller

        topology, traces_by_link, demands = _chaos_inputs(0.5, 7)
        controller = DynamicCapacityController(topology, seed=7)
        result = replay_controller(
            controller,
            traces_by_link,
            demands,
            te_interval_s=4 * 3600.0,
            invariants="abort",  # would raise on any violation
        )
        assert result.n_rounds > 0


@pytest.mark.parametrize("scenario", ["replay", "reactive"])
def test_golden_scenarios_are_te_feasible(scenario, monkeypatch):
    """Every TE round of the replay/reactive goldens fits the committed
    network, and arming the monitor leaves the golden metrics alone."""
    from repro.obs import metrics
    from tests.golden.scenarios import SCENARIOS, canonical_json

    checked = []
    check = InvariantMonitor._check_te_feasibility

    def counting(self, report):
        checked.append(report)
        return check(self, report)

    monkeypatch.setattr(InvariantMonitor, "_check_te_feasibility", counting)
    with metrics.isolated() as reg:
        armed = SCENARIOS[scenario](invariants="record")
    assert checked
    assert reg.counter_value("invariants.violations", invariant="te-feasibility") == 0
    assert canonical_json(armed) == canonical_json(SCENARIOS[scenario]())
