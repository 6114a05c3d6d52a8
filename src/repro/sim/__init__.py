"""End-to-end simulations.

* :mod:`~repro.sim.availability` — Section 2.2's availability claim:
  replay SNR traces under today's binary up/down rule vs. dynamic
  capacities, count the failures that become mere capacity flaps;
* :mod:`~repro.sim.throughput` — the abstract's "simulate the
  throughput gains from deploying our approach": TE throughput on the
  static 100 Gbps network vs. the SNR-adaptive one, swept over demand
  scale;
* :mod:`~repro.sim.replay` — drive the full
  :class:`~repro.core.controller.DynamicCapacityController` loop with
  synthetic telemetry over time.
"""

from repro.sim.availability import (
    AvailabilityReport,
    LinkAvailability,
    availability_report,
    compare_availability,
)
from repro.sim.throughput import ThroughputGainPoint, simulate_throughput_gains
from repro.sim.replay import ReplayResult, replay_controller
from repro.sim.network_availability import (
    CableImpact,
    NetworkAvailabilityReport,
    cable_event_impacts,
)
from repro.sim.whatif import TicketVerdict, WhatIfReport, replay_tickets
from repro.sim.reactive import ReactiveResult, reactive_replay

__all__ = [
    "CableImpact",
    "NetworkAvailabilityReport",
    "cable_event_impacts",
    "TicketVerdict",
    "WhatIfReport",
    "replay_tickets",
    "ReactiveResult",
    "reactive_replay",
    "AvailabilityReport",
    "LinkAvailability",
    "availability_report",
    "compare_availability",
    "ThroughputGainPoint",
    "simulate_throughput_gains",
    "ReplayResult",
    "replay_controller",
]
