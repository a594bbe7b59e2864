"""Counting telemetry: live counters over every hook point.

:class:`CountingTelemetry` is the workhorse sink — integer counters
with no per-event allocation, cheap enough to leave on for production
campaigns.  Its :meth:`~CountingTelemetry.as_dict` rendering is the
unit the campaign layer aggregates: deterministic, wall-clock-free,
and therefore byte-identical between serial and process-pool runs of
the same flows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro.telemetry.base import Telemetry

__all__ = ["COUNTER_NAMES", "CountingTelemetry", "FlowTelemetrySummary"]

#: Every counter a :class:`CountingTelemetry` maintains, in the order
#: :meth:`CountingTelemetry.as_dict` reports them.
COUNTER_NAMES = (
    "events_scheduled",
    "events_fired",
    "events_cancelled",
    "packets_sent",
    "packets_dropped",
    "packets_delivered",
    "data_sent",
    "data_dropped",
    "data_delivered",
    "acks_sent",
    "acks_dropped",
    "acks_delivered",
    "rto_armed",
    "rto_fired",
    "rto_spurious",
    "cwnd_phase_transitions",
    "budget_trips",
    # how the executor obtained the flow's result under a result store:
    # exactly one of these is 1 per store-backed flow, both 0 otherwise
    "cache_hit",
    "cache_miss",
    # supervision-layer provenance, stamped by the parent: how many of
    # this flow's executions died with the worker or were preempted
    # past their deadline, and whether it ran uncached because the
    # store's circuit breaker was open.  Never persisted to the store.
    "worker_crashes",
    "deadline_preemptions",
    "store_errors",
)


class CountingTelemetry(Telemetry):
    """Counters over engine, channel, sender, and watchdog hooks.

    Direction-split packet counters (``data_*`` / ``acks_*``) always
    sum to the aggregate ``packets_*`` ones; the MPTCP redundant
    subflow counts as ``data`` (its transmissions land in the flow
    log's data records).  All counters reconcile exactly with the
    :class:`~repro.simulator.metrics.FlowLog` of the same run —
    ``scripts/smoke.py`` asserts the identities.
    """

    __slots__ = COUNTER_NAMES

    def __init__(self) -> None:
        for name in COUNTER_NAMES:
            setattr(self, name, 0)

    # -- engine ---------------------------------------------------------

    def on_event_scheduled(self) -> None:
        self.events_scheduled += 1

    def on_events_fired(self, count: int) -> None:
        self.events_fired += count

    def on_event_cancelled(self) -> None:
        self.events_cancelled += 1

    # -- channel --------------------------------------------------------

    def on_packet_sent(self, direction: str, time: float) -> None:
        self.packets_sent += 1
        if direction == "ack":
            self.acks_sent += 1
        else:
            self.data_sent += 1

    def on_packet_dropped(self, direction: str, time: float) -> None:
        self.packets_dropped += 1
        if direction == "ack":
            self.acks_dropped += 1
        else:
            self.data_dropped += 1

    def on_packet_delivered(self, direction: str, time: float) -> None:
        self.packets_delivered += 1
        if direction == "ack":
            self.acks_delivered += 1
        else:
            self.data_delivered += 1

    # -- sender ---------------------------------------------------------

    def on_rto_armed(self, time: float, rto: float) -> None:
        self.rto_armed += 1

    def on_rto_fired(
        self, time: float, seq: int, spurious: bool, backoff_exponent: int
    ) -> None:
        self.rto_fired += 1
        if spurious:
            self.rto_spurious += 1

    def on_phase_transition(
        self, time: float, old_phase: str, new_phase: str, cwnd: float
    ) -> None:
        self.cwnd_phase_transitions += 1

    # -- robustness -----------------------------------------------------

    def on_budget_exceeded(self, kind: str) -> None:
        self.budget_trips += 1

    # -- rendering ------------------------------------------------------

    def as_dict(self) -> Dict[str, int]:
        """Counter snapshot in declaration order (stable across runs)."""
        return {name: getattr(self, name) for name in COUNTER_NAMES}

    def summarise(self, flow_id: str = "flow") -> "FlowTelemetrySummary":
        """A frozen, picklable summary of this sink's counters."""
        return FlowTelemetrySummary(flow_id=flow_id, counters=self.as_dict())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        hot = {k: v for k, v in self.as_dict().items() if v}
        return f"CountingTelemetry({hot})"


@dataclass(frozen=True)
class FlowTelemetrySummary:
    """One flow's final counters, ready to cross a process boundary.

    This is what campaign workers ship back to the parent instead of a
    live sink: a value, keyed by the flow id, that the
    :class:`~repro.telemetry.campaign.CampaignTelemetry` aggregator
    merges in spec order.
    """

    flow_id: str
    counters: Mapping[str, int] = field(default_factory=dict)

    def get(self, name: str) -> int:
        return int(self.counters.get(name, 0))
