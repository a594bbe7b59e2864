"""Timeline telemetry: phase-tagged event records for diagnosis.

The HSR measurement studies diagnose pathologies from *when* things
happen relative to the congestion phase — a burst of ACK drops during
``timeout_recovery`` reads completely differently from the same burst
in ``congestion_avoidance``.  :class:`TimelineTelemetry` extends the
counting sink with an ordered list of :class:`TimelineEvent` records,
each tagged with the sender phase current at that instant.

Per-packet send/delivery events are not recorded by default (a 60 s
HSR flow transmits tens of thousands of packets); pass
``record_packets=True`` for short diagnostic runs that want them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.telemetry.counters import CountingTelemetry

__all__ = ["TimelineEvent", "TimelineTelemetry"]

#: The phase every flow starts in (mirrors the sender's initial state).
_INITIAL_PHASE = "slow_start"


@dataclass(frozen=True, slots=True)
class TimelineEvent:
    """One instrumented occurrence, tagged with the congestion phase."""

    time: float
    kind: str  # "phase" | "rto_armed" | "rto_fired" | "drop" | "send" | "delivery" | "budget"
    detail: str
    phase: str


class TimelineTelemetry(CountingTelemetry):
    """Counters plus a phase-tagged timeline of notable events."""

    __slots__ = ("events", "record_packets", "_phase")

    def __init__(self, record_packets: bool = False) -> None:
        super().__init__()
        self.events: List[TimelineEvent] = []
        self.record_packets = record_packets
        self._phase = _INITIAL_PHASE

    @property
    def current_phase(self) -> str:
        """The congestion phase events are currently tagged with."""
        return self._phase

    def _record(self, time: float, kind: str, detail: str) -> None:
        self.events.append(
            TimelineEvent(time=time, kind=kind, detail=detail, phase=self._phase)
        )

    # -- hooks ----------------------------------------------------------

    def on_packet_sent(self, direction: str, time: float) -> None:
        super().on_packet_sent(direction, time)
        if self.record_packets:
            self._record(time, "send", direction)

    def on_packet_dropped(self, direction: str, time: float) -> None:
        super().on_packet_dropped(direction, time)
        self._record(time, "drop", direction)

    def on_packet_delivered(self, direction: str, time: float) -> None:
        super().on_packet_delivered(direction, time)
        if self.record_packets:
            self._record(time, "delivery", direction)

    def on_rto_armed(self, time: float, rto: float) -> None:
        super().on_rto_armed(time, rto)
        if self.record_packets:
            self._record(time, "rto_armed", f"rto={rto:.6g}")

    def on_rto_fired(
        self, time: float, seq: int, spurious: bool, backoff_exponent: int
    ) -> None:
        super().on_rto_fired(time, seq, spurious, backoff_exponent)
        tag = "spurious" if spurious else "genuine"
        self._record(
            time, "rto_fired", f"seq={seq} {tag} backoff={backoff_exponent}"
        )

    def on_phase_transition(
        self, time: float, old_phase: str, new_phase: str, cwnd: float
    ) -> None:
        super().on_phase_transition(time, old_phase, new_phase, cwnd)
        # Tag the transition event itself with the phase being *left*,
        # then switch: subsequent events belong to the new phase.
        self._record(time, "phase", f"{old_phase} -> {new_phase} cwnd={cwnd:.6g}")
        self._phase = new_phase

    def on_budget_exceeded(self, kind: str) -> None:
        super().on_budget_exceeded(kind)
        self._record(0.0, "budget", kind)

    # -- queries --------------------------------------------------------

    def events_of_kind(self, kind: str) -> List[TimelineEvent]:
        return [event for event in self.events if event.kind == kind]

    def events_in_phase(self, phase: str) -> List[TimelineEvent]:
        return [event for event in self.events if event.phase == phase]
