"""The telemetry protocol: hook points the instrumented stack calls.

:class:`Telemetry` declares every hook as a no-op method, so an
implementation overrides only what it cares about; the hooks mirror the
transport-layer observables the paper measures (per-packet loss,
timeout-recovery behaviour, congestion-phase transitions) plus the
engine-level counters a production deployment needs (events scheduled /
fired / cancelled, watchdog trips).

**Zero overhead when off.**  ``None`` and :class:`NullTelemetry` both
mean "telemetry disabled"; instrumented components normalise either to
``None`` via :func:`active` at construction time and guard every hook
call with a plain ``is not None`` check — the packet and event hot
paths execute exactly the same instructions as before the telemetry
layer existed.  The golden-trace digest and the engine-throughput
benchmark are pinned against that guarantee.

Hook-point map (where each hook fires):

========================  ====================================================
hook                      caller
========================  ====================================================
``on_event_scheduled``    ``Simulator.schedule`` / ``schedule_call``
``on_events_fired``       ``Simulator.run`` (batched, after the loop exits)
``on_event_cancelled``    ``EventHandle.cancel`` (first call only)
``on_packet_sent``        each packet of ``Link.send_burst`` /
                          ``BottleneckLink.send_burst``, in burst order
``on_packet_dropped``     the loss / overflow branch, right after its send
``on_packet_delivered``   the link's deliver callback actually firing
``on_rto_armed``          the sender arming its retransmission timer
``on_rto_fired``          a retransmission timeout actually handled
``on_phase_transition``   every congestion-phase change at the sender
``on_budget_exceeded``    ``run_flow`` when a watchdog budget trips
========================  ====================================================
"""

from __future__ import annotations

from typing import Optional

__all__ = ["NullTelemetry", "Telemetry", "active"]


class Telemetry:
    """Base class / protocol for telemetry sinks: every hook is a no-op.

    Subclass and override the hooks you need; see the module docstring
    for when each fires.  Implementations must not raise from hooks and
    must not perturb simulation state — they observe, never steer.
    """

    __slots__ = ()

    # -- engine ---------------------------------------------------------

    def on_event_scheduled(self) -> None:
        """One event pushed onto the engine's queue."""

    def on_events_fired(self, count: int) -> None:
        """``count`` callbacks executed by a ``Simulator.run`` call."""

    def on_event_cancelled(self) -> None:
        """A scheduled event was cancelled before firing."""

    # -- channel --------------------------------------------------------

    def on_packet_sent(self, direction: str, time: float) -> None:
        """One wire transmission entered a link (``"data"`` or ``"ack"``)."""

    def on_packet_dropped(self, direction: str, time: float) -> None:
        """The channel (loss model or queue overflow) dropped it."""

    def on_packet_delivered(self, direction: str, time: float) -> None:
        """It survived and reached the receiving endpoint."""

    # -- sender ---------------------------------------------------------

    def on_rto_armed(self, time: float, rto: float) -> None:
        """The retransmission timer was (re)armed for ``rto`` seconds."""

    def on_rto_fired(
        self, time: float, seq: int, spurious: bool, backoff_exponent: int
    ) -> None:
        """A retransmission timeout was handled (outstanding data existed).

        ``spurious`` is ground truth only a simulator can know: the
        oldest outstanding segment's latest copy was *not* dropped by
        the channel, so the retransmission was unnecessary — the
        paper's spurious-timeout phenomenon (Section III-B.2).
        """

    def on_phase_transition(
        self, time: float, old_phase: str, new_phase: str, cwnd: float
    ) -> None:
        """The sender's congestion phase changed."""

    # -- robustness -----------------------------------------------------

    def on_budget_exceeded(self, kind: str) -> None:
        """A watchdog budget tripped (``"events"``/``"sim-time"``/``"wall-clock"``)."""


class NullTelemetry(Telemetry):
    """The default sink: explicitly disabled telemetry.

    Components treat a ``NullTelemetry`` exactly like ``None`` (see
    :func:`active`), so passing one costs nothing on any hot path — it
    exists so call sites can say ``telemetry=NullTelemetry()`` instead
    of the ambiguous ``telemetry=None`` and so user code can hold a
    sink-shaped object unconditionally.
    """

    __slots__ = ()


def active(telemetry: Optional[Telemetry]) -> Optional[Telemetry]:
    """Normalise a telemetry argument to ``None`` when it is disabled.

    Instrumented components call this once at construction and keep the
    result, so their per-packet / per-event guard is a single
    ``is not None`` check — the zero-overhead-when-off contract.
    """
    if telemetry is None or isinstance(telemetry, NullTelemetry):
        return None
    return telemetry
