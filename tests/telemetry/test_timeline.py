"""TimelineTelemetry: phase-tagged event records."""

from repro.simulator.channel import BernoulliLoss, Link, TraceDrivenLoss
from repro.simulator.connection import ConnectionConfig, run_flow
from repro.simulator.engine import Simulator
from repro.telemetry import TimelineTelemetry
from repro.util.rng import RngStream


def _flow(telemetry, seed=31, duration=25.0):
    return run_flow(
        ConnectionConfig(duration=duration),
        data_loss=BernoulliLoss(0.02, RngStream(seed, "data")),
        ack_loss=BernoulliLoss(0.01, RngStream(seed, "ack")),
        seed=seed,
        telemetry=telemetry,
    )


class TestTimeline:
    def test_records_drops_and_phase_transitions(self):
        telemetry = TimelineTelemetry()
        _flow(telemetry)
        drops = telemetry.events_of_kind("drop")
        phases = telemetry.events_of_kind("phase")
        assert len(drops) == telemetry.packets_dropped
        assert len(phases) == telemetry.cwnd_phase_transitions
        assert all(event.detail in ("data", "ack") for event in drops)

    def test_packet_events_off_by_default(self):
        telemetry = TimelineTelemetry()
        _flow(telemetry)
        assert telemetry.events_of_kind("send") == []
        assert telemetry.events_of_kind("delivery") == []

    def test_record_packets_captures_sends(self):
        telemetry = TimelineTelemetry(record_packets=True)
        _flow(telemetry, duration=5.0)
        assert len(telemetry.events_of_kind("send")) == telemetry.packets_sent
        assert (
            len(telemetry.events_of_kind("delivery")) == telemetry.packets_delivered
        )

    def test_burst_hooks_fire_per_packet_in_order(self):
        # A drop reports right after its own send, before the next
        # packet of the same burst is sent.
        telemetry = TimelineTelemetry(record_packets=True)
        link = Link(
            Simulator(telemetry=telemetry),
            delay=0.05,
            loss_model=TraceDrivenLoss([1]),
            deliver=lambda packet, time: None,
            telemetry=telemetry,
        )
        link.send_burst(("a", "b", "c"))
        assert [event.kind for event in telemetry.events] == [
            "send", "send", "drop", "send",
        ]

    def test_events_are_time_ordered(self):
        telemetry = TimelineTelemetry()
        _flow(telemetry)
        times = [event.time for event in telemetry.events]
        assert times == sorted(times)

    def test_phase_tags_track_sender_phases(self):
        telemetry = TimelineTelemetry()
        log = _flow(telemetry).log
        # The set of phases events were tagged with must be a subset of
        # the phases the sender actually logged.
        logged_phases = {sample.phase for sample in log.cwnd_samples}
        tagged_phases = {event.phase for event in telemetry.events}
        assert tagged_phases <= logged_phases

    def test_transition_event_is_tagged_with_departing_phase(self):
        telemetry = TimelineTelemetry()
        _flow(telemetry)
        for event in telemetry.events_of_kind("phase"):
            old_phase = event.detail.split(" -> ")[0]
            assert event.phase == old_phase

    def test_rto_fired_events_name_spuriousness(self):
        telemetry = TimelineTelemetry()
        _flow(telemetry)
        fired = telemetry.events_of_kind("rto_fired")
        assert len(fired) == telemetry.rto_fired
        spurious = [event for event in fired if "spurious" in event.detail]
        assert len(spurious) == telemetry.rto_spurious
