"""CountingTelemetry reconciles exactly with the flow log.

The counters are a *live* view of what the log records post-hoc; any
divergence means a hook is misplaced (double-counted, skipped, or
observing the wrong layer).  Reconciliation is therefore exact, not
approximate.
"""

import pytest

from repro.simulator.channel import BernoulliLoss, GilbertElliottLoss
from repro.simulator.connection import ConnectionConfig, run_flow
from repro.telemetry import COUNTER_NAMES, CountingTelemetry, FlowTelemetrySummary
from repro.util.rng import RngStream


def _lossy_flow(
    telemetry, seed=11, duration=25.0, variant="reno", bottleneck_rate=None
):
    return run_flow(
        ConnectionConfig(duration=duration, jitter_sigma=0.1),
        data_loss=BernoulliLoss(0.012, RngStream(seed, "data")),
        ack_loss=GilbertElliottLoss(
            RngStream(seed, "ack"), mean_good_duration=5.0, mean_bad_duration=0.3
        ),
        seed=seed,
        variant=variant,
        telemetry=telemetry,
        bottleneck_rate=bottleneck_rate,
        bottleneck_buffer=8,
    )


class TestReconciliation:
    @pytest.mark.parametrize(
        "variant, bottleneck_rate",
        [
            pytest.param("reno", None, id="reno"),
            pytest.param("newreno", None, id="newreno"),
            # a drop-tail queue: overflow drops report through the same
            # on_packet_dropped hook and on_drop mark as random losses
            pytest.param("reno", 150.0, id="reno-bottleneck"),
        ],
    )
    def test_counters_match_flow_log(self, variant, bottleneck_rate):
        telemetry = CountingTelemetry()
        result = _lossy_flow(
            telemetry, variant=variant, bottleneck_rate=bottleneck_rate
        )
        log = result.log

        assert telemetry.data_sent == log.data_sent
        assert telemetry.data_dropped == log.data_lost
        assert telemetry.acks_sent == log.acks_sent
        assert telemetry.acks_dropped == log.acks_lost
        assert telemetry.packets_sent == log.data_sent + log.acks_sent
        assert telemetry.packets_dropped == log.data_lost + log.acks_lost

        delivered = sum(
            1 for p in log.data_packets if p.arrival_time is not None
        ) + sum(1 for a in log.acks if a.arrival_time is not None)
        assert telemetry.packets_delivered == delivered

        assert telemetry.rto_fired == len(log.timeouts)
        assert 0 <= telemetry.rto_spurious <= telemetry.rto_fired

        phase_changes = sum(
            1
            for before, after in zip(log.cwnd_samples, log.cwnd_samples[1:])
            if before.phase != after.phase
        )
        assert telemetry.cwnd_phase_transitions == phase_changes

    def test_direction_split_sums_to_totals(self):
        telemetry = CountingTelemetry()
        _lossy_flow(telemetry)
        assert telemetry.packets_sent == telemetry.data_sent + telemetry.acks_sent
        assert (
            telemetry.packets_dropped
            == telemetry.data_dropped + telemetry.acks_dropped
        )
        assert (
            telemetry.packets_delivered
            == telemetry.data_delivered + telemetry.acks_delivered
        )

    def test_engine_counters_are_consistent(self):
        telemetry = CountingTelemetry()
        _lossy_flow(telemetry)
        assert telemetry.events_scheduled > 0
        # Events fired plus those still queued/cancelled account for
        # everything scheduled; nothing fires that was never scheduled.
        assert telemetry.events_fired <= telemetry.events_scheduled
        assert telemetry.events_cancelled <= telemetry.events_scheduled

    def test_rto_armed_covers_every_fire(self):
        telemetry = CountingTelemetry()
        _lossy_flow(telemetry)
        assert telemetry.rto_armed >= telemetry.rto_fired

    def test_clean_channel_has_no_drops_or_timeouts(self):
        telemetry = CountingTelemetry()
        run_flow(ConnectionConfig(duration=10.0), telemetry=telemetry)
        assert telemetry.packets_dropped == 0
        assert telemetry.rto_fired == 0
        assert telemetry.budget_trips == 0
        assert telemetry.packets_sent > 0


class TestInstrumentationIsInert:
    def test_instrumented_flow_is_bit_identical_to_plain(self):
        """Telemetry observes; it must never perturb the simulation."""
        import pickle

        plain = _lossy_flow(None, seed=23)
        counted = _lossy_flow(CountingTelemetry(), seed=23)
        assert pickle.dumps(plain.log) == pickle.dumps(counted.log)


class TestSummaries:
    def test_summarise_round_trips_every_counter(self):
        telemetry = CountingTelemetry()
        _lossy_flow(telemetry)
        summary = telemetry.summarise("flow/0")
        assert isinstance(summary, FlowTelemetrySummary)
        assert summary.flow_id == "flow/0"
        for name in COUNTER_NAMES:
            assert summary.get(name) == getattr(telemetry, name)

    def test_as_dict_preserves_declaration_order(self):
        telemetry = CountingTelemetry()
        assert tuple(telemetry.as_dict()) == COUNTER_NAMES

    def test_summary_pickles(self):
        import pickle

        telemetry = CountingTelemetry()
        _lossy_flow(telemetry)
        summary = telemetry.summarise("f")
        clone = pickle.loads(pickle.dumps(summary))
        assert clone == summary
