"""Tests for the bandwidth-limited bottleneck link."""

import pytest

from repro.simulator import ConnectionConfig, NoLoss, run_flow
from repro.simulator.bottleneck import BottleneckLink
from repro.simulator.channel import TraceDrivenLoss
from repro.simulator.engine import Simulator
from repro.util.errors import ConfigurationError


class TestUnit:
    def test_serialisation_spacing(self):
        sim = Simulator()
        arrivals = []
        link = BottleneckLink(
            sim, delay=0.01, rate_pps=10.0,
            deliver=lambda pkt, t: arrivals.append(t),
        )
        for _ in range(3):
            link.send_burst(("x",))
        sim.run()
        # service times 0.1, 0.2, 0.3 plus 0.01 propagation
        assert arrivals == pytest.approx([0.11, 0.21, 0.31])

    def test_overflow_drops(self):
        sim = Simulator()
        arrivals, drops = [], []
        link = BottleneckLink(
            sim, delay=0.01, rate_pps=10.0, buffer_packets=2,
            deliver=lambda pkt, t: arrivals.append(pkt),
            on_drop=lambda pkt, t: drops.append(pkt),
        )
        for index in range(5):
            link.send_burst((index,))
        sim.run()
        assert len(arrivals) == 2
        assert len(drops) == 3
        assert link.overflows == 3

    def test_queue_drains_between_bursts(self):
        sim = Simulator()
        arrivals = []
        link = BottleneckLink(
            sim, delay=0.01, rate_pps=10.0, buffer_packets=2,
            deliver=lambda pkt, t: arrivals.append(pkt),
        )
        link.send_burst((1,))
        link.send_burst((2,))
        sim.schedule(1.0, lambda: link.send_burst((3,)))  # queue empty again by then
        sim.run()
        assert arrivals == [1, 2, 3]
        assert link.overflows == 0

    def test_random_loss_model_applies(self):
        sim = Simulator()
        arrivals = []
        link = BottleneckLink(
            sim, delay=0.01, rate_pps=100.0, loss_model=TraceDrivenLoss([0]),
            deliver=lambda pkt, t: arrivals.append(pkt),
        )
        link.send_burst(("lost",))
        link.send_burst(("ok",))
        sim.run()
        assert arrivals == ["ok"]
        assert link.dropped == 1

    def test_loss_fraction_counts_both_kinds(self):
        sim = Simulator()
        link = BottleneckLink(
            sim, delay=0.01, rate_pps=10.0, buffer_packets=1,
            loss_model=TraceDrivenLoss([0]),
            deliver=lambda pkt, t: None,
        )
        for _ in range(4):
            link.send_burst(("x",))  # 1 random drop, then queue=1 -> 2 overflows
        assert link.loss_fraction == pytest.approx(3 / 4)

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            BottleneckLink(sim, delay=0.0, rate_pps=10.0)
        with pytest.raises(ConfigurationError):
            BottleneckLink(sim, delay=0.01, rate_pps=0.0)
        with pytest.raises(ConfigurationError):
            BottleneckLink(sim, delay=0.01, rate_pps=10.0, buffer_packets=0)

    def test_missing_deliver_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            BottleneckLink(Simulator(), delay=0.01, rate_pps=10.0)


class TestEndToEnd:
    def test_throughput_capped_near_rate(self):
        config = ConnectionConfig(duration=30.0, wmax=64.0)
        result = run_flow(
            config, NoLoss(), NoLoss(), seed=1,
            bottleneck_rate=200.0, bottleneck_buffer=20,
        )
        assert result.throughput <= 200.0 * 1.01
        assert result.throughput >= 100.0  # AIMD utilises a good share

    def test_congestive_losses_emerge(self):
        config = ConnectionConfig(duration=30.0, wmax=64.0)
        result = run_flow(
            config, NoLoss(), NoLoss(), seed=1,
            bottleneck_rate=200.0, bottleneck_buffer=10,
        )
        assert result.log.data_lost > 0  # drop-tail overflow, no channel loss

    def test_larger_buffer_fewer_losses(self):
        config = ConnectionConfig(duration=30.0, wmax=64.0)
        small = run_flow(config, NoLoss(), NoLoss(), seed=1,
                         bottleneck_rate=200.0, bottleneck_buffer=8)
        large = run_flow(config, NoLoss(), NoLoss(), seed=1,
                         bottleneck_rate=200.0, bottleneck_buffer=64)
        assert large.log.data_lost <= small.log.data_lost

    def test_uncapped_flow_faster(self):
        config = ConnectionConfig(duration=20.0, wmax=64.0)
        free = run_flow(config, NoLoss(), NoLoss(), seed=1)
        capped = run_flow(config, NoLoss(), NoLoss(), seed=1,
                          bottleneck_rate=150.0)
        assert capped.throughput < free.throughput
