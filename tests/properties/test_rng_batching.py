"""Property: batched RNG draws match scalar draws element-for-element.

This is the invariant that lets the channel loss models consume their
streams through pre-drawn blocks (see ``repro.simulator.channel``)
without perturbing a single loss decision: ``random_block(n)`` must
yield exactly the values ``n`` successive ``random()`` calls would,
and the derived blocks must apply the same per-element expressions —
including the 0/1 short-circuits that consume no underlying draw — as
their scalar counterparts.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import RngStream

seeds = st.integers(min_value=0, max_value=2**32 - 1)
sizes = st.integers(min_value=0, max_value=300)


class TestRandomBlock:
    @given(seed=seeds, n=sizes)
    @settings(max_examples=50, deadline=None)
    def test_matches_scalar_element_for_element(self, seed, n):
        scalar = RngStream(seed)
        batched = RngStream(seed)
        assert list(batched.random_block(n)) == [scalar.random() for _ in range(n)]

    @given(seed=seeds, n=st.integers(min_value=1, max_value=64))
    @settings(max_examples=20, deadline=None)
    def test_returns_reused_preallocated_buffer(self, seed, n):
        stream = RngStream(seed)
        first = stream.random_block(n)
        second = stream.random_block(n)
        # Same buffer object per (stream, size): no fresh list per call.
        assert first is second

    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_stream_position_identical_afterwards(self, seed):
        scalar = RngStream(seed)
        batched = RngStream(seed)
        for _ in range(7):
            scalar.random()
        batched.random_block(7)
        assert scalar.random() == batched.random()

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            RngStream(1).random_block(-1)


class TestBernoulliBlock:
    @given(
        seed=seeds,
        n=sizes,
        probability=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_scalar_element_for_element(self, seed, n, probability):
        scalar = RngStream(seed)
        batched = RngStream(seed)
        expected = [scalar.bernoulli(probability) for _ in range(n)]
        assert batched.bernoulli_block(probability, n) == expected

    @given(seed=seeds, probability=st.sampled_from([-0.5, 0.0, 1.0, 1.5]))
    @settings(max_examples=10, deadline=None)
    def test_extremes_short_circuit_without_consuming_draws(self, seed, probability):
        untouched = RngStream(seed)
        batched = RngStream(seed)
        outcomes = batched.bernoulli_block(probability, 25)
        assert outcomes == [probability >= 1.0] * 25
        # No underlying uniform was consumed, exactly like the scalar
        # bernoulli() short-circuit.
        assert batched.random() == untouched.random()

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            RngStream(1).bernoulli_block(0.5, -1)


class TestExpovariateBlock:
    @given(
        seed=seeds,
        n=sizes,
        rate=st.floats(min_value=1e-6, max_value=1e6),
    )
    @settings(max_examples=50, deadline=None)
    def test_bit_identical_to_scalar(self, seed, n, rate):
        scalar = RngStream(seed)
        batched = RngStream(seed)
        expected = [scalar.expovariate(rate) for _ in range(n)]
        assert list(batched.expovariate_block(rate, n)) == expected

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            RngStream(1).expovariate_block(2.0, -1)


class TestLognormalBlock:
    @given(
        seed=seeds,
        n=sizes,
        mu=st.floats(min_value=-5.0, max_value=5.0),
        sigma=st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_bit_identical_to_scalar(self, seed, n, mu, sigma):
        scalar = RngStream(seed)
        batched = RngStream(seed)
        expected = [scalar.lognormal(mu, sigma) for _ in range(n)]
        assert list(batched.lognormal_block(mu, sigma, n)) == expected

    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_stream_position_identical_afterwards(self, seed):
        scalar = RngStream(seed)
        batched = RngStream(seed)
        for _ in range(9):
            scalar.lognormal(-3.5, 1.0)
        batched.lognormal_block(-3.5, 1.0, 9)
        assert scalar.random() == batched.random()

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            RngStream(1).lognormal_block(0.0, 1.0, -1)


class TestBufferedLossEquivalence:
    """The channel models' block-buffered consumption must reproduce
    the scalar draw sequence decision-for-decision."""

    @given(seed=seeds, rate=st.floats(min_value=0.0, max_value=0.9))
    @settings(max_examples=25, deadline=None)
    def test_bernoulli_loss_matches_scalar_stream(self, seed, rate):
        from repro.simulator.channel import BernoulliLoss

        model = BernoulliLoss(rate, RngStream(seed))
        scalar = RngStream(seed)
        for step in range(500):
            assert model.is_lost(step * 0.01) == scalar.bernoulli(rate)

    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_gilbert_elliott_matches_scalar_replica(self, seed):
        from repro.simulator.channel import GilbertElliottLoss

        model = GilbertElliottLoss(
            RngStream(seed),
            mean_good_duration=0.5,
            mean_bad_duration=0.1,
            loss_good=0.01,
            loss_bad=0.8,
        )
        # Scalar replica of the same process, driven off an identical
        # stream with the pre-optimization scalar calls.
        rng = RngStream(seed)
        in_bad = False
        expires = rng.expovariate(1.0 / 0.5)
        for step in range(500):
            now = step * 0.01
            while now >= expires:
                in_bad = not in_bad
                expires += rng.expovariate(1.0 / (0.1 if in_bad else 0.5))
            expected = rng.bernoulli(0.8 if in_bad else 0.01)
            assert model.is_lost(now) == expected


def _make_model(name, seed):
    """Two calls with the same (name, seed) give identically-seeded models."""
    from repro.simulator.channel import (
        BernoulliLoss,
        CompositeLoss,
        GilbertElliottLoss,
        HandoffLoss,
        NoLoss,
        RoundCorrelatedLoss,
        TraceDrivenLoss,
    )

    rng = RngStream(seed, name)
    if name == "noloss":
        return NoLoss()
    if name == "bernoulli":
        return BernoulliLoss(0.23, rng)
    if name == "bernoulli_zero":
        return BernoulliLoss(0.0, rng)
    if name == "round_correlated":
        return RoundCorrelatedLoss(rng, trigger_rate=0.08, round_duration=0.2)
    if name == "gilbert_elliott":
        return GilbertElliottLoss(
            rng,
            mean_good_duration=0.4,
            mean_bad_duration=0.12,
            loss_good=0.02,
            loss_bad=0.85,
        )
    if name == "gilbert_elliott_default":
        # loss_good=0 / loss_bad=1 exercise the draw-free short-circuits.
        return GilbertElliottLoss(rng, mean_good_duration=0.4, mean_bad_duration=0.12)
    if name == "handoff":
        return HandoffLoss(
            rng, [(0.05, 0.3), (0.9, 1.1)], base_rate=0.05, loss_during=0.9
        )
    if name == "handoff_hard":
        return HandoffLoss(rng, [(0.05, 0.3)], base_rate=0.0, loss_during=1.0)
    if name == "trace_driven":
        return TraceDrivenLoss([0, 3, 4, 17, 40, 90])
    if name == "composite":
        return CompositeLoss(
            [
                BernoulliLoss(0.1, rng.spawn("bernoulli")),
                GilbertElliottLoss(
                    rng.spawn("ge"), mean_good_duration=0.4, mean_bad_duration=0.1
                ),
            ]
        )
    raise AssertionError(name)


MODEL_NAMES = [
    "noloss",
    "bernoulli",
    "bernoulli_zero",
    "round_correlated",
    "gilbert_elliott",
    "gilbert_elliott_default",
    "handoff",
    "handoff_hard",
    "trace_driven",
    "composite",
]

#: Non-decreasing times with runs of equal instants (a burst is a run of
#: equal send times), built from per-step increments.
increments = st.lists(
    st.sampled_from([0.0, 0.0, 0.0, 0.001, 0.01, 0.07, 0.4]),
    min_size=0,
    max_size=120,
)
chunkings = st.lists(st.integers(min_value=1, max_value=16), min_size=1, max_size=40)


class TestIsLostBlockEquivalence:
    """The base-class ``is_lost_block`` loop the links call must
    reproduce every model's scalar ``is_lost`` decision sequence
    element-for-element, for any partition of the same times into
    bursts."""

    @pytest.mark.parametrize("name", MODEL_NAMES)
    @given(seed=seeds, steps=increments, chunk_sizes=chunkings)
    @settings(max_examples=25, deadline=None)
    def test_block_matches_scalar_for_any_burst_partition(
        self, name, seed, steps, chunk_sizes
    ):
        times = []
        now = 0.0
        for step in steps:
            now += step
            times.append(now)
        scalar_model = _make_model(name, seed)
        block_model = _make_model(name, seed)
        expected = [scalar_model.is_lost(t) for t in times]
        got = []
        cursor = 0
        for size in chunk_sizes:
            if cursor >= len(times):
                break
            got.extend(block_model.is_lost_block(times[cursor : cursor + size]))
            cursor += size
        if cursor < len(times):
            got.extend(block_model.is_lost_block(times[cursor:]))
        assert got == expected

    @pytest.mark.parametrize("name", MODEL_NAMES)
    @given(seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_stream_position_identical_after_block(self, name, seed):
        if name in ("noloss", "trace_driven"):
            return  # draw-free models have no stream to check
        scalar_model = _make_model(name, seed)
        block_model = _make_model(name, seed)
        times = [0.0, 0.0, 0.0, 0.25, 0.25, 0.5, 1.0, 1.0]
        for t in times:
            scalar_model.is_lost(t)
        block_model.is_lost_block(times)
        # The next scalar decision agrees, so the underlying streams are
        # in the same position.
        for t in (1.5, 1.5, 2.0):
            assert block_model.is_lost(t) == scalar_model.is_lost(t)

    def test_base_class_default_loops_scalar(self):
        from repro.simulator.channel import LossModel

        class EveryThird(LossModel):
            def __init__(self):
                self.count = 0

            def is_lost(self, now):
                self.count += 1
                return self.count % 3 == 0

        model = EveryThird()
        # Third-party models that only implement the scalar hook get
        # block evaluation for free via the base-class default.
        assert model.is_lost_block([0.0] * 7) == [
            False, False, True, False, False, True, False,
        ]
