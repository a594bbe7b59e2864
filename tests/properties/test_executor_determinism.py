"""Property: the parallel backend is byte-identical to the serial one.

This is the executor's central contract (and the acceptance bar for
``generate_dataset(..., workers=N)``): moving flows into worker
processes must not change a single byte of any trace or of the campaign
report.  Determinism holds because every random stream is derived from
the spec's own seed and specs are self-contained picklable values.

Traces are compared pickle-by-pickle: a *batched* pickle of the whole
list can legitimately differ between the two runs through memoised
references to objects shared in-process, without any value differing.
"""

import pickle

from repro.exec import Executor, FlowSpec
from repro.hsr import CHINA_MOBILE, CHINA_TELECOM, hsr_scenario
from repro.traces.generator import generate_dataset


def _trace_pickles(dataset):
    return [pickle.dumps(trace) for trace in dataset.traces]


class TestCampaignBackendEquivalence:
    def test_dataset_identical_serial_vs_pool(self):
        serial = generate_dataset(seed=2015, duration=5.0, flow_scale=0.02)
        pooled = generate_dataset(
            seed=2015, duration=5.0, flow_scale=0.02, workers=2
        )
        assert serial.flow_count == pooled.flow_count > 0
        assert _trace_pickles(serial) == _trace_pickles(pooled)
        assert serial.report.to_json() == pooled.report.to_json()

    def test_dataset_identical_serial_vs_auto(self):
        serial = generate_dataset(seed=2015, duration=5.0, flow_scale=0.02)
        auto = generate_dataset(
            seed=2015, duration=5.0, flow_scale=0.02, workers="auto"
        )
        assert serial.flow_count == auto.flow_count > 0
        assert _trace_pickles(serial) == _trace_pickles(auto)
        assert serial.report.to_json() == auto.report.to_json()

    def test_mixed_spec_batch_identical(self):
        # Mixed cc variants and scenarios through the raw executor.
        specs = [
            FlowSpec(
                scenario=hsr_scenario(CHINA_MOBILE if i % 2 else CHINA_TELECOM),
                duration=4.0,
                seed=100 + i,
                cc="newreno" if i % 2 else "reno",
                flow_id=f"prop/{i}",
            )
            for i in range(4)
        ]
        serial = Executor.for_workers(1).run(specs)
        pooled = Executor.for_workers(2).run(specs)
        assert serial.report.to_json() == pooled.report.to_json()
        for left, right in zip(serial.outcomes, pooled.outcomes):
            assert pickle.dumps(left.result.log) == pickle.dumps(right.result.log)
            assert left.result.throughput == right.result.throughput
