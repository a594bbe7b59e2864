"""Property: the fabric is byte-identical to serial, even through chaos.

The distributed leg of the determinism suite: a campaign run on the
fabric — workers over HTTP, shards under leases, a remote store in the
middle — must produce the same report bytes and trace pickles as a
serial run, including when a worker is SIGKILLed mid-shard and a fresh
worker attaches to finish the job.  Determinism survives because specs
carry their own seeds, the lease table's epoch rule accepts exactly
one completion per shard, and the executor merges outcomes in spec
order regardless of which worker produced them.
"""

import pickle

from repro.exec import Executor, FlowSpec
from repro.fabric import FabricConfig, fabric_scope
from repro.hsr import CHINA_MOBILE, CHINA_TELECOM, hsr_scenario
from repro.store import StoreServer, store_scope
from repro.traces.events import FlowMetadata


def _specs(n=4, duration=3.0):
    specs = []
    for i in range(n):
        flow_id = f"prop-fabric/{i}"
        metadata = FlowMetadata(
            flow_id=flow_id, provider="CM", technology="LTE", scenario="hsr",
            capture_month="2015-01", phone_model="Note 3",
            duration=duration, seed=640 + i,
        )
        specs.append(
            FlowSpec(
                scenario=hsr_scenario(CHINA_MOBILE if i % 2 else CHINA_TELECOM),
                duration=duration,
                seed=640 + i,
                cc="newreno" if i % 2 else "reno",
                flow_id=flow_id,
                metadata=metadata,
            )
        )
    return specs


def _trace_pickles(execution):
    return [pickle.dumps(outcome.result.log) for outcome in execution.outcomes]


class TestKillAndRejoin:
    def test_sigkilled_worker_mid_shard_changes_no_bytes(self):
        """Two workers, each told to SIGKILL itself after its second
        flow execution — with two-flow shards that lands mid-shard,
        with the lease unreturned.  The lease expires, a respawned
        worker (the 'fresh worker attaching') re-runs the shard, and
        the epoch rule keeps the dead worker's half-done work from
        ever counting.  Both first workers carry the hook because a
        lone chaos worker can attach after the other has already
        claimed and finished both shards, and then never dies."""
        specs = _specs()
        serial = Executor.for_workers(1).run(specs)
        config = FabricConfig(
            workers=2,
            shard_size=2,
            poll_s=0.02,
            lease_timeout_s=3.0,
            max_worker_restarts=4,
            extra_worker_args=(("--sigkill-after", "2"),) * 2,
        )
        fabric = Executor.for_workers("fabric")
        with fabric_scope(config):
            chaotic = fabric.run(specs)
        stats = fabric.backend.last_stats
        assert stats["restarts"] >= 1  # the chaos worker really died
        assert chaotic.report.to_json() == serial.report.to_json()
        assert _trace_pickles(chaotic) == _trace_pickles(serial)

    def test_kill_rejoin_with_remote_store_then_warm_rerun(self, tmp_path):
        """The full acceptance path: HTTP store, a worker SIGKILLed
        mid-campaign (both first workers carry the hook, as above),
        byte-identity with serial — then a warm rerun
        that serves every flow from the remote store and simulates
        nothing (the cache partition never even engages the fabric)."""
        specs = _specs()
        serial = Executor.for_workers(1).run(specs)
        with StoreServer(tmp_path / "store") as server:
            config = FabricConfig(
                workers=2,
                shard_size=2,
                poll_s=0.02,
                lease_timeout_s=3.0,
                max_worker_restarts=4,
                store=server.url,
                extra_worker_args=(("--sigkill-after", "2"),) * 2,
            )
            fabric = Executor.for_workers("fabric")
            with fabric_scope(config), store_scope(server.url):
                chaotic = fabric.run(specs)
            assert fabric.backend.last_stats["restarts"] >= 1
            assert chaotic.report.to_json() == serial.report.to_json()
            assert _trace_pickles(chaotic) == _trace_pickles(serial)
            # every flow banked over HTTP, even the dead worker's
            assert server.store.stats().entries == len(specs)
            warm_executor = Executor.for_workers("fabric")
            with fabric_scope(config), store_scope(server.url):
                warm = warm_executor.run(specs)
            assert warm.report.cache_hits == len(specs)
            assert warm.report.cache_misses == 0
            assert warm_executor.backend.last_stats is None  # fabric untouched
            assert warm.report.to_json() == serial.report.to_json()
            assert _trace_pickles(warm) == _trace_pickles(serial)
