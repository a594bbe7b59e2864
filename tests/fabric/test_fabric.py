"""Coordinator, worker, and FabricBackend end to end on localhost.

The fabric's acceptance bar is the executor's: outcomes in batch
order, reports byte-identical to serial, however the work was sharded
or which worker ran it.  These tests run real HTTP over the loopback
— an in-process worker loop against a served coordinator, and the
full backend with spawned worker subprocesses.
"""

import base64
import http.client
import json
import pickle
from urllib.parse import urlsplit

import pytest

from repro.exec import Executor, FlowSpec
from repro.exec.executor import _execute_payload
from repro.fabric import (
    CampaignCoordinator,
    FabricBackend,
    FabricConfig,
    FabricWorker,
    current_fabric_config,
    fabric_scope,
)
from repro.hsr import CHINA_MOBILE, CHINA_TELECOM, hsr_scenario
from repro.robustness.campaign import RetryPolicy
from repro.store import ResultStore, store_scope
from repro.util.errors import ConfigurationError


def _specs(n=4, duration=3.0):
    return [
        FlowSpec(
            scenario=hsr_scenario(CHINA_MOBILE if i % 2 else CHINA_TELECOM),
            duration=duration,
            seed=900 + i,
            cc="newreno" if i % 2 else "reno",
            flow_id=f"fabric/{i}",
        )
        for i in range(n)
    ]


def _payloads(n=1, duration=1.0):
    """Executor payloads of short flows, as ``Executor.run`` submits them."""
    return [
        (index, spec, RetryPolicy())
        for index, spec in enumerate(_specs(n, duration))
    ]


def _digest(outcomes):
    return [
        (o.index, o.spec.flow_id, pickle.dumps(o.result.log)) for o in outcomes
    ]


def _request(url, method, path, body=None):
    """One raw request on a fresh connection: (status, decoded JSON)."""
    parts = urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestCoordinatorAndWorker:
    def test_in_process_worker_drains_the_campaign(self):
        payloads = _payloads(7)
        coordinator = CampaignCoordinator(payloads, shard_size=2)
        with coordinator.serving() as url:
            worker = FabricWorker(url, worker_id="t1", poll_s=0.01)
            assert worker.run() == 0
            results = coordinator.wait(timeout_s=5.0)
        expected = [_execute_payload(payload) for payload in payloads]
        assert _digest(results) == _digest(expected)
        assert worker.executed == 7
        info = coordinator.progress_info()
        assert info["completed"] == 7
        assert info["workers_seen"] == ["t1"]
        assert info["completions_rejected"] == 0

    def test_second_worker_joins_a_drained_campaign_cleanly(self):
        coordinator = CampaignCoordinator(_payloads(), shard_size=4)
        with coordinator.serving() as url:
            assert FabricWorker(url, worker_id="a", poll_s=0.01).run() == 0
            late = FabricWorker(url, worker_id="b", poll_s=0.01)
            assert late.run() == 0  # sees "done", exits clean
            assert late.executed == 0

    def test_worker_against_a_dead_coordinator_exits_nonzero(self):
        coordinator = CampaignCoordinator(_payloads())
        with coordinator.serving() as url:
            pass  # server torn down; url now points at nothing
        worker = FabricWorker(url, worker_id="orphan", poll_s=0.01)
        worker.client.RETRIES = 1
        assert worker.run() == 1

    def test_wait_timeout_raises(self):
        coordinator = CampaignCoordinator(_payloads())
        with pytest.raises(TimeoutError):
            coordinator.wait(poll_s=0.01, timeout_s=0.05)

    def test_campaign_carries_no_function(self):
        coordinator = CampaignCoordinator(_payloads(2))
        with coordinator.serving() as url:
            status, campaign = _request(url, "GET", "/campaign")
        assert status == 200
        assert "fn" not in campaign
        assert campaign["total_payloads"] == 2


class TestCompleteValidation:
    """A malformed ``POST /complete`` gets 400 before the lease table
    sees it, so the shard's lease stays live for a well-formed one."""

    @pytest.fixture
    def leased(self):
        coordinator = CampaignCoordinator(_payloads(2), shard_size=2)
        with coordinator.serving() as url:
            status, lease = _request(
                url, "POST", "/lease", json.dumps({"worker": "t"}).encode()
            )
            assert status == 200 and lease["status"] == "lease"
            yield coordinator, url, lease

    @staticmethod
    def _completion(lease, outcomes=None, **overrides):
        if outcomes is None:
            payloads = pickle.loads(base64.b64decode(lease["payloads"]))
            outcomes = [_execute_payload(payload) for payload in payloads]
        body = {
            "shard": lease["shard"],
            "epoch": lease["epoch"],
            "worker": "t",
            "outcomes": base64.b64encode(pickle.dumps(outcomes)).decode("ascii"),
        }
        body.update(overrides)
        return {key: value for key, value in body.items() if value is not None}

    @staticmethod
    def _assert_rejected_and_lease_live(coordinator, url, lease, body):
        status, verdict = _request(url, "POST", "/complete", body)
        assert status == 400
        assert "error" in verdict
        assert coordinator.leases.done_count == 0
        assert coordinator.completed == 0
        good = TestCompleteValidation._completion(lease)
        status, verdict = _request(
            url, "POST", "/complete", json.dumps(good).encode()
        )
        assert status == 200 and verdict["accepted"] is True

    def test_body_that_is_not_json(self, leased):
        coordinator, url, lease = leased
        self._assert_rejected_and_lease_live(
            coordinator, url, lease, b"{not json"
        )

    @pytest.mark.parametrize("field", ["shard", "epoch"])
    def test_body_missing_shard_or_epoch(self, leased, field):
        coordinator, url, lease = leased
        body = self._completion(lease, **{field: None})
        self._assert_rejected_and_lease_live(
            coordinator, url, lease, json.dumps(body).encode()
        )

    @pytest.mark.parametrize("shard", [-1, 99])
    def test_shard_not_in_the_plan(self, leased, shard):
        coordinator, url, lease = leased
        body = self._completion(lease, shard=shard)
        self._assert_rejected_and_lease_live(
            coordinator, url, lease, json.dumps(body).encode()
        )

    def test_outcome_count_differs_from_the_shard(self, leased):
        coordinator, url, lease = leased
        payloads = pickle.loads(base64.b64decode(lease["payloads"]))
        short = [_execute_payload(payload) for payload in payloads][:-1]
        body = self._completion(lease, outcomes=short)
        self._assert_rejected_and_lease_live(
            coordinator, url, lease, json.dumps(body).encode()
        )


class TestFabricBackend:
    def test_backend_matches_serial_byte_for_byte(self):
        specs = _specs()
        serial = Executor.for_workers(1).run(specs)
        fabric = Executor.for_workers("fabric")
        config = FabricConfig(workers=2, shard_size=2, poll_s=0.02)
        with fabric_scope(config):
            distributed = fabric.run(specs)
        assert distributed.report.to_json() == serial.report.to_json()
        for left, right in zip(serial.outcomes, distributed.outcomes):
            assert pickle.dumps(left.result.log) == pickle.dumps(right.result.log)
        backend = fabric.backend  # the FabricBackend itself
        assert backend.last_stats["items"] == len(specs)
        assert backend.last_stats["workers_spawned"] == 2
        assert backend.last_stats["restarts"] == 0

    def test_store_backed_fabric_warm_rerun_spawns_nothing(self, tmp_path):
        specs = _specs(3)
        store = ResultStore(tmp_path / "store")
        config = FabricConfig(workers=1, shard_size=2, store=str(store.root))
        serial = Executor.for_workers(1).run(specs)
        with fabric_scope(config), store_scope(store):
            cold = Executor.for_workers("fabric").run(specs)
        assert cold.report.cache_misses == len(specs)
        assert store.stats().entries == len(specs)
        with fabric_scope(config), store_scope(store):
            executor = Executor.for_workers("fabric")
            warm = executor.run(specs)
        assert warm.report.cache_hits == len(specs)
        # the all-hits batch never reaches the fabric at all: the cache
        # partition serves everything, no coordinator, no processes
        assert executor.backend.last_stats is None
        assert warm.report.to_json() == serial.report.to_json()

    def test_empty_batch_short_circuits(self):
        backend = FabricBackend(FabricConfig(workers=2))
        assert backend.map(_execute_payload, []) == []
        assert backend.last_stats["workers_spawned"] == 0

    def test_backend_runs_executor_payloads_only(self):
        backend = FabricBackend(FabricConfig(workers=0))
        with pytest.raises(ConfigurationError, match="executor payloads"):
            backend.map(len, _payloads())
        assert backend.last_stats is None

    def test_backend_is_self_supervising(self):
        assert FabricBackend.self_supervising is True
        executor = Executor.for_workers("fabric")
        assert executor.backend.name == "fabric"

    def test_unknown_worker_spelling_mentions_fabric(self):
        with pytest.raises(ConfigurationError, match="fabric"):
            Executor.for_workers("cluster")


class TestFabricConfig:
    def test_scope_installs_and_restores(self):
        config = FabricConfig(workers=3)
        assert current_fabric_config() is None
        with fabric_scope(config):
            assert current_fabric_config() is config
            with fabric_scope(None):  # None is a pass-through, not a reset
                assert current_fabric_config() is config
        assert current_fabric_config() is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FabricConfig(workers=-1)
        with pytest.raises(ConfigurationError):
            FabricConfig(max_worker_restarts=-1)
        with pytest.raises(ConfigurationError):
            FabricConfig(poll_s=0.0)
