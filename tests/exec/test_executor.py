"""Unit tests for the executor: backends, retries, quarantine, reports."""

import pickle

import pytest

import repro.exec.executor as executor_module
from repro.exec import (
    Executor,
    FlowSpec,
    ProcessPoolBackend,
    SerialBackend,
    simulate_spec,
)
from repro.exec.executor import _execute_payload
from repro.robustness.campaign import CampaignReport, RetryPolicy
from repro.robustness.watchdog import Watchdog, watchdog_scope
from repro.simulator.connection import ConnectionConfig
from repro.util.errors import ConfigurationError, SimulationError


def spec(seed=0, flow_id="flow", **overrides) -> FlowSpec:
    base = dict(duration=2.0, wmax=16.0)
    base.update(overrides)
    return FlowSpec(config=ConnectionConfig(**base), seed=seed, flow_id=flow_id)


def payloads(count, **overrides):
    """Executor payloads, as ``Executor.run`` hands them to a backend."""
    return [
        (index, spec(seed=index, flow_id=f"p/{index}", **overrides), RetryPolicy())
        for index in range(count)
    ]


def log_pickles(outcomes):
    return [pickle.dumps(outcome.result.log) for outcome in outcomes]


class TestSimulateSpec:
    def test_returns_result_without_trace(self):
        result, trace = simulate_spec(spec(seed=1))
        assert result.throughput > 0.0
        assert trace is None

    def test_same_spec_same_bytes(self):
        first, _ = simulate_spec(spec(seed=4))
        second, _ = simulate_spec(spec(seed=4))
        assert first.log.data_sent == second.log.data_sent
        assert first.throughput == second.throughput


class TestBackendSelection:
    def test_for_workers_serial(self):
        assert isinstance(Executor.for_workers(1).backend, SerialBackend)
        assert isinstance(Executor.for_workers(0).backend, SerialBackend)

    def test_for_workers_pool(self):
        backend = Executor.for_workers(4).backend
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.workers == 4

    def test_pool_rejects_nonpositive_workers(self):
        with pytest.raises(ConfigurationError):
            ProcessPoolBackend(0)

    def test_pool_with_one_worker_runs_inline(self):
        # No pool is spun up, so results come back regardless of pickling.
        batch = payloads(3)
        outcomes = ProcessPoolBackend(1).map(
            lambda payload: _execute_payload(payload), batch
        )
        serial = SerialBackend().map(_execute_payload, batch)
        assert log_pickles(outcomes) == log_pickles(serial)

    def test_lockstep_rejected_naming_the_valid_modes(self, capsys):
        from repro.experiments.runner import _build_parser

        valid = "integer, 'auto', or 'fabric'"
        with pytest.raises(ConfigurationError, match=valid):
            Executor.for_workers("lockstep")
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["run", "table1", "--workers", "lockstep"])
        assert valid in capsys.readouterr().err


class TestExecutorRun:
    def test_all_success_accounting(self):
        execution = Executor().run([spec(seed=i, flow_id=f"f/{i}") for i in range(3)])
        report = execution.report
        assert (report.attempted, report.succeeded, report.quarantined) == (3, 3, 0)
        assert report.retried == 0 and not report.failures
        assert all(outcome.ok for outcome in execution.outcomes)
        assert len(execution.results) == 3

    def test_report_accumulates_across_runs(self):
        report = CampaignReport()
        Executor().run([spec(seed=0)], report=report)
        Executor().run([spec(seed=1)], report=report)
        assert report.attempted == 2 and report.succeeded == 2

    def test_outcomes_keep_spec_order(self):
        execution = Executor().run(
            [spec(seed=i, flow_id=f"f/{i}") for i in range(4)]
        )
        assert [outcome.spec.flow_id for outcome in execution.outcomes] == [
            f"f/{i}" for i in range(4)
        ]


class TestRetryAndQuarantine:
    def _patch(self, monkeypatch, bad_seeds):
        real = executor_module.simulate_spec

        def breaking(sim_spec):
            if sim_spec.seed in bad_seeds:
                raise SimulationError("injected")
            return real(sim_spec)

        monkeypatch.setattr(executor_module, "simulate_spec", breaking)

    def test_transient_failure_retried_to_success(self, monkeypatch):
        base = 17
        self._patch(monkeypatch, {base})  # only attempt 0's seed fails
        execution = Executor().run([spec(seed=base, flow_id="flaky")])
        outcome = execution.outcomes[0]
        assert outcome.ok and outcome.attempts == 2
        assert [failure.attempt for failure in outcome.failures] == [0]
        report = execution.report
        assert (report.succeeded, report.retried, report.quarantined) == (1, 1, 0)
        # The retried attempt really ran under the derived seed.
        retry_seed = RetryPolicy().seed_for_attempt(base, 1)
        assert outcome.result is not None
        assert execution.report.failures[0].seed == base
        assert retry_seed != base

    def test_persistent_failure_quarantined(self, monkeypatch):
        policy = RetryPolicy()
        base = 23
        bad = {policy.seed_for_attempt(base, a) for a in range(policy.max_attempts)}
        self._patch(monkeypatch, bad)
        execution = Executor().run(
            [spec(seed=base, flow_id="broken"), spec(seed=1, flow_id="fine")]
        )
        broken, fine = execution.outcomes
        assert not broken.ok and broken.result is None
        assert broken.quarantine.flow_id == "broken"
        assert broken.quarantine.seed == base
        assert f"all {policy.max_attempts} attempts failed" in broken.quarantine.reason
        assert fine.ok  # per-flow isolation: the batch survives
        report = execution.report
        assert (report.attempted, report.succeeded, report.quarantined) == (2, 1, 1)
        assert len(report.failures) == policy.max_attempts

    def test_zero_retry_policy_fails_fast(self, monkeypatch):
        self._patch(monkeypatch, {5})
        execution = Executor(retry_policy=RetryPolicy(max_retries=0)).run(
            [spec(seed=5)]
        )
        outcome = execution.outcomes[0]
        assert not outcome.ok and outcome.attempts == 1
        assert execution.report.retried == 0


class TestAmbientWatchdog:
    def test_baked_into_specs_at_submit(self):
        ambient = Watchdog(max_events=10_000_000, wall_clock_s=600.0)
        with watchdog_scope(ambient):
            execution = Executor().run([spec(seed=2)])
        assert execution.outcomes[0].spec.watchdog == ambient

    def test_explicit_watchdog_wins(self):
        mine = Watchdog(max_events=5_000_000)
        with watchdog_scope(Watchdog(max_events=10_000_000)):
            execution = Executor().run([spec(seed=2).with_(watchdog=mine)])
        assert execution.outcomes[0].spec.watchdog == mine


class TestAutoBackend:
    def test_for_workers_auto_selects_auto_backend(self):
        from repro.exec import AutoBackend

        assert isinstance(Executor.for_workers("auto").backend, AutoBackend)

    def test_for_workers_rejects_other_strings(self):
        with pytest.raises(ConfigurationError):
            Executor.for_workers("turbo")

    def test_rejects_nonpositive_workers(self):
        from repro.exec import AutoBackend

        with pytest.raises(ConfigurationError):
            AutoBackend(0)

    def test_small_batch_stays_serial_and_records_decision(self):
        from repro.exec import AutoBackend

        batch = payloads(3)
        backend = AutoBackend()
        outcomes = backend.map(_execute_payload, batch)
        assert log_pickles(outcomes) == log_pickles(
            SerialBackend().map(_execute_payload, batch)
        )
        decision = backend.last_decision
        assert decision["mode"] == "serial"
        assert decision["items"] == 3
        assert decision["cpu_count"] >= 1

    def test_cheap_batch_projects_serial(self, monkeypatch):
        from repro.exec import AutoBackend

        # Pretend the host has cores to spare: a near-zero per-item
        # cost must still project serial, because the pool's spawn
        # overhead can never be amortised.
        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 8)
        batch = payloads(50, duration=0.05)
        backend = AutoBackend()
        outcomes = backend.map(_execute_payload, batch)
        assert log_pickles(outcomes) == log_pickles(
            SerialBackend().map(_execute_payload, batch)
        )
        decision = backend.last_decision
        assert decision["mode"] == "serial"
        assert decision["projected_pool_s"] > decision["projected_serial_s"]

    def test_forced_pool_is_byte_identical_to_serial(self, monkeypatch):
        from repro.exec import AutoBackend

        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(AutoBackend, "SPAWN_BASELINE_S", -1e9)
        monkeypatch.setattr(AutoBackend, "SPAWN_PER_WORKER_S", 0.0)
        specs = [spec(seed=i, flow_id=f"auto/{i}") for i in range(4)]
        serial = Executor().run(specs)
        backend = AutoBackend(2)
        pooled = Executor(backend=backend).run(specs)
        assert backend.last_decision["mode"] == "pool"
        assert serial.report.to_json() == pooled.report.to_json()
        assert log_pickles(serial.outcomes) == log_pickles(pooled.outcomes)

    def test_auto_campaign_identical_to_serial(self):
        from repro.traces.generator import generate_dataset

        serial = generate_dataset(seed=2015, duration=5.0, flow_scale=0.02)
        auto = generate_dataset(
            seed=2015, duration=5.0, flow_scale=0.02, workers="auto"
        )
        assert serial.flow_count == auto.flow_count > 0
        assert [pickle.dumps(t) for t in serial.traces] == [
            pickle.dumps(t) for t in auto.traces
        ]
        assert serial.report.to_json() == auto.report.to_json()


class TestOutcomeTransfer:
    """A pickled outcome ships its records once, as the log's columns."""

    def _traced(self, seed=3, flow_id="transfer"):
        from repro.traces.events import FlowMetadata

        metadata = FlowMetadata(
            flow_id=flow_id, provider="CM", technology="LTE", scenario="hsr",
            capture_month="2015-01", phone_model="Note 3", duration=2.0, seed=seed,
        )
        return FlowSpec(
            config=ConnectionConfig(duration=2.0, wmax=16.0),
            seed=seed,
            flow_id=flow_id,
            metadata=metadata,
        )

    def test_trace_recaptured_from_the_restored_log(self):
        outcome = Executor().run([self._traced()]).outcomes[0]
        restored = pickle.loads(pickle.dumps(outcome))
        log = restored.result.log
        assert restored.trace.data_packets is log.data_packets
        assert restored.trace.acks is log.acks
        assert restored.trace.timeouts is log.timeouts
        assert restored.trace.recovery_phases is log.recovery_phases
        assert restored.trace.metadata == outcome.trace.metadata
        assert pickle.dumps(restored.trace) == pickle.dumps(outcome.trace)
        assert pickle.dumps(restored) == pickle.dumps(outcome)

    def test_retried_trace_keeps_its_attempt_seed(self, monkeypatch):
        real = executor_module.simulate_spec
        base = 17

        def breaking(sim_spec):
            if sim_spec.seed == base:
                raise SimulationError("injected")
            return real(sim_spec)

        monkeypatch.setattr(executor_module, "simulate_spec", breaking)
        outcome = Executor().run([self._traced(seed=base)]).outcomes[0]
        assert outcome.attempts == 2
        assert outcome.trace.metadata.seed != outcome.spec.metadata.seed
        restored = pickle.loads(pickle.dumps(outcome))
        assert restored.trace.metadata == outcome.trace.metadata
        assert pickle.dumps(restored.trace) == pickle.dumps(outcome.trace)

    def test_traceless_and_quarantined_round_trip_unchanged(self, monkeypatch):
        traceless = Executor().run([spec(seed=4)]).outcomes[0]
        assert traceless.trace is None
        restored = pickle.loads(pickle.dumps(traceless))
        assert restored.trace is None
        assert vars(restored).keys() == vars(traceless).keys()
        assert pickle.dumps(restored) == pickle.dumps(traceless)

        def broken(sim_spec):
            raise SimulationError("injected")

        monkeypatch.setattr(executor_module, "simulate_spec", broken)
        quarantined = Executor().run([self._traced()]).outcomes[0]
        assert not quarantined.ok and quarantined.result is None
        restored = pickle.loads(pickle.dumps(quarantined))
        assert restored == quarantined
        assert vars(restored).keys() == vars(quarantined).keys()

    def test_unshared_trace_is_pickled_whole(self):
        from dataclasses import replace

        outcome = Executor().run([self._traced()]).outcomes[0]
        trace = replace(outcome.trace, data_packets=list(outcome.trace.data_packets))
        restored = pickle.loads(pickle.dumps(replace(outcome, trace=trace)))
        assert restored.trace.data_packets is not restored.result.log.data_packets
        assert pickle.dumps(restored.trace) == pickle.dumps(trace)

    def test_trace_adds_little_to_the_pickle(self):
        from dataclasses import replace

        outcome = Executor().run([self._traced()]).outcomes[0]
        with_trace = len(pickle.dumps(outcome))
        without = len(pickle.dumps(replace(outcome, trace=None)))
        assert with_trace <= 1.1 * without
