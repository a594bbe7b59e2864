"""Recovery mechanics under injected fabric faults.

Where ``test_chaos_determinism`` proves the headline gate, this suite
exercises each supervision path on its own: crash-once-then-recover,
killer isolation among concurrent workers, injected worker-side raises,
give-up after repeated crashes, the restart budget, a worker death the
pool itself misses, deadline preemption of a hung flow, and a signal
drain during crash isolation.
"""

import os
import signal
import time
from concurrent.futures import Future
from types import SimpleNamespace

import pytest

from repro.exec import Executor, ProcessPoolBackend, SerialBackend
from repro.exec.chaos import ChaosBackend, ChaosPlan
from repro.exec.spec import FlowSpec
from repro.exec.supervise import (
    SupervisedBackend,
    SupervisorPolicy,
    clear_interrupt,
)
from repro.robustness.campaign import RetryPolicy
from repro.simulator.connection import ConnectionConfig


def spec(seed=0, flow_id="flow"):
    return FlowSpec(
        config=ConnectionConfig(duration=2.0, wmax=16.0),
        seed=seed,
        flow_id=flow_id,
    )


def specs(n):
    return [spec(seed=30 + i, flow_id=f"f/{i}") for i in range(n)]


class TestCrashRecovery:
    def test_crash_once_then_recover(self):
        plan = ChaosPlan(crash={"f/1": (0,)})
        backend = ChaosBackend(plan, ProcessPoolBackend(2))
        result = Executor(backend=backend).run(specs(4))
        report = result.report
        assert report.succeeded == 4
        assert report.quarantined == 0
        assert report.retried == 1  # exactly the one re-execution
        (failure,) = report.failures
        assert failure.flow_id == "f/1"
        assert failure.attempt == 0
        assert failure.failure_class == "worker_crash"
        assert failure.error_type == "WorkerCrashError"
        assert "pool rebuilt" in failure.error
        # the crashed flow's outcome still carries a result
        victim = next(o for o in result.outcomes if o.spec.flow_id == "f/1")
        assert victim.ok and victim.result is not None
        assert victim.attempts == 2

    def test_isolation_pins_blame_on_the_killer(self):
        # Two workers, one killer: whoever shares the pool at crash
        # time is a bystander and must end up with a clean record.
        plan = ChaosPlan(crash={"f/2": (0,)})
        backend = ChaosBackend(plan, ProcessPoolBackend(2))
        result = Executor(backend=backend).run(specs(6))
        report = result.report
        assert report.succeeded == 6
        assert [f.flow_id for f in report.failures] == ["f/2"]
        for outcome in result.outcomes:
            if outcome.spec.flow_id != "f/2":
                assert outcome.failures == []
                assert outcome.attempts == 1

    def test_pool_timing_does_not_change_report_bytes(self):
        plan = ChaosPlan(crash={"f/0": (0,), "f/3": (0,)})
        runs = []
        for _ in range(2):
            backend = ChaosBackend(plan, ProcessPoolBackend(2))
            runs.append(Executor(backend=backend).run(specs(5)))
        assert runs[0].report.to_json() == runs[1].report.to_json()
        assert runs[0].report.succeeded == 5

    def test_repeated_crash_exhausts_budget_and_quarantines(self):
        plan = ChaosPlan(crash={"f/0": (0, 1, 2)})
        backend = ChaosBackend(plan, ProcessPoolBackend(1))
        result = Executor(
            backend=backend, retry_policy=RetryPolicy(max_retries=2)
        ).run(specs(2))
        report = result.report
        assert report.succeeded == 1
        assert report.quarantined == 1
        assert len(report.failures) == 3  # one per execution
        assert all(f.failure_class == "worker_crash" for f in report.failures)
        (record,) = report.quarantines
        assert record.flow_id == "f/0"
        assert "gave up after 3 failed executions" in record.reason
        victim = result.outcomes[0]
        assert not victim.ok and victim.attempts == 3

    def test_restart_budget_stops_the_bleeding(self):
        # With a zero restart budget the first crash is terminal: the
        # supervisor quarantines everything unfinished instead of
        # rebuilding pools forever against sick infrastructure.
        plan = ChaosPlan(crash={"f/0": (0,)})
        backend = ChaosBackend(
            plan,
            ProcessPoolBackend(1),
            policy=SupervisorPolicy(max_worker_restarts=0),
        )
        result = Executor(backend=backend).run(specs(3))
        report = result.report
        assert report.attempted == 3
        assert report.quarantined == 3
        assert all(
            "worker-restart budget exhausted" in record.reason
            for record in report.quarantines
        )


class _UnnoticedDeathPool:
    """An in-process stand-in pool whose worker dies on a ``crash``
    action without the pool noticing — what a real pool does when the
    worker was spawned while its manager thread was already waiting."""

    def __init__(self):
        self._processes = {}

    def submit(self, call, fn, payload, action):
        future = Future()
        if action == ("crash",):
            self._processes[0] = SimpleNamespace(
                exitcode=71, terminate=lambda: None
            )
        else:
            future.set_result(fn(payload))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestUnnoticedWorkerDeath:
    def test_dead_worker_is_a_crash_not_a_deadline(self, monkeypatch):
        monkeypatch.setattr(
            SupervisedBackend, "_fresh_pool",
            staticmethod(lambda workers: _UnnoticedDeathPool()),
        )
        plan = ChaosPlan(crash={"f/1": (0,)})
        backend = ChaosBackend(
            plan, ProcessPoolBackend(2), policy=SupervisorPolicy(deadline_s=5.0)
        )
        result = Executor(backend=backend).run(specs(3))
        assert result.report.succeeded == 3
        (failure,) = result.report.failures
        assert failure.flow_id == "f/1"
        assert failure.failure_class == "worker_crash"


class TestInjectedRaise:
    def test_raise_is_classified_and_retried(self):
        plan = ChaosPlan(raise_={"f/1": (0,)})
        backend = ChaosBackend(plan, SerialBackend())
        result = Executor(backend=backend).run(specs(3))
        report = result.report
        assert report.succeeded == 3
        (failure,) = report.failures
        assert failure.flow_id == "f/1"
        assert failure.error_type == "ChaosError"
        assert failure.failure_class == "transient"
        assert "chaos-injected failure" in failure.error

    def test_serial_inner_is_forced_into_a_pool(self):
        # raise actions only exist in the worker-side trampoline, so a
        # raise-only plan must force the pool even for a serial inner.
        plan = ChaosPlan(raise_={"f/0": (0,)})
        assert plan.needs_pool
        backend = ChaosBackend(plan, SerialBackend())
        result = Executor(backend=backend).run(specs(1))
        assert len(result.report.failures) == 1  # the action really fired


class TestDeadlinePreemption:
    def test_hung_flow_is_killed_and_retried(self):
        plan = ChaosPlan(hang={"f/1": (0,)}, hang_s=30.0)
        backend = ChaosBackend(
            plan,
            ProcessPoolBackend(2),
            policy=SupervisorPolicy(deadline_s=1.5),
        )
        result = Executor(backend=backend).run(specs(3))
        report = result.report
        assert report.succeeded == 3
        (failure,) = report.failures
        assert failure.flow_id == "f/1"
        assert failure.failure_class == "deadline"
        assert failure.error_type == "DeadlineExceededError"
        assert "1.5s wall-clock deadline" in failure.error
        victim = next(o for o in result.outcomes if o.spec.flow_id == "f/1")
        assert victim.ok and victim.attempts == 2

    def test_bystanders_of_a_preemption_stay_clean(self):
        plan = ChaosPlan(hang={"f/0": (0,)}, hang_s=30.0)
        backend = ChaosBackend(
            plan,
            ProcessPoolBackend(2),
            policy=SupervisorPolicy(deadline_s=1.5),
        )
        result = Executor(backend=backend).run(specs(4))
        assert result.report.succeeded == 4
        for outcome in result.outcomes:
            if outcome.spec.flow_id != "f/0":
                assert outcome.failures == []


class _SignalOnIsolationProbe(ChaosBackend):
    """Sends one SIGTERM to this process when ``target`` is submitted
    at execution 0 for the second time — its re-run as an isolation
    suspect after the first pool break."""

    def __init__(self, *args, target, **kwargs):
        super().__init__(*args, **kwargs)
        self.target = target
        self.submissions = 0

    def _action_for(self, payload, execution):
        if payload[1].flow_id == self.target and execution == 0:
            self.submissions += 1
            if self.submissions == 2:
                os.kill(os.getpid(), signal.SIGTERM)
        return super()._action_for(payload, execution)


class TestDrainDuringIsolation:
    def test_drain_stops_isolation(self):
        # f/0 kills its worker while f/1 hangs beside it, so both are
        # suspects.  Isolation re-runs f/0 alone (the killer), then f/1;
        # the drain that arrives with f/1 must stop it within grace_s,
        # long before its deadline, and leave it unrun.
        deadline_s = 20.0
        plan = ChaosPlan(crash={"f/0": (0,)}, hang={"f/1": (0,)}, hang_s=120.0)
        backend = _SignalOnIsolationProbe(
            plan,
            ProcessPoolBackend(2),
            policy=SupervisorPolicy(deadline_s=deadline_s, grace_s=0.5),
            target="f/1",
        )
        clear_interrupt()
        start = time.monotonic()
        try:
            result = Executor(backend=backend).run(specs(2))
        finally:
            clear_interrupt()
        elapsed = time.monotonic() - start
        assert backend.submissions == 2
        killer, hung = result.outcomes
        assert hung.skipped
        assert result.report.interrupted
        assert hung.failures == []
        assert all(f.failure_class != "deadline" for f in result.report.failures)
        assert killer.ok
        assert [f.failure_class for f in killer.failures] == ["worker_crash"]
        assert elapsed < deadline_s / 2
