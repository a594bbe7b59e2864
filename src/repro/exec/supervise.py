"""Fault-tolerant campaign supervision around executor backends.

The retry/quarantine loop of :mod:`repro.exec.executor` protects a
campaign from flows that *raise*; this module protects it from failure
modes that an in-process ``except`` can never see:

* **worker death** — a spawn worker that segfaults, is OOM-killed, or
  calls ``os._exit`` breaks the whole ``ProcessPoolExecutor``
  (``BrokenProcessPool``) and, unsupervised, loses the entire batch.
  The :class:`SupervisedBackend` catches the break, rebuilds the pool,
  and isolates the killer spec in the same pool loop at one in-flight
  payload: the suspects go back to the front of the queue and run one
  at a time until all have finished, so the next break has exactly one
  suspect — the killer (a sharper version of bisecting the failed
  batch).  Isolation is an ordinary stretch of the loop, so signal
  drains, deadlines and the restart budget apply to it unchanged.  The
  killer gets a :class:`~repro.robustness.campaign.FlowFailure` with
  the ``worker_crash`` failure class and is retried; innocent
  bystanders are re-run without any failure record.

* **hung flows** — the in-simulation :class:`~repro.robustness.watchdog.Watchdog`
  polls between events and cannot fire when the interpreter itself is
  stuck.  The supervisor enforces ``deadline_s`` from the *parent*: a
  future that outlives its deadline gets its worker killed, a
  ``deadline``-class failure recorded, and a retry.

* **signals** — SIGINT/SIGTERM trigger a graceful drain instead of
  tearing the process down mid-write: submission stops, in-flight
  flows get ``grace_s`` to finish, completed results flow back to the
  caller (and through it into any ambient
  :class:`~repro.store.ResultStore`), and unrun specs come back as
  ``skipped`` outcomes so the
  :class:`~repro.robustness.campaign.CampaignReport` is marked
  ``interrupted`` — a re-run against the same store executes exactly
  the remainder.  A second signal aborts immediately.

Determinism contract: an execution that is aborted through no fault of
its own (a bystander of another flow's crash, or a preempted-but-
innocent in-flight flow) does **not** consume its execution index, so
every scheduled chaos action — and therefore every failure record —
fires exactly once regardless of worker-pool timing.  As long as the
restart budget is not exhausted, two runs of the same supervised
campaign produce byte-identical reports.  Exhausting
``max_worker_restarts`` is an emergency stop (genuinely sick
infrastructure) and sacrifices that guarantee: whatever is still
unfinished at that moment is quarantined.
"""

from __future__ import annotations

import contextlib
import os
import signal
import sys
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextvars import ContextVar
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.exec.executor import (
    AutoBackend,
    FlowOutcome,
    ProcessPoolBackend,
    SerialBackend,
    _failure,
    _quarantined,
)
from repro.robustness.campaign import FlowFailure, RetryPolicy
from repro.telemetry.counters import CountingTelemetry
from repro.util.errors import (
    ConfigurationError, DeadlineExceededError, WorkerCrashError,
)

__all__ = [
    "SupervisedBackend",
    "SupervisorPolicy",
    "clear_interrupt",
    "current_supervisor_policy",
    "interrupt_signal",
    "supervise_scope",
]

#: exit status used by the ``crash`` chaos action (and visible in the
#: stderr note when a real worker dies)
_CRASH_EXIT_STATUS = 71  # EX_OSERR: "system error" in sysexits.h


@dataclass(frozen=True)
class SupervisorPolicy:
    """How hard the supervision layer fights for a campaign.

    ``deadline_s`` is the parent-enforced per-flow wall-clock limit
    (``None`` disables preemption); ``max_worker_restarts`` caps how
    many times the worker pool may be rebuilt after crashes and
    preemptions before the supervisor gives up on the remainder;
    ``grace_s`` is how long a signal drain waits for in-flight flows
    before killing them; ``drain_signals=False`` leaves SIGINT/SIGTERM
    handling entirely to the caller.
    """

    deadline_s: Optional[float] = None
    max_worker_restarts: int = 8
    grace_s: float = 10.0
    drain_signals: bool = True

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0.0:
            raise ConfigurationError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )
        if self.max_worker_restarts < 0:
            raise ConfigurationError(
                f"max_worker_restarts must be >= 0, got {self.max_worker_restarts}"
            )
        if self.grace_s < 0.0:
            raise ConfigurationError(
                f"grace_s must be >= 0, got {self.grace_s}"
            )


_ambient_policy: ContextVar[Optional[SupervisorPolicy]] = ContextVar(
    "repro_ambient_supervisor", default=None
)


def current_supervisor_policy() -> Optional[SupervisorPolicy]:
    """The ambient policy installed by :func:`supervise_scope`, if any."""
    return _ambient_policy.get()


@contextlib.contextmanager
def supervise_scope(
    policy: Optional[SupervisorPolicy],
) -> Iterator[Optional[SupervisorPolicy]]:
    """Install ``policy`` ambiently (the CLI's ``--deadline-s`` plumbing).

    Mirrors :func:`~repro.robustness.watchdog.watchdog_scope`: every
    :class:`~repro.exec.executor.Executor` run inside the block
    supervises its backend under this policy.  ``None`` is a no-op
    scope (executors then use the default :class:`SupervisorPolicy`).
    """
    token = _ambient_policy.set(policy)
    try:
        yield policy
    finally:
        _ambient_policy.reset(token)


#: signal number of the most recent drain, sticky until cleared — how
#: the CLI knows to stop launching experiments and exit 128+signum
_last_interrupt: Optional[int] = None


def interrupt_signal() -> Optional[int]:
    """Signal number of the most recent graceful drain (None if none)."""
    return _last_interrupt


def clear_interrupt() -> None:
    """Forget a recorded drain (test isolation; new CLI invocations)."""
    global _last_interrupt
    _last_interrupt = None


class _DrainGuard:
    """Scoped SIGINT/SIGTERM handlers that set a flag instead of dying.

    Installation is best-effort: outside the main thread (or with
    ``drain_signals=False``) the guard is inert and signals keep their
    previous behaviour.  A second signal while draining restores the
    previous handlers and raises ``KeyboardInterrupt`` — the operator
    asked twice, so stop politely refusing to die.
    """

    _SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.installed = False
        self.signum: Optional[int] = None
        self._previous: Dict[int, object] = {}

    @property
    def tripped(self) -> bool:
        return self.signum is not None

    def _handle(self, signum: int, frame: object) -> None:
        if self.tripped:
            self._restore()
            raise KeyboardInterrupt
        self.signum = signum
        global _last_interrupt
        _last_interrupt = signum
        name = signal.Signals(signum).name
        print(
            f"supervise: caught {name} — draining in-flight flows, "
            "flushing completed results (send again to abort)",
            file=sys.stderr,
            flush=True,
        )

    def __enter__(self) -> "_DrainGuard":
        if not self.enabled:
            return self
        if threading.current_thread() is not threading.main_thread():
            return self
        try:
            for signum in self._SIGNALS:
                self._previous[signum] = signal.signal(signum, self._handle)
        except ValueError:  # pragma: no cover - non-main interpreter state
            self._restore()
        else:
            self.installed = True
        return self

    def _restore(self) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, TypeError):  # pragma: no cover - teardown
                pass
        self._previous.clear()
        self.installed = False

    def __exit__(self, *exc_info: object) -> None:
        self._restore()


def _supervised_call(fn: Callable, payload: object, action: Optional[Tuple]):
    """Worker-side trampoline: run one payload, chaos action first.

    Module-level so the spawn pool can pickle it.  ``action`` is a
    plain tuple (picklable, no chaos-module import needed in workers):
    ``("crash",)`` kills the worker the way a segfault would,
    ``("hang", seconds)`` wedges it past any deadline, and
    ``("raise", message)`` throws an injected exception.
    """
    if action is not None:
        kind = action[0]
        if kind == "crash":
            os._exit(_CRASH_EXIT_STATUS)
        elif kind == "hang":
            time.sleep(float(action[1]))
        elif kind == "raise":
            from repro.util.errors import ChaosError

            raise ChaosError(str(action[1]))
    return fn(payload)


@dataclass
class _Tracked:
    """Supervisor-side state of one payload across executions."""

    position: int
    payload: Tuple
    executions: int = 0
    started: float = 0.0
    failures: List[FlowFailure] = field(default_factory=list)

    @property
    def spec(self):
        return self.payload[1]

    @property
    def retry_policy(self) -> RetryPolicy:
        return self.payload[2]


def _by_position(tracked: _Tracked) -> int:
    return tracked.position


@dataclass
class _Batch:
    """One ``map`` call's mutable state, shared by every loop step."""

    fn: Callable
    results: List[Optional[FlowOutcome]]
    progress: Optional[Callable[[int], None]]
    drain: _DrainGuard
    #: payloads waiting to run; retries and rolled-back executions go
    #: back to the front
    pending: "deque[_Tracked]" = field(default_factory=deque)
    done: int = 0
    #: pool rebuilds so far, checked against ``max_worker_restarts``
    restarts: int = 0

    def complete(self, tracked: _Tracked, outcome: FlowOutcome) -> None:
        """Merge supervisor-level failures into the outcome and file it."""
        if tracked.failures:
            outcome.failures = list(tracked.failures) + list(outcome.failures)
            outcome.attempts += len(tracked.failures)
        if outcome.result is not None and isinstance(
            outcome.result.telemetry, CountingTelemetry
        ):
            telemetry = outcome.result.telemetry
            telemetry.worker_crashes = sum(
                1 for f in outcome.failures if f.failure_class == "worker_crash"
            )
            telemetry.deadline_preemptions = sum(
                1 for f in outcome.failures if f.failure_class == "deadline"
            )
        self.results[tracked.position] = outcome
        self.done += 1
        if self.progress is not None:
            self.progress(self.done)


class SupervisedBackend:
    """Crash-recovering, deadline-enforcing, drain-aware backend wrapper.

    Wraps any executor backend; the inner backend decides the execution
    *mode* (serial inline vs worker pool, and the worker count), while
    the supervisor owns the pool itself so it can kill and rebuild it.
    This is the one engine that runs pool and auto batches:
    ``ProcessPoolBackend.map`` and ``AutoBackend.map`` delegate here.
    Payloads must follow the executor contract —
    ``(index, FlowSpec, RetryPolicy)`` tuples mapped over a picklable
    function — which is exactly what :class:`~repro.exec.executor.Executor`
    submits.

    :meth:`_run_pooled` is the only loop that runs a payload in a
    worker process.  Crash isolation is that loop at one in-flight
    payload: after a break with several suspects, they re-run from the
    queue front one at a time until all have finished, under the same
    drain, deadline and restart-budget handling as every other
    execution.

    The supervisor forces a (single-worker) pool when ``deadline_s`` is
    set even for serial inner backends: preemption needs a process
    boundary to kill across.
    """

    #: seconds between drain-flag polls while waiting on futures
    POLL_S = 0.5

    def __init__(
        self,
        inner: Optional[object] = None,
        *,
        policy: Optional[SupervisorPolicy] = None,
    ) -> None:
        self.inner = inner if inner is not None else SerialBackend()
        self.policy = policy if policy is not None else SupervisorPolicy()
        #: True when the last ``map`` was cut short by a signal drain
        self.last_interrupted = False

    @property
    def name(self) -> str:
        return f"supervised[{getattr(self.inner, 'name', 'backend')}]"

    # -- chaos hooks (overridden by ChaosBackend) ----------------------

    def _action_for(
        self, payload: Tuple, execution: int
    ) -> Optional[Tuple]:
        """Chaos action for this payload's Nth execution (None = run)."""
        return None

    def _requires_pool(self, items: Sequence) -> bool:
        """Whether this map must run in a pool regardless of the inner
        backend (crash/hang actions would take the parent down)."""
        return False

    def prepare_batch(self, items: Sequence) -> None:
        """Pre-batch hook (chaos store corruption happens here).

        Must be idempotent: when a :class:`~repro.store.backend.CachedBackend`
        wraps this backend it invokes the hook *before* its store reads
        (so injected corruption is actually seen), and ``map`` calls it
        again for the miss batch.
        """

    # -- the backend protocol ------------------------------------------

    def map(
        self,
        fn: Callable,
        items: Sequence,
        progress: Optional[Callable[[int], None]] = None,
    ) -> List:
        items = list(items)
        self.last_interrupted = False
        if getattr(self.inner, "self_supervising", False):
            # A fabric backend owns its whole fault story — worker
            # respawn, lease re-grants, per-shard retry — across a
            # process boundary this layer cannot see.  Wrapping it in
            # drain guards and pools here would only fight that
            # machinery, so the batch is delegated verbatim.
            return self.inner.map(fn, items, progress)
        with _DrainGuard(self.policy.drain_signals) as drain:
            batch = _Batch(fn, [None] * len(items), progress, drain)
            self.prepare_batch(items)
            tracked = [
                _Tracked(position=position, payload=payload)
                for position, payload in enumerate(items)
            ]
            workers, use_pool = self._mode(batch, items, tracked)
            batch.pending.extend(
                t for t in tracked if batch.results[t.position] is None
            )
            if use_pool and batch.pending:
                self._run_pooled(batch, workers)
            else:
                self._run_inline(batch)
        # Whatever never ran (signal drain) comes back as a skipped
        # placeholder: present, ordered, but excluded from accounting.
        results = batch.results
        for position, payload in enumerate(items):
            if results[position] is None:
                index, spec, _policy = payload
                results[position] = FlowOutcome(
                    index=index, spec=spec, result=None, trace=None,
                    attempts=0, skipped=True,
                )
                self.last_interrupted = True
        return results

    # -- mode selection ------------------------------------------------

    def _mode(self, batch: _Batch, items, tracked) -> Tuple[int, bool]:
        """(workers, use_pool) for this batch, honouring the inner backend.

        An :class:`~repro.exec.executor.AutoBackend` inner gets its
        serial probe: the head runs inline here (its results are kept),
        and the probe's projection decides whether the tail is worth a
        pool — the decision lands on ``inner.last_decision``.
        """
        inner = self.inner
        forced = self._requires_pool(items) or self.policy.deadline_s is not None
        if isinstance(inner, ProcessPoolBackend):
            workers = min(inner.workers, max(len(items), 1))
            return workers, workers > 1 or forced
        if isinstance(inner, AutoBackend):
            use_pool, workers = inner.probe(
                items,
                runner=lambda item, position: self._run_one_inline(
                    batch, tracked[position]
                ),
            )
            return workers, use_pool or forced
        # Serial (or unknown) inner: inline unless preemption forces a
        # process boundary.
        return 1, forced

    # -- inline execution ----------------------------------------------

    @staticmethod
    def _run_one_inline(batch: _Batch, tracked: _Tracked) -> None:
        if batch.drain.tripped:
            return
        tracked.executions += 1
        batch.complete(tracked, batch.fn(tracked.payload))

    def _run_inline(self, batch: _Batch) -> None:
        for tracked in batch.pending:
            if batch.drain.tripped:
                break
            self._run_one_inline(batch, tracked)

    # -- pooled execution ----------------------------------------------

    def _run_pooled(self, batch: _Batch, workers: int) -> None:
        pending = batch.pending
        pool: Optional[ProcessPoolExecutor] = None
        inflight: Dict[object, _Tracked] = {}
        order: Dict[object, int] = {}
        submitted = 0
        # unfinished crash suspects; while any remain, at most one
        # payload is in flight, so the next break has one suspect
        suspects: List[_Tracked] = []
        try:
            while pending or inflight:
                if batch.drain.tripped:
                    self._drain_inflight(pool, inflight, batch)
                    pool = None
                    return  # pending never ran: map() marks them skipped
                if pool is None:
                    pool = self._fresh_pool(min(workers, max(len(pending), 1)))
                if suspects:
                    suspects = [
                        t for t in suspects if batch.results[t.position] is None
                    ]
                cap = 1 if suspects else workers
                while pending and len(inflight) < cap:
                    tracked = pending.popleft()
                    action = self._action_for(tracked.payload, tracked.executions)
                    tracked.executions += 1
                    tracked.started = time.monotonic()
                    try:
                        future = pool.submit(
                            _supervised_call, batch.fn, tracked.payload, action
                        )
                    except BrokenProcessPool:
                        # The pool broke between waits (a worker died
                        # while idle, or its break was detected late).
                        # This payload never ran: roll it back and let
                        # the crash path below sort out the in-flight.
                        tracked.executions -= 1
                        pending.appendleft(tracked)
                        break
                    inflight[future] = tracked
                    order[future] = submitted
                    submitted += 1
                if not inflight:
                    # The pool broke before anything ran, so nobody is
                    # a suspect: it just needs rebuilding (the budget
                    # still counts it).
                    victims, bystanders, cause, failure_class = [], [], None, ""
                else:
                    crashed = self._reap(batch, pool, inflight, order)
                    if crashed:
                        in_flight = sorted(
                            crashed + list(inflight.values()), key=_by_position
                        )
                        victims, bystanders = in_flight, []
                        if len(in_flight) > 1:
                            # Nobody knows whose worker died: roll every
                            # execution back and isolate them.
                            victims, bystanders = [], in_flight
                            suspects = in_flight
                            print(
                                "supervise: worker died; isolating the killer "
                                f"among {len(in_flight)} in-flight flows",
                                file=sys.stderr,
                                flush=True,
                            )
                        cause = WorkerCrashError(
                            "worker process died while running this flow "
                            f"(exit status {_CRASH_EXIT_STATUS} or signal); "
                            "pool rebuilt"
                        )
                        failure_class = "worker_crash"
                    else:
                        victims = self._overdue(inflight)
                        if not victims:
                            continue
                        bystanders = [
                            t for t in inflight.values() if t not in victims
                        ]
                        cause = DeadlineExceededError(
                            f"flow exceeded its {self.policy.deadline_s:g}s "
                            "wall-clock deadline; worker killed"
                        )
                        failure_class = "deadline"
                inflight.clear()
                order.clear()
                self._kill_pool(pool)
                pool = None
                self._preempt(batch, victims, bystanders, cause, failure_class)
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    def _reap(self, batch: _Batch, pool, inflight, order) -> List[_Tracked]:
        """Wait for the next completions and file them; the payloads
        whose worker died come back (the pool is broken)."""
        done, _ = wait(
            list(inflight),
            timeout=self._wait_timeout(inflight),
            return_when=FIRST_COMPLETED,
        )
        if not done and self._lost_worker(pool):
            # The pool watches a worker spawned while its manager thread
            # was already waiting only from its next event on, so that
            # worker's death can go unnoticed until another flow ends
            # (or a deadline fires): treat it as the break it is.
            order.clear()
            return [inflight.pop(future) for future in list(inflight)]
        crashed: List[_Tracked] = []
        for future in sorted(done, key=order.__getitem__):
            tracked = inflight.pop(future)
            order.pop(future, None)
            try:
                outcome = future.result()
            except BrokenProcessPool:
                crashed.append(tracked)
            except BaseException as error:  # worker-side raise
                # escaped the payload's own retry loop (injected chaos,
                # pickling trouble): the taxonomy applies
                self._record(
                    batch, tracked, error, tracked.retry_policy.classify(error)
                )
            else:
                batch.complete(tracked, outcome)
        return crashed

    def _overdue(self, inflight: Dict[object, _Tracked]) -> List[_Tracked]:
        deadline = self.policy.deadline_s
        if deadline is None:
            return []
        now = time.monotonic()
        return [t for t in inflight.values() if now - t.started > deadline]

    def _wait_timeout(self, inflight: Dict[object, _Tracked]) -> float:
        """How long one future-wait may block.

        Short enough to notice drain flags and deadlines promptly; a
        pure wall-clock concern, invisible in results.
        """
        timeout = self.POLL_S
        if self.policy.deadline_s is not None:
            now = time.monotonic()
            nearest = min(
                tracked.started + self.policy.deadline_s - now
                for tracked in inflight.values()
            )
            timeout = min(timeout, max(nearest, 0.0))
        return timeout

    # -- failure handling ----------------------------------------------

    def _preempt(
        self, batch: _Batch, victims, bystanders, cause, failure_class
    ) -> None:
        """The pool was killed under running flows (a crash or a
        deadline): count the restart, check the budget, roll back the
        bystanders, record the victims.

        A bystander's execution was aborted through no fault of its
        own, so its index is not consumed and it re-runs from the queue
        front with no failure record.
        """
        batch.restarts += 1
        if batch.restarts > self.policy.max_worker_restarts:
            self._give_up_all(
                batch, sorted(victims + bystanders, key=_by_position),
                "worker-restart budget exhausted",
            )
            return
        for tracked in sorted(bystanders, key=_by_position, reverse=True):
            tracked.executions -= 1
            batch.pending.appendleft(tracked)
        for tracked in sorted(victims, key=_by_position):
            print(
                f"supervise: {tracked.spec.flow_id!r} (execution "
                f"{tracked.executions - 1}): {cause}",
                file=sys.stderr,
                flush=True,
            )
            self._record(batch, tracked, cause, failure_class)

    def _record(
        self, batch: _Batch, tracked: _Tracked, error, failure_class: str
    ) -> None:
        """File one failed execution; retry it from the queue front or
        give up on the flow."""
        spec = tracked.spec
        policy = tracked.retry_policy
        tracked.failures.append(
            _failure(spec, tracked.executions - 1, spec.seed, error, failure_class)
        )
        last = f"{type(error).__name__}: {error}"
        if not policy.retries(failure_class):
            self._give_up(batch, tracked, f"deterministic failure: {last}")
        elif len(tracked.failures) >= policy.max_attempts:
            self._give_up(
                batch,
                tracked,
                f"supervisor gave up after {len(tracked.failures)} "
                f"failed executions; last: {last}",
            )
        else:
            batch.pending.appendleft(tracked)

    @staticmethod
    def _give_up(batch: _Batch, tracked: _Tracked, reason: str) -> None:
        failures, tracked.failures = tracked.failures, []  # on the outcome now
        outcome = _quarantined(
            tracked.payload[0], tracked.spec, failures, reason,
            max(len(failures), 1),
        )
        batch.complete(tracked, outcome)

    def _give_up_all(self, batch: _Batch, suspects, reason: str) -> None:
        pending = batch.pending
        print(
            f"supervise: {reason} "
            f"(max_worker_restarts={self.policy.max_worker_restarts}); "
            f"quarantining the {len(suspects) + len(pending)} unfinished flows",
            file=sys.stderr,
            flush=True,
        )
        for tracked in list(suspects) + list(pending):
            self._give_up(batch, tracked, reason)
        pending.clear()

    # -- pool plumbing -------------------------------------------------

    @staticmethod
    def _fresh_pool(workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=max(workers, 1), mp_context=get_context("spawn")
        )

    @staticmethod
    def _lost_worker(pool: ProcessPoolExecutor) -> bool:
        """Whether one of the pool's workers has exited — it died, as
        workers only exit at shutdown (the private process table, as in
        :meth:`_kill_pool`)."""
        processes = getattr(pool, "_processes", None) or {}
        return any(p.exitcode is not None for p in list(processes.values()))

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Terminate a pool's workers outright (hung or broken pool).

        ``shutdown`` alone waits politely forever on a wedged worker;
        the process handles are reached through the executor's private
        table because the public API deliberately has no kill switch.
        """
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already-dead races
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def _drain_inflight(self, pool, inflight, batch: _Batch) -> None:
        """Signal drain: give in-flight flows ``grace_s``, then kill."""
        done, not_done = wait(list(inflight), timeout=self.policy.grace_s)
        for future in done:
            tracked = inflight.pop(future)
            try:
                outcome = future.result()
            except BaseException:
                tracked.executions -= 1  # lost to the drain, not failed
            else:
                batch.complete(tracked, outcome)
        for future in not_done:
            tracked = inflight.pop(future)
            tracked.executions -= 1  # preempted by the drain, not failed
        if pool is not None:
            if not_done:
                self._kill_pool(pool)
            else:
                pool.shutdown(wait=False, cancel_futures=True)
