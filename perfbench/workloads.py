"""The benchmark's two workloads, and the fabric replay of its traced run.

Every workload is the Table-I campaign from
``repro.traces.generator.campaign_specs`` with Reno, built from the
benchmark seed, and run as a closed-loop batch: the next batch starts
only when the previous one has returned.  Concurrency never exceeds two
processes (the serial benchmark process, or two pool or fabric workers).

A workload has four phases.  ``stand_up`` builds the specs, the
executor and any store (repeated for ``setup_s``); ``prepare`` runs
once before timing (a warm-up flow, or the store population of
``reanalyse-warm``); ``batch`` is one timed campaign; ``reference``
gives the serial run of the same specs that every batch's digest must
equal.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, Optional


@dataclass
class Batch:
    """One timed campaign and what it produced."""

    elapsed_s: float
    #: benchmark-process CPU (user + system) inside the timed region
    cpu_s: float
    flows: int
    attempted: int
    failed: int
    digest: str
    #: the flow outcomes, kept by a workload whose children ship them
    #: back: its traced run replays their pickle round trip
    outcomes: list = field(default_factory=list)
    #: store lookups of the campaign report: hits, misses, and misses
    #: whose result the store could not take
    hits: int = 0
    misses: int = 0
    store_errors: int = 0
    #: specs with an entry in the written store after the batch
    stored: Optional[int] = None
    #: campaign-level counters gathered outside the program's spans
    counters: Dict[str, float] = field(default_factory=dict)
    #: Fig. 10 deviation rates, when the batch ran the pipeline
    deviation: Optional[tuple] = None
    #: whether the batch ran under the span ledger
    traced: bool = False


def digest(traces: list, report) -> str:
    """sha256 over each pickled trace, then the report JSON.

    Traces are pickled one by one: a single pickle of the list would
    differ through memo references shared in-process, not through any
    value drift.
    """
    hasher = hashlib.sha256()
    for trace in traces:
        hasher.update(pickle.dumps(trace))
    hasher.update(report.to_json().encode())
    return hasher.hexdigest()


class Clock:
    """Wall time and benchmark-process CPU time of a ``with`` block."""

    def __enter__(self) -> "Clock":
        self._cpu = _self_cpu()
        self._wall = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed_s = perf_counter() - self._wall
        self.cpu_s = _self_cpu() - self._cpu


def _self_cpu() -> float:
    times = os.times()
    return times.user + times.system


def _batch(execution, clock: Clock, keep_outcomes: bool = False, **extra) -> Batch:
    report = execution.report
    failures = [f for o in execution.outcomes for f in o.failures]
    counters = {
        "supervise.retries": report.retried,
        "supervise.worker_restarts": sum(
            1 for f in failures if f.failure_class == "worker_crash"
        ),
    }
    counters.update(extra.pop("counters", {}))
    return Batch(
        elapsed_s=clock.elapsed_s,
        cpu_s=clock.cpu_s,
        flows=report.succeeded,
        attempted=report.attempted,
        failed=report.quarantined,
        digest=digest(execution.traces, report),
        outcomes=execution.outcomes if keep_outcomes else [],
        hits=report.cache_hits,
        misses=report.cache_misses,
        store_errors=report.cache_errors,
        counters=counters,
        **extra,
    )


def fig10_deviation(traces: list) -> tuple:
    """The Fig. 10 pipeline: mean deviation D (percent) of the enhanced
    model and of Padhye's, over every measurable trace.

    Functions are resolved through their modules at call time, so the
    traced run's wrappers see every call.
    """
    from repro.core import accuracy, enhanced
    from repro.traces import correlation

    inputs = []
    for trace in traces:
        measured = correlation.measured_model_inputs(trace)
        if measured is not None:
            inputs.append(measured)
    observations = [
        accuracy.FlowObservation(
            params=m.params, throughput=m.throughput, group=m.provider,
            flow_id=m.flow_id,
        )
        for m in inputs
    ]
    burst = {id(o.params): m.ack_burst_probability for o, m in zip(observations, inputs)}

    def enhanced_model(params) -> float:
        options = enhanced.ModelOptions(ack_burst_override=burst[id(params)])
        return enhanced.enhanced_throughput(params, options).throughput

    def padhye_model(params) -> float:
        return enhanced.padhye_paper_form(params).throughput

    comparison = accuracy.compare_models(
        observations, {"enhanced": enhanced_model, "padhye": padhye_model}
    )
    return (
        100.0 * comparison.mean_deviation("enhanced"),
        100.0 * comparison.mean_deviation("padhye"),
    )


def _clear(root: Path) -> None:
    for child in root.iterdir():
        if child.is_dir():
            shutil.rmtree(child)
        else:
            child.unlink()


def _stored(store, specs: list) -> int:
    """How many of ``specs`` have an entry file in ``store``."""
    from repro.store.keys import flow_key

    return sum(store.path_for(flow_key(spec)).is_file() for spec in specs)


class Workload:
    name = ""
    duration = 20.0
    flow_scale = 0.2
    #: processes that simulate.  The simulator layers of a workload with
    #: more than one run in children, so its traced run replays them
    #: serially, and replays the specs on the fabric too (store.remote
    #: and fabric are measured there, without a fabric workload)
    concurrency = 1
    #: whether every batch must write every flow into an empty store
    writes_store = False

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.specs: list = []

    def stand_up(self) -> None:
        from repro.traces.generator import campaign_specs

        self.specs = campaign_specs(
            seed=self.seed, duration=self.duration, flow_scale=self.flow_scale,
            cc="reno",
        )

    def prepare(self) -> None:
        """Run a short flow so lazy imports are paid before timing; it is
        2 s long whatever the seed, so its cost does not follow the seed."""
        from repro.exec import Executor

        Executor().run([self.specs[0].with_(duration=2.0)])

    def batch(self) -> Batch:
        raise NotImplementedError

    def reference(self) -> Batch:
        """The serial, storeless campaign of the same specs."""
        from repro.exec import Executor

        with Clock() as clock:
            execution = Executor().run(self.specs)
        return _batch(execution, clock)

    def close(self) -> None:
        pass


class CampaignPoolStore(Workload):
    """Two pool workers writing through an empty local store: results
    are pickled back to the benchmark process, encoded and put."""

    name = "campaign-pool-store"
    concurrency = 2
    writes_store = True

    def stand_up(self) -> None:
        from repro.exec import Executor, ProcessPoolBackend
        from repro.store import ResultStore

        super().stand_up()
        self.executor = Executor(backend=ProcessPoolBackend(workers=2))
        self.store = ResultStore(self.scratch / "pool-store")

    def batch(self) -> Batch:
        from repro.store import store_scope

        _clear(self.store.root)
        with Clock() as clock, store_scope(self.store):
            execution = self.executor.run(self.specs)
        return _batch(
            execution, clock, keep_outcomes=True,
            stored=_stored(self.store, self.specs),
        )


class ReanalyseWarm(Workload):
    """The Fig. 10 pipeline over a store populated during set-up: store
    reads, decode, trace analysis and the closed-form models; the
    simulator does not run."""

    name = "reanalyse-warm"
    #: twice the pool campaign (102 flows): a batch of 51 lasts 2-4 s,
    #: and its time follows the trace sizes of the seed's campaign
    flow_scale = 0.4

    def stand_up(self) -> None:
        from repro.exec import Executor, SerialBackend
        from repro.store import ResultStore

        super().stand_up()
        self.executor = Executor(backend=SerialBackend())
        self.store = ResultStore(self.scratch / "warm-store")
        _clear(self.store.root)

    def prepare(self) -> None:
        """Populate the store with a serial campaign, which is also the
        reference every batch must reproduce; only its digest and
        deviation are kept."""
        from repro.store import store_scope

        with Clock() as clock, store_scope(self.store):
            execution = self.executor.run(self.specs)
        self._reference = _batch(
            execution, clock, deviation=fig10_deviation(execution.traces)
        )

    def batch(self) -> Batch:
        from repro.store import store_scope

        with Clock() as clock:
            with store_scope(self.store):
                execution = self.executor.run(self.specs)
            deviation = fig10_deviation(execution.traces)
        return _batch(execution, clock, deviation=deviation)

    def reference(self) -> Batch:
        return self._reference


class FabricReplay:
    """One campaign of given specs on ``workers="fabric"`` with two
    workers over an in-process store server: lease round trips and HTTP
    store traffic.  The traced run of a workload with children replays
    its specs here; it is not a workload of its own."""

    writes_store = True

    def __init__(self, specs: list, scratch: Path) -> None:
        from repro.exec import Executor
        from repro.fabric import FabricBackend, FabricConfig
        from repro.store import StoreServer

        self.specs = specs
        root = scratch / "fabric-store"
        root.mkdir(parents=True, exist_ok=True)
        self.server = StoreServer(root).start()
        self.backend = FabricBackend(
            FabricConfig(workers=2, store=self.server.url, poll_s=0.02)
        )
        self.executor = Executor(backend=self.backend)

    def batch(self) -> Batch:
        from repro.store import store_scope

        requests = self.server.request_count
        with Clock() as clock, store_scope(self.server.url):
            execution = self.executor.run(self.specs)
        stats = self.backend.last_stats or {}
        return _batch(
            execution, clock,
            stored=_stored(self.server.store, self.specs),
            counters={
                "remote.requests": self.server.request_count - requests,
                "fabric.leases_requeued": stats.get("leases_expired", 0)
                + stats.get("leases_stolen", 0),
                "supervise.worker_restarts": stats.get("restarts", 0),
            },
        )

    def close(self) -> None:
        self.server.close()


WORKLOADS = {cls.name: cls for cls in (CampaignPoolStore, ReanalyseWarm)}
