#!/usr/bin/env python3
"""The repository benchmark: one campaign workload, measured end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign-pool-store --seed 1 \\
        --seconds 30 --trace 0

Workloads: ``campaign-pool-store`` and ``reanalyse-warm`` (see
``workloads.py``).  ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``.  ``--trace 1`` alternates untraced and traced
batches and prints its per-layer metrics (spans from ``tracing.py``),
with the tracing overhead; ``layers.json`` holds their predictions.

Every batch is checked: its digest (sha256 over the pickled traces and
the report JSON) must equal the serial campaign's for the same seed and
size, and every attempted flow must complete.  A workload that writes
a store must find one entry per flow in it after every batch.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the host, the
set-up terms, the peak memory split and the batches.

The work happens in ``main`` only: the process pool's spawned workers
import this file as their main module.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent

#: stand-ups per run, and imports before and again after the batches;
#: ``setup_s`` takes their medians
SETUP_REPEATS = 5

#: the program's modules a workload imports, timed in fresh interpreters
IMPORTS = ("repro.exec", "repro.fabric", "repro.store", "repro.traces.generator")


def _parse(argv):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _peak_mb(pid="self") -> float:
    """A process's peak resident set (``VmHWM``) in MB; 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _reset_peak() -> None:
    """Restart this process's ``VmHWM`` from its current resident set,
    so the set-up's peak does not hide the batches'."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def _parent(pid: str):
    """A process's parent pid; None once it is gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("PPid:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


class ChildPeaks:
    """Samples the peak resident set of this process's live children.

    A spawned worker's ``VmHWM`` is kept from its exec on and holds only
    its own pages, unlike its ``ru_maxrss``, which starts from this
    process's size at the fork.  Workers live for one batch, so a thread
    reads their peaks while they run; ``take`` returns the sum over the
    children seen since the last ``take``.
    """

    def __init__(self, interval_s: float = 0.05) -> None:
        import os
        import threading

        self._me = os.getpid()
        self._interval_s = interval_s
        self._peaks: dict = {}
        self._strangers: set = set()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        import os

        for pid in os.listdir("/proc"):
            if not pid.isdigit() or pid in self._strangers:
                continue
            if pid not in self._peaks:
                parent = _parent(pid)
                if parent != self._me:
                    if parent is not None:
                        self._strangers.add(pid)
                    continue
            peak = _peak_mb(pid)
            with self._lock:
                self._peaks[pid] = max(self._peaks.get(pid, 0.0), peak)

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            self._sample()

    def take(self) -> float:
        self._sample()
        with self._lock:
            total = sum(self._peaks.values())
            self._peaks.clear()
        return total

    def __enter__(self) -> "ChildPeaks":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def _children_cpu() -> float:
    import os

    times = os.times()
    return times.children_user + times.children_system


def _reap_children() -> None:
    """Wait for every worker process the pool started, so their CPU
    time and peak RSS are accounted to this process."""
    import multiprocessing

    for child in multiprocessing.active_children():
        child.join()


def _stop_children() -> None:
    """Stop every process this one started and wait for each to end.

    Besides the pool's workers, the spawn pool starts multiprocessing's
    resource tracker, which lives until this process exits and is then
    left unreaped; it is stopped here.  Any other child still running
    is terminated.
    """
    import os
    import signal
    from multiprocessing import resource_tracker

    _reap_children()
    resource_tracker._resource_tracker._stop()
    me = os.getpid()
    for pid in os.listdir("/proc"):
        if pid.isdigit() and _parent(pid) == me:
            try:
                os.kill(int(pid), signal.SIGTERM)
                os.waitpid(int(pid), 0)
            except (ChildProcessError, ProcessLookupError):
                pass


def _host() -> dict:
    import os
    import platform

    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def _import_s() -> float:
    """Seconds to import the program in a fresh interpreter."""
    import os
    import subprocess

    timer = (
        "import time; start = time.perf_counter(); "
        f"import {', '.join(IMPORTS)}; print(time.perf_counter() - start)"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", timer], env=env, cwd=ROOT,
        capture_output=True, text=True, check=True,
    )
    return float(done.stdout)


def _set_up(workload_cls, seed: int, scratch: Path):
    """Time ``SETUP_REPEATS`` imports of the program in fresh
    interpreters, stand the workload up as often, then prepare it;
    returns ``(workload, imports, parts)``.

    ``imports`` lists the import times; ``parts`` holds the median
    stand-up and the one-off preparation (a warm-up flow, or the store
    population of ``reanalyse-warm``).
    """
    import gc
    import importlib
    import statistics
    from time import perf_counter

    imports = [_import_s() for _ in range(SETUP_REPEATS)]
    for name in IMPORTS:
        importlib.import_module(name)
    workload = workload_cls(seed, scratch)
    stand_ups = []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            workload.close()
        start = perf_counter()
        workload.stand_up()
        stand_ups.append(perf_counter() - start)
    start = perf_counter()
    workload.prepare()
    prepare_s = perf_counter() - start
    gc.collect()
    _reset_peak()
    parts = {"stand_up_s": statistics.median(stand_ups), "prepare_s": prepare_s}
    return workload, imports, parts


def _measure(workload, seconds: float, trace: bool):
    """Closed-loop batches until ``seconds`` of batch time have run.

    A batch starts only while at least half of one more batch fits.
    With ``trace`` the batches alternate untraced and traced, and at
    least one of each runs.  Returns ``(batches, ledger, window)``;
    only the last batch keeps its outcomes.
    """
    import tracing

    ledger = tracing.Ledger()
    batches = []
    children_mb = 0.0
    children_before = _children_cpu()
    spent = 0.0
    with ChildPeaks() as child_peaks:
        while True:
            if batches:
                batches[-1].outcomes = []
            if trace and len(batches) % 2 == 1:
                with tracing.install(ledger):
                    batch = workload.batch()
                batch.traced = True
            else:
                batch = workload.batch()
            children_mb = max(children_mb, child_peaks.take())
            batches.append(batch)
            spent += batch.elapsed_s
            if spent + 0.5 * batch.elapsed_s >= seconds and (
                not trace or len(batches) >= 2
            ):
                break
    _reap_children()
    window = {
        # this process's CPU inside batches plus all children's CPU:
        # children run only inside batches and are accounted once reaped
        "cpu_s": sum(b.cpu_s for b in batches)
        + _children_cpu() - children_before,
        # this process's peak since set-up, and the largest sum of the
        # children's peaks over one batch
        "peak_rss_mb": {"self": _peak_mb(), "children": children_mb},
    }
    return batches, ledger, window


def _check(workload, batches, reference) -> list:
    """Every failed output check, as messages (empty when correct)."""
    errors = []
    specs = len(workload.specs)
    for number, batch in enumerate(batches):
        if batch.digest != reference.digest:
            errors.append(f"batch {number}: digest differs from the serial campaign")
        if batch.flows != batch.attempted or batch.flows != specs:
            errors.append(
                f"batch {number}: {batch.flows} of {batch.attempted} attempted "
                f"flows completed, {specs} specified"
            )
        if workload.writes_store:
            # the store starts empty: every flow a miss, put without error
            if batch.misses != specs or batch.store_errors:
                errors.append(
                    f"batch {number}: {batch.misses} store misses and "
                    f"{batch.store_errors} write errors for {specs} flows"
                )
            if batch.stored != specs:
                errors.append(
                    f"batch {number}: {batch.stored} of {specs} flows in the store"
                )
        if reference.deviation is not None:
            # reanalyse-warm: every flow read back from the store, and
            # the Fig. 10 deviation repeats exactly
            if batch.deviation != reference.deviation:
                errors.append(f"batch {number}: Fig. 10 deviation differs")
            if batch.hits != specs:
                errors.append(f"batch {number}: {batch.hits} store hits")
    if reference.flows != specs:
        errors.append("the serial reference did not complete every flow")
    return errors


def _replay(workload, batches) -> dict:
    """The layers this workload runs in child processes, or not at all,
    replayed in the benchmark process under their own ledgers.

    ``sim``: the serial campaign run again, traced (the simulator layers
    of pool and fabric workers).  ``transfer``: the pickle round trip per
    flow of the last batch's outcomes, what pool and fabric workers ship
    back.  ``fabric``: one traced fabric campaign of the same specs over
    a fresh store server, whose batch is checked like the others.
    """
    import pickle
    from time import perf_counter

    import tracing
    from repro.exec import Executor
    from workloads import FabricReplay

    replay = {"sim": tracing.Ledger()}
    with tracing.install(replay["sim"]):
        Executor().run(workload.specs)
    outcomes = batches[-1].outcomes
    size = 0
    start = perf_counter()
    for outcome in outcomes:
        raw = pickle.dumps(outcome)
        size += len(raw)
        pickle.loads(raw)
    replay["transfer"] = {
        "bytes": size / len(outcomes),
        "roundtrip_s": (perf_counter() - start) / len(outcomes),
    }
    fabric = FabricReplay(workload.specs, workload.scratch)
    ledger = tracing.Ledger()
    try:
        with tracing.install(ledger):
            batch = fabric.batch()
    finally:
        fabric.close()
    batch.traced = True
    replay["fabric"] = (fabric, ledger, batch)
    return replay


def _layer_metrics(workload, batches, ledger, reference, replay) -> dict:
    """The per-layer ledger of ``layers.json``, normalised per flow."""
    traced = [b for b in batches if b.traced]
    untraced = [b for b in batches if not b.traced]
    flows = sum(b.flows for b in traced)
    all_flows = sum(b.flows for b in batches)
    self_s, calls, units = ledger.self_s, ledger.calls, ledger.units
    sim, sim_flows, transfer, simulate_s = ledger, flows, None, 0.0
    fabric, fabric_batches = ledger, traced
    if replay:
        sim, sim_flows = replay["sim"], len(workload.specs)
        transfer = replay["transfer"]
        simulate_s = reference.elapsed_s / reference.flows
        _, fabric, fabric_batch = replay["fabric"]
        fabric_batches = [fabric_batch]
    fabric_flows = sum(b.flows for b in fabric_batches)
    fabric_requests = sum(b.counters.get("remote.requests", 0) for b in fabric_batches)

    def per_flow(name):
        return self_s[name] / flows

    def counter(name):
        return sum(b.counters.get(name, 0) for b in batches) / all_flows

    traced_rate = flows / sum(b.elapsed_s for b in traced)
    untraced_rate = sum(b.flows for b in untraced) / sum(b.elapsed_s for b in untraced)
    entries = calls["codec.encode_entry"] + calls["codec.decode_entry"]
    entry_bytes = units["codec.encode_entry"] + units["codec.decode_entry"]
    lookups = sum(b.hits + b.misses for b in traced)
    last = batches[-1]
    return {
        "engine.events": sim.units["engine.run"] / sim_flows,
        "engine.self_s": sim.self_s["engine.run"] / sim_flows,
        "channel.send_burst.calls": sim.calls["channel.send_burst"] / sim_flows,
        "channel.packets_per_burst": sim.units["channel.send_burst"]
        / max(sim.calls["channel.send_burst"], 1),
        "channel.is_lost_block_s": sim.self_s["channel.is_lost_block"] / sim_flows,
        "sender.on_ack.calls": sim.calls["sender.on_ack"] / sim_flows,
        "sender.on_ack_s": sim.self_s["sender.on_ack"] / sim_flows,
        "receiver.on_data_s": sim.self_s["receiver.on_data"] / sim_flows,
        "flowlog.records_per_flow": sim.calls["flowlog.append"] / sim_flows,
        "flowlog.append_s": sim.self_s["flowlog.append"] / sim_flows,
        "exec.overhead_s_per_flow": per_flow("exec.run")
        - simulate_s / workload.concurrency,
        "exec.result_bytes_per_flow": transfer["bytes"] if transfer else 0.0,
        "exec.pickle_roundtrip_s_per_flow": transfer["roundtrip_s"] if transfer else 0.0,
        "codec.encode_s_per_flow": (self_s["codec.encode"] + self_s["codec.encode_entry"])
        / flows,
        "codec.decode_s_per_flow": (self_s["codec.decode"] + self_s["codec.decode_entry"])
        / flows,
        "codec.bytes_per_flow": entry_bytes / entries if entries else 0.0,
        "store.put_s": per_flow("store.put"),
        "store.get_s": per_flow("store.get"),
        "store.hit_ratio": sum(b.hits for b in traced) / lookups if lookups else 0.0,
        "remote.get_s": fabric.self_s["remote.get"] / fabric_flows,
        "remote.put_s": fabric.self_s["remote.put"] / fabric_flows,
        "remote.requests_per_flow": fabric_requests / fabric_flows,
        "fabric.round_trips_per_flow": (fabric.calls["fabric.request"] + fabric_requests)
        / fabric_flows,
        "fabric.leases_requeued": sum(
            b.counters.get("fabric.leases_requeued", 0) for b in fabric_batches
        ) / fabric_flows,
        "traces.measured_inputs_s_per_flow": per_flow("traces.measured_inputs"),
        "core.model_s_per_flow": per_flow("core.model"),
        "core.enhanced_mean_D_pct": last.deviation[0] if last.deviation else 0.0,
        "supervise.retries": counter("supervise.retries"),
        "supervise.worker_restarts": counter("supervise.worker_restarts"),
        "trace.flows_per_s": traced_rate,
        "trace.overhead_pct": 100.0 * (untraced_rate / traced_rate - 1.0),
    }


def _coverage(layers: dict, values: dict, workload: str) -> list:
    """Per-layer counters that read zero where the predictions say the
    workload exercises them (a wrapper patched where nobody looks)."""
    return [
        f"per-layer metric {name} is 0 on {workload}"
        for name, layer in layers.items()
        if workload in layer["exercised_on"] and not values[name] > 0
    ]


def main(argv=None) -> int:
    import json
    import os
    import shutil
    import signal
    import statistics

    args = _parse(argv)
    # a termination request unwinds through the clean-up below
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"known: {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())["metrics"]
    if sorted(layers) != sorted(m["name"] for m in benchmark["per_layer"]):
        print(
            "perfbench: layers.json and BENCHMARK.json name different "
            "per-layer metrics",
            file=sys.stderr,
        )
        return 2
    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True)
    workload = None
    try:
        workload, imports, setup_parts = _set_up(
            WORKLOADS[args.workload], args.seed, scratch
        )
        batches, ledger, window = _measure(workload, args.seconds, bool(args.trace))
        reference = workload.reference()
        if not args.trace:
            # as many imports again after the batches: the import time
            # drifts with the host's load, and the median then spans the run
            imports += [_import_s() for _ in range(SETUP_REPEATS)]
        setup_parts["import_s"] = statistics.median(imports)
        errors = _check(workload, batches, reference)
        if args.trace:
            replay = _replay(workload, batches) if workload.concurrency > 1 else {}
            if replay:
                fabric, _, fabric_batch = replay["fabric"]
                errors += [
                    f"fabric replay: {error}"
                    for error in _check(fabric, [fabric_batch], reference)
                ]
            values = _layer_metrics(workload, batches, ledger, reference, replay)
            errors += _coverage(layers, values, workload.name)
            listed = benchmark["per_layer"]
        else:
            flows = sum(b.flows for b in batches)
            values = {
                "flows_per_s": statistics.median(b.flows / b.elapsed_s for b in batches),
                "setup_s": sum(setup_parts.values()),
                "cpu_s_per_flow": window["cpu_s"] / flows,
                "peak_rss_mb": sum(window["peak_rss_mb"].values()),
            }
            listed = benchmark["end_to_end"]
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed
        }
    finally:
        if workload is not None:
            workload.close()
        _stop_children()
        shutil.rmtree(scratch, ignore_errors=True)
    for error in errors:
        print(f"perfbench: CHECK FAILED: {error}", file=sys.stderr)
    print(json.dumps({
        "host": _host(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup": {name: round(value, 4) for name, value in setup_parts.items()},
        "peak_rss_mb": {name: round(value, 1) for name, value in window["peak_rss_mb"].items()},
        "batches": [round(b.elapsed_s, 4) for b in batches],
        "flows_per_batch": len(workload.specs),
    }))
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(b.attempted for b in batches),
        "failed": sum(b.failed for b in batches),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
