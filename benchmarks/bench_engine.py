#!/usr/bin/env python
"""Micro-benchmark: the simulator core's event and packet hot paths.

Three measurements, written to ``BENCH_engine.json``:

* **events/sec** — a pure engine loop: the heap is pre-filled with
  payload events (the same ``schedule_call`` path every packet
  delivery uses) and drained, measuring raw dispatch throughput with
  no transport logic attached.
* **packets/sec** — one full HSR flow (:func:`repro.simulator.connection.run_flow`
  over the 300 km/h scenario's channels), measuring wire transmissions
  (data + ACK) per wall-clock second, plus the flow's engine
  events/sec for context.
* **telemetry overhead** — the same HSR flow with telemetry off, with
  a :class:`~repro.telemetry.NullTelemetry` sink, and with a live
  :class:`~repro.telemetry.CountingTelemetry` sink.  Each round
  interleaves the three legs flow by flow (rotating which leg goes
  first) until every leg has run for at least one second, and scores
  the round by the median over its cycles of each leg's flow time
  against the off flow beside it; the gates judge the median over
  rounds, and the artefact records the interquartile range beside
  it.  ``NullTelemetry`` is normalised
  away at construction, so its leg exercises the exact uninstrumented
  code path; the benchmark *fails* (exit 1) if it measures more than
  5% slower than telemetry-off, because that would mean the
  zero-overhead-when-off contract broke.  The counting leg has its own
  15% budget: live counters take one hook call per packet and must
  stay cheap enough to leave on for campaigns.

The committed artefact is the regression baseline: ``scripts/smoke.py``
re-measures and fails when events/sec drops more than 30% below it.
Every run also appends a timestamped one-line summary to
``BENCH_history.jsonl`` next to the artefact, so throughput trends
survive artefact rewrites.

Usage::

    python benchmarks/bench_engine.py [--events 200000] [--flow-duration 30]
        [--repeats 5] [--output BENCH_engine.json]

``--repeats`` is the best-of count for the two throughput measurements
and the number of rounds for the overhead one.
"""

from __future__ import annotations

import argparse
import gc
import os
import statistics
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from _common import append_history, overhead_pct, write_artifact  # noqa: E402

#: NullTelemetry must cost nothing: it resolves to the uninstrumented
#: engine, so anything beyond measurement noise is a broken contract.
NULL_OVERHEAD_LIMIT_PCT = 5.0

#: CountingTelemetry is the always-on campaign sink; its per-packet
#: integer increments must stay within this budget of the
#: uninstrumented flow.
COUNTING_OVERHEAD_LIMIT_PCT = 15.0

#: Wall-clock seconds each overhead leg runs per round: one HSR flow
#: takes tens of milliseconds, too short to resolve a 2-point shift.
MIN_LEG_S = 1.0


def bench_event_loop(events: int, repeats: int) -> dict:
    """Drain a pre-filled heap of payload events; best of ``repeats``."""
    from repro.simulator.engine import Simulator

    def sink(payload, time):
        pass

    best = float("inf")
    for _ in range(repeats):
        sim = Simulator()
        for index in range(events):
            sim.schedule_call(index * 1e-6, sink, index)
        start = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return {
        "events": events,
        "elapsed_s": round(best, 4),
        "events_per_s": round(events / best, 1),
    }


def _timed_flow(duration: float, seed: int = 20150402, telemetry=None):
    """One freshly-built HSR flow; returns (elapsed_s, result, simulator)."""
    from repro.hsr.scenario import hsr_scenario
    from repro.simulator.connection import run_flow
    from repro.simulator.engine import Simulator
    from repro.telemetry import active

    built = hsr_scenario().build(duration=duration, seed=seed)
    sim = Simulator(telemetry=active(telemetry))
    gc.collect()  # start every timed flow from the same heap state
    start = time.perf_counter()
    result = run_flow(
        built.config,
        built.data_loss,
        built.ack_loss,
        seed=seed,
        simulator=sim,
        telemetry=telemetry,
    )
    elapsed = time.perf_counter() - start
    return elapsed, result, sim


def bench_flow(duration: float, repeats: int) -> dict:
    """One HSR flow per repeat; best wall-clock wins."""
    best = float("inf")
    packets = events = 0
    for _ in range(repeats):
        elapsed, result, sim = _timed_flow(duration)
        if elapsed < best:
            best = elapsed
            packets = result.log.data_sent + result.log.acks_sent
            events = sim.events_processed
    return {
        "scenario": "hsr/300kmh",
        "sim_duration_s": duration,
        "elapsed_s": round(best, 4),
        "packets": packets,
        "packets_per_s": round(packets / best, 1),
        "engine_events": events,
        "engine_events_per_s": round(events / best, 1),
    }


def _median_iqr(values):
    """(median, interquartile range) of per-round readings."""
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q3 - q1


def bench_telemetry_overhead(duration: float, rounds: int) -> dict:
    """HSR flow with telemetry off vs NullTelemetry vs CountingTelemetry.

    A round runs cycles of one flow per leg, rotating which leg goes
    first, until each leg has run for :data:`MIN_LEG_S`.  Each cycle
    compares a leg's flow with the off flow right beside it, so a host
    slowdown lasting longer than a cycle lands on both; the round's
    overhead is the median over its cycles, which a single stalled
    flow cannot move.
    """
    from repro.telemetry import CountingTelemetry, NullTelemetry

    legs = [("off", None), ("null", NullTelemetry), ("counting", CountingTelemetry)]
    flow_s = {name: [] for name, _ in legs}
    per_round = {"null": [], "counting": []}
    flows_per_leg = []
    cycle = 0
    for _ in range(rounds):
        spent = {name: 0.0 for name, _ in legs}
        ratios = {name: [] for name in per_round}
        flows = 0
        while min(spent.values()) < MIN_LEG_S:
            shift = cycle % len(legs)
            elapsed = {}
            for name, factory in legs[shift:] + legs[:shift]:
                sink = factory() if factory is not None else None
                elapsed[name], _, _ = _timed_flow(duration, telemetry=sink)
                spent[name] += elapsed[name]
                flow_s[name].append(elapsed[name])
            for name in ratios:
                ratios[name].append(overhead_pct(elapsed["off"], elapsed[name]))
            cycle += 1
            flows += 1
        for name in per_round:
            per_round[name].append(statistics.median(ratios[name]))
        flows_per_leg.append(flows)
    null_pct, null_iqr = _median_iqr(per_round["null"])
    counting_pct, counting_iqr = _median_iqr(per_round["counting"])
    return {
        "scenario": "hsr/300kmh",
        "sim_duration_s": duration,
        "rounds": rounds,
        "min_leg_s": MIN_LEG_S,
        "flows_per_leg": flows_per_leg,
        "off_s": round(statistics.median(flow_s["off"]), 4),
        "null_s": round(statistics.median(flow_s["null"]), 4),
        "counting_s": round(statistics.median(flow_s["counting"]), 4),
        "null_overhead_pct": round(null_pct, 2),
        "null_overhead_iqr_pct": round(null_iqr, 2),
        "counting_overhead_pct": round(counting_pct, 2),
        "counting_overhead_iqr_pct": round(counting_iqr, 2),
        "null_limit_pct": NULL_OVERHEAD_LIMIT_PCT,
        "counting_limit_pct": COUNTING_OVERHEAD_LIMIT_PCT,
    }


def run_benchmark(events: int, flow_duration: float, repeats: int) -> dict:
    return {
        "benchmark": "engine",
        "cpu_count": os.cpu_count(),
        "event_loop": bench_event_loop(events, repeats),
        "hsr_flow": bench_flow(flow_duration, repeats),
        "telemetry": bench_telemetry_overhead(flow_duration, repeats),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=200000,
                        help="payload events in the pure engine drain (default 200000)")
    parser.add_argument("--flow-duration", type=float, default=30.0,
                        help="simulated seconds for the HSR flow (default 30)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="best-of count for the throughput measurements and "
                             "rounds for the overhead one (default 5)")
    parser.add_argument("--output", default=os.path.join(REPO_ROOT, "BENCH_engine.json"),
                        help="where to write the JSON artefact")
    args = parser.parse_args(argv)

    result = run_benchmark(args.events, args.flow_duration, args.repeats)
    write_artifact(args.output, result)

    loop = result["event_loop"]
    flow = result["hsr_flow"]
    telemetry = result["telemetry"]
    append_history(
        {
            "benchmark": "engine",
            "events_per_s": loop["events_per_s"],
            "packets_per_s": flow["packets_per_s"],
            "null_overhead_pct": telemetry["null_overhead_pct"],
            "counting_overhead_pct": telemetry["counting_overhead_pct"],
        },
        args.output,
    )
    print(f"bench: engine drain {loop['events_per_s']:,.0f} events/s "
          f"({loop['events']} events in {loop['elapsed_s']}s)")
    print(f"bench: HSR flow {flow['packets_per_s']:,.0f} packets/s, "
          f"{flow['engine_events_per_s']:,.0f} events/s "
          f"({flow['packets']} packets in {flow['elapsed_s']}s)")
    print(f"bench: telemetry overhead, median of {telemetry['rounds']} rounds — "
          f"null {telemetry['null_overhead_pct']:+.2f}% "
          f"(IQR {telemetry['null_overhead_iqr_pct']:.2f}), "
          f"counting {telemetry['counting_overhead_pct']:+.2f}% "
          f"(IQR {telemetry['counting_overhead_iqr_pct']:.2f}) "
          f"(off {telemetry['off_s']}s per flow)")
    failed = False
    if telemetry["null_overhead_pct"] > NULL_OVERHEAD_LIMIT_PCT:
        print(f"bench: FAIL — NullTelemetry overhead "
              f"{telemetry['null_overhead_pct']:.2f}% exceeds the "
              f"{NULL_OVERHEAD_LIMIT_PCT:.0f}% zero-overhead budget",
              file=sys.stderr)
        failed = True
    if telemetry["counting_overhead_pct"] > COUNTING_OVERHEAD_LIMIT_PCT:
        print(f"bench: FAIL — CountingTelemetry overhead "
              f"{telemetry['counting_overhead_pct']:.2f}% exceeds the "
              f"{COUNTING_OVERHEAD_LIMIT_PCT:.0f}% live-counter budget",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
