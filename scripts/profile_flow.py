#!/usr/bin/env python
"""Profile one flow: where does the per-packet wall-clock go?

Runs a single flow (by default the 300 km/h HSR shape that
``bench_engine.py`` measures) under cProfile and prints the top
functions by cumulative time — the view that surfaced the original
hot-path sins (per-packet closure allocation in the link send path, scalar
RNG draws per transmission, heap churn on ``EventHandle`` objects).

``--scenario`` profiles any scenario from the bundled library (or a
scenario file path) instead, so a regression on, say, the subway or
stationary channel shape can be localised without editing the script;
``--list-scenarios`` prints the available names.

Usage::

    python scripts/profile_flow.py [--scenario NAME] [--duration 30]
        [--seed 20150402] [--top 20] [--sort cumulative]
        [--list-scenarios]
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default=None,
                        help="scenario name from the bundled library, or a "
                             "path to a scenario file (default: the "
                             "hsr/300kmh bench shape)")
    parser.add_argument("--list-scenarios", action="store_true",
                        help="print the known scenario names and exit")
    parser.add_argument("--duration", type=float, default=30.0,
                        help="simulated seconds (default 30)")
    parser.add_argument("--seed", type=int, default=20150402,
                        help="flow seed (default 20150402)")
    parser.add_argument("--top", type=int, default=20,
                        help="rows to print (default 20)")
    parser.add_argument("--sort", default="cumulative",
                        choices=["cumulative", "tottime", "ncalls"],
                        help="pstats sort key (default cumulative)")
    args = parser.parse_args(argv)

    from repro.scenarios import compile_scenario, scenario_names
    from repro.simulator.connection import run_flow

    if args.list_scenarios:
        for name in scenario_names():
            print(name)
        return 0

    if args.scenario is not None:
        scenario = compile_scenario(args.scenario)
        label = args.scenario
    else:
        from repro.hsr.scenario import hsr_scenario

        scenario = hsr_scenario()
        label = "hsr/300kmh"

    built = scenario.build(duration=args.duration, seed=args.seed)
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_flow(
        built.config, built.data_loss, built.ack_loss, seed=args.seed
    )
    profiler.disable()

    log = result.log
    print(
        f"profile: {label} flow, {args.duration}s simulated, "
        f"{len(log.data_packets)} data + {len(log.acks)} ack transmissions"
    )
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
