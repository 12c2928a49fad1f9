"""One 10k-AS observation day, run as its own process so it can be metered.

Builds ``TopologyConfig.internet_scale(10_000)`` and its ``Scenario``
``--builds`` times (set-up samples), then synthesizes the takedown day
once and observes it from each requested vantage through the blocked
visibility matrix. Prints one JSON line with the timings and row counts.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

N_ASNS = 10_000
#: Traffic scale of the day; the topology, not the flow count, is what
#: this workload stresses.
SCALE = 0.05


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--builds", type=int, default=3)
    parser.add_argument("--vantages", default="ixp")
    parser.add_argument("--trace-dir")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from repro.netmodel.topology import TopologyConfig
    from repro.obs import MetricsRegistry, set_metrics
    from repro.scenario import Scenario, ScenarioConfig

    registry = None
    if args.trace_dir:
        import tracer

        active = tracer.install(tracer.Tracer(args.trace_dir))
        registry = MetricsRegistry(enabled=True)
        set_metrics(registry)

    config = ScenarioConfig(
        seed=args.seed, scale=SCALE, topology=TopologyConfig.internet_scale(N_ASNS)
    )
    setup_s = []
    scenario = None
    for _ in range(max(1, args.builds)):
        scenario = None
        gc.collect()
        start = time.perf_counter()
        scenario = Scenario(config)
        setup_s.append(time.perf_counter() - start)
    blocked = bool(scenario.visibility.matrix.blocked)

    start = time.perf_counter()
    traffic = scenario.day_traffic(scenario.config.takedown_day)
    synth_s = time.perf_counter() - start
    rows, vantage_s = {}, {}
    for vantage in args.vantages.split(","):
        t0 = time.perf_counter()
        rows[vantage] = len(scenario.observe_day(vantage, traffic))
        vantage_s[vantage] = time.perf_counter() - t0
    day_s = time.perf_counter() - start

    out = {
        "setup_s": setup_s,
        "day_s": day_s,
        "synth_s": synth_s,
        "vantage_s": vantage_s,
        "rows": rows,
        "blocked": blocked,
    }
    if registry is not None:
        out["program_counters"] = dict(registry.counters)
        active.flush()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
