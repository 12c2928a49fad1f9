"""The repository benchmark: one command, three workloads, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Launches the workload in its own process (``workloads.py``), stamps the
result with provenance, prints every metric by name and unit, and ends
with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones in
``BENCHMARK.json``; with ``--trace 1`` the workload also runs once under
the per-layer tracer (``tracer.py``) and the metrics are the per-layer
ones, plus the tracing overhead against an untraced run of the same
work. Every result set is also written, with its fingerprint, under
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import common

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (common.SRC / "repro" / "__init__.py").is_file():
        return _fail(f"no program source under {common.SRC}; run from a full checkout")

    results = common.WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.unlink(missing_ok=True)
    metered = common.run_metered(
        [common.python(), str(Path(__file__).with_name("workloads.py")), args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out", str(out)],
        stdout_path=results / f"{args.workload}.log",
        timeout_s=175.0,
    )
    if metered.returncode != 0 or not out.exists():
        log = (results / f"{args.workload}.log").read_text(errors="replace")[-4000:]
        return _fail(f"workload {args.workload} exited {metered.returncode}:\n{log}")
    result = json.loads(out.read_text())

    wanted = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    source = result.get("layers", {}) if args.trace else result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        return _fail(f"workload {args.workload} did not report {', '.join(missing)}")

    stamp = common.provenance(args.workload, args.seed, result["params"])
    result["provenance"] = stamp
    result["recorded_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    out.write_text(json.dumps(result, indent=1, default=str))

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"fingerprint={stamp['fingerprint']} git={stamp['git_sha'] or '-'}"
          f"{'+dirty' if stamp['git_dirty'] else ''} cpu={stamp['cpu_model']!r} "
          f"nproc={stamp['nproc']} python={stamp['python']} numpy={stamp['numpy']}")
    print(f"# params {json.dumps(result['params'], sort_keys=True)}")
    for name, value in result.get("samples", {}).items():
        print(f"# sample {name} = {json.dumps(value, default=str)[:400]}")
    for note in result.get("notes", []):
        print(f"# note {note}")
    # Metrics a workload reports beyond the gated set (serve-mixed's tail
    # latency and throughput), with their sample counts.
    for name, extra in result.get("extra", {}).items():
        value = "n/a (too few samples)" if extra["value"] is None else f"{extra['value']:14.6f}"
        print(f"{name:32s} {value} {extra['unit']} (n={extra['samples']})")
    metrics = {}
    for spec in wanted:
        value = float(source[spec["name"]])
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']:32s} {value:14.6f} {spec['unit']}")
    correct = result["failed"] == 0 and result.get("valid", True)
    print(f"operations: {result['failed']} failed of {result['attempted']} attempted"
          f"{'' if result.get('valid', True) else ' (INVALID: generator ran late)'}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
