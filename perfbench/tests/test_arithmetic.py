"""The benchmark's own arithmetic: percentiles, due-time latency, the
process-tree RSS and CPU meters, the request mix and span self time.

    python3 -m pytest -q perfbench/tests
"""

import os
import sys
import textwrap
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import common  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


# -- percentiles ---------------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    assert common.percentile(list(range(999)), 99) is None
    assert common.percentile([float(i) for i in range(1000)], 99) == 989.0
    # 100 samples carry a p90 (10 beyond) but not a p95 (5 beyond).
    values = [float(i) for i in range(100)]
    assert common.percentile(values, 90) == 89.0
    assert common.percentile(values, 95) is None


def test_lower_quartile_ignores_a_slow_half_and_never_extrapolates():
    # Eight passes of the same work, the last half slowed by a burst.
    assert common.lower_quartile([1.0, 1.02, 0.98, 1.01, 2.0, 2.2, 1.9, 2.1]) == pytest.approx(1.0075)
    assert common.lower_quartile([3.0, 5.0]) == pytest.approx(3.5)
    assert common.lower_quartile([4.0]) == 4.0
    with pytest.raises(ValueError):
        common.lower_quartile([])


def test_percentile_rejects_out_of_range_q():
    with pytest.raises(ValueError):
        common.percentile([1.0] * 100, 100)


def test_tail_picks_the_highest_reportable_percentile():
    assert common.tail([float(i) for i in range(1000)]) == (99, 989.0)
    assert common.tail([float(i) for i in range(200)]) == (95, 189.0)
    with pytest.raises(ValueError):
        common.tail([1.0] * 5)


# -- open-loop latency -----------------------------------------------------------------


def test_due_time_latency_charges_a_stall_to_every_request_behind_it():
    # Requests due every 10 ms on one connection; the server stalls for
    # 100 ms on the second request. Timing from the send would report
    # 1 ms for the requests queued behind the stall; timing from the due
    # time charges each one the wait it really had.
    due = [0.00, 0.01, 0.02, 0.03, 0.04]
    service = [0.001, 0.100, 0.001, 0.001, 0.001]
    ready, sent, done = [], [], []
    free_at = 0.0
    for d, s in zip(due, service):
        ready.append(free_at)
        start = max(d, free_at)
        sent.append(start)
        free_at = start + s
        done.append(free_at)
    latencies = common.due_time_latencies(due, done)
    from_send = [e - s for s, e in zip(sent, done)]
    assert from_send[2:] == pytest.approx([0.001] * 3)
    assert latencies[2] == pytest.approx(0.111 - 0.02)
    assert latencies[4] == pytest.approx(0.113 - 0.04)
    # The generator itself was never late: every send went out as soon
    # as the request was due and a connection was free.
    assert common.generator_lateness(due, ready, sent) == pytest.approx([0.0] * 5)


def test_generator_lateness_isolates_the_generators_own_delay():
    due, ready, sent = [1.0, 2.0], [0.5, 2.5], [1.004, 2.5]
    assert common.generator_lateness(due, ready, sent) == pytest.approx([0.004, 0.0])


# -- process-tree peak RSS ----------------------------------------------------------------


def test_peak_rss_counts_worker_processes(tmp_path):
    script = tmp_path / "tree.py"
    script.write_text(textwrap.dedent(
        """
        import multiprocessing as mp

        def worker():
            block = bytearray(160 * 1024 * 1024)
            block[::4096] = b"x" * len(block[::4096])

        if __name__ == "__main__":
            p = mp.get_context("spawn").Process(target=worker)
            p.start()
            p.join()
            raise SystemExit(p.exitcode)
        """
    ))
    metered = common.run_metered([sys.executable, str(script)], timeout_s=60)
    assert metered.returncode == 0
    # The parent alone stays far below the worker's 160 MB.
    assert metered.peak_rss_mb > 150
    assert metered.cpu_s > 0


def test_process_cpu_s_reads_a_running_process():
    before = common.process_cpu_s(os.getpid())
    deadline = time.process_time() + 0.3
    while time.process_time() < deadline:
        pass
    spent = common.process_cpu_s(os.getpid()) - before
    # Clock-tick resolution: within a few ticks of the 0.3 s spent.
    assert spent == pytest.approx(0.3, abs=0.05)


# -- request mix -------------------------------------------------------------------------


def test_apportion_keeps_the_mix_exact():
    weights = {"day": 1, "victims": 1, "range": 0.5, "analysis": 0.5}
    assert workloads.apportion(198, weights) == {"day": 66, "victims": 66, "range": 33, "analysis": 33}
    odd = workloads.apportion(100, {"a": 1, "b": 1, "c": 1})
    assert sum(odd.values()) == 100 and sorted(odd.values()) == [33, 33, 34]


# -- span self time -------------------------------------------------------------------


def test_self_time_is_span_minus_children():
    t = tracer.Tracer()
    outer = t.begin("observe")
    time.sleep(0.02)
    inner = t.begin("topo.matrix")
    time.sleep(0.03)
    innermost = t.begin("topo.route")
    time.sleep(0.01)
    t.end(innermost)
    t.end(inner)
    time.sleep(0.02)
    t.end(outer)
    for layer in ("observe", "topo.matrix", "topo.route"):
        assert t.calls[layer] == 1
    assert t.self_s["observe"] == pytest.approx(t.span_s["observe"] - t.span_s["topo.matrix"])
    assert t.self_s["topo.matrix"] == pytest.approx(
        t.span_s["topo.matrix"] - t.span_s["topo.route"]
    )
    assert t.self_s["topo.route"] == pytest.approx(t.span_s["topo.route"])
    assert t.self_s["observe"] == pytest.approx(0.04, abs=0.015)
    # Self times partition the root span.
    assert sum(t.self_s.values()) == pytest.approx(t.root_s)


def test_merge_sums_pids_and_counts_worker_busy_time():
    main = {"pid": 1, "role": "main", "calls": {"transport": 1}, "span_s": {"transport": 2.0},
            "self_s": {"transport": 2.0}, "root_s": 2.0, "tiers": {},
            "counts": {"transport.capacity_s": 4.0, "cache.resident_bytes": 5.0}, "days": []}
    workers = [
        {"pid": p, "role": "worker", "calls": {"synth": 2}, "span_s": {"synth": 1.5},
         "self_s": {"synth": 1.5}, "root_s": 1.5, "tiers": {},
         "counts": {"synth.flows": 10.0, "cache.resident_bytes": 7.0}, "days": [[p, True], [3, True]]}
        for p in (2, 3)
    ]
    merged = tracer.merge([main, *workers])
    metrics = tracer.layer_metrics(merged)
    assert metrics["synth.calls"] == 4
    assert metrics["synth.distinct_days"] == 2  # (2, True) and (3, True)
    assert metrics["synth.flows"] == 20
    assert metrics["transport.busy_frac"] == pytest.approx(3.0 / 4.0)
    assert metrics["cache.resident_mb"] == pytest.approx(7e-6)  # a peak, not a sum
    assert merged["pids"] == {1: "main", 2: "worker", 3: "worker"}


def _worker_span(t):
    frame = t.begin("synth")
    time.sleep(0.01)
    t.end(frame)


def test_forked_workers_write_their_spans_per_pid(tmp_path):
    import multiprocessing
    import multiprocessing.util

    t = tracer.Tracer(tmp_path)
    multiprocessing.util.register_after_fork(t, tracer.Tracer._after_fork)
    parent = t.begin("transport")
    ctx = multiprocessing.get_context("fork")
    workers = [ctx.Process(target=_worker_span, args=(t,)) for _ in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=30)
        assert w.exitcode == 0
    t.end(parent)
    t.flush()
    records = {r["pid"]: r for r in tracer.load(tmp_path)}
    assert {w.pid for w in workers} | {t.pid} == set(records)
    for w in workers:
        # Each worker reports only its own span, not the parent's totals.
        assert records[w.pid]["role"] == "worker"
        assert records[w.pid]["calls"] == {"synth": 1}
    assert records[t.pid]["calls"] == {"transport": 1}
    merged = tracer.merge(list(records.values()))
    assert merged["worker_busy_s"] == pytest.approx(
        sum(records[w.pid]["root_s"] for w in workers))
