"""Metric names, units and how each is computed from a run."""

from __future__ import annotations

import os
import shutil
import statistics
import threading
from typing import Dict, List

import tracer as tracing
from workloads import median, percentile

END_TO_END = {
    "setup_s": "s",
    "session_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}

PER_LAYER = {
    "nn.train_calls": "count",
    "nn.train_s": "s",
    "nn.lanes_per_batch": "count",
    "nn.optim_s": "s",
    "nn.eval_s": "s",
    "nn.self_s": "s",
    "core.evaluate_calls": "count",
    "core.evaluate_s": "s",
    "core.integrate_s": "s",
    "core.next_wave_s": "s",
    "core.inference_calls": "count",
    "core.inference_s": "s",
    "core.snapshot_calls": "count",
    "core.snapshot_mb": "MB",
    "core.self_s": "s",
    "datasets.load_s": "s",
    "datasets.cache_hit_share": "share",
    "service.enqueue_s": "s",
    "service.queue_wait_ms": "ms",
    "service.job_ms": "ms",
    "service.merge_lag_ms": "ms",
    "service.checkpoint_s": "s",
    "service.result_mb": "MB",
    "service.self_s": "s",
    "artifacts.hit_share": "share",
    "artifacts.load_s": "s",
    "artifacts.self_s": "s",
    "storage.calls": "count",
    "storage.s": "s",
    "storage.statements": "count",
    "storage.disk_mb": "MB",
    "storage.self_s": "s",
    "advisor.cache_hit_share": "share",
    "advisor.kb_query_calls": "count",
    "advisor.kb_query_ms": "ms",
    "advisor.handle_ms": "ms",
    "advisor.wire_ms": "ms",
    "advisor.ask_p50_ms": "ms",
    "advisor.ask_p99_ms": "ms",
    "advisor.self_s": "s",
    "trace.overhead_share": "share",
    "trace.unattributed_share": "share",
}

UNITS = {**END_TO_END, **PER_LAYER}


def with_units(values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    return {name: {"value": float(value), "unit": UNITS[name]}
            for name, value in values.items()}


def _session_times(outcomes) -> List[float]:
    """Calibrated wall time of each session."""
    return [outcome.seconds * outcome.scale for outcome in outcomes]


def end_to_end(setup_times, outcomes, attempted, failed):
    return {
        "setup_s": statistics.median(setup_times),
        "session_s": statistics.median(_session_times(outcomes)),
        "ops_per_s": sum(o.ops for o in outcomes)
        / sum(o.seconds * o.scale for o in outcomes),
        "peak_rss_mb": statistics.median(
            o.facts["peak_rss_mb"] for o in outcomes
        ),
        "ok_share": (attempted - failed) / attempted,
    }


def start_tracing(workload, work_dir: str) -> tracing.Tracer:
    """Install the wrappers; spans are kept under ``.perfbench/trace``."""
    root = os.path.dirname(os.path.dirname(work_dir))
    trace_dir = os.path.join(
        root, ".perfbench", "trace", f"{workload.name}-{workload.ctx.seed}"
    )
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    tracer = tracing.Tracer(trace_dir)
    tracing.install(tracer)
    if hasattr(workload, "restart_traced"):
        workload.restart_traced(tracer)
    return tracer


def _facts(outcomes, key) -> List[float]:
    values: List[float] = []
    for outcome in outcomes:
        value = outcome.facts.get(key)
        if isinstance(value, list):
            values.extend(value)
        elif value is not None:
            values.append(value)
    return values


def _merge_lags(tracer, outcomes) -> List[float]:
    """A job's ``finished_at`` to its integration, per trial.  Sessions
    integrate each trial once, in session order, so the parent's
    integration list splits by each session's trial count."""
    lags: List[float] = []
    cursor = 0
    for outcome in outcomes:
        done = outcome.facts.get("finished_at")
        chunk = tracer.integrations[cursor:cursor + outcome.ops]
        cursor += outcome.ops
        if not done:
            continue
        for trial_id, integrated_at in chunk:
            finished = done.get(trial_id)
            if finished is not None:
                lags.append(integrated_at - finished)
    return lags


def per_layer(tracer, plain, traced, server_counters):
    """Per-layer figures per traced session, merged over every traced
    process.  ``server_counters`` are the served process's own counters
    (see ``Workload.server_counters``)."""
    tracer.write_spans()
    snapshots = [tracer.snapshot()] + [
        snap for snap in tracing.read_process_snapshots(tracer.trace_dir)
        if snap["pid"] != tracer.pid
    ]
    merged = tracing.merge(snapshots)
    stats, counters = merged["stats"], merged["counters"]
    n = max(1, len(traced))

    def total(prefix, column):
        return sum(values[column] for name, values in stats.items()
                   if name == prefix or name.startswith(prefix + "."))

    def calls(name):
        return total(name, 0) / n

    def seconds(name, outer=False):
        return total(name, 4 if outer else 1) / n

    def share(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def self_s(layer):
        return sum(values[2] for name, values in stats.items()
                   if tracing.layer_of(name) == layer) / n

    latencies = _facts(traced, "latencies_ms")
    handle_calls = total("advisor.handle", 0)
    handle_ms = share(total("advisor.handle", 1), handle_calls) * 1e3
    plain_latencies = _facts(plain, "latencies_ms")
    session_seconds = sum(o.seconds for o in traced)
    if latencies:
        covered = share(total("advisor.handle", 1), sum(latencies) / 1e3)
    else:
        main = threading.main_thread().ident
        covered = share(tracer.root_s.get(main, 0.0), session_seconds)
    plain_median = median(_session_times(plain))
    values = {
        "nn.train_calls": calls("nn.train"),
        "nn.train_s": seconds("nn.train", outer=True),
        "nn.lanes_per_batch": share(counters.get("nn.batch_lanes", 0.0),
                                    counters.get("nn.batch_calls", 0.0)),
        "nn.optim_s": seconds("nn.optim"),
        "nn.eval_s": seconds("nn.eval"),
        "core.evaluate_calls": calls("core.evaluate"),
        "core.evaluate_s": seconds("core.evaluate", outer=True),
        "core.integrate_s": seconds("core.integrate"),
        "core.next_wave_s": seconds("core.next_wave"),
        "core.inference_calls": calls("core.inference"),
        "core.inference_s": seconds("core.inference"),
        "core.snapshot_calls": calls("core.snapshot"),
        "core.snapshot_mb": counters.get("core.snapshot_bytes", 0.0)
        / 1e6 / n,
        "datasets.load_s": seconds("datasets", outer=True),
        # A miss synthesizes the dataset (Workload.load); so does every
        # in-process session, which never consults the memo.
        "datasets.cache_hit_share": share(
            counters.get("datasets.hits", 0.0),
            counters.get("datasets.hits", 0.0)
            + total("datasets.build", 0),
        ),
        "service.enqueue_s": seconds("service.enqueue"),
        "service.queue_wait_ms": median(_facts(traced, "queue_wait_s"))
        * 1e3,
        "service.job_ms": median(_facts(traced, "job_s")) * 1e3,
        "service.merge_lag_ms": median(_merge_lags(tracer, traced)) * 1e3,
        "service.checkpoint_s": seconds("service.checkpoint"),
        "service.result_mb": median(_facts(traced, "result_bytes")) / 1e6,
        "artifacts.hit_share": share(
            counters.get("artifacts.hits", 0.0),
            counters.get("artifacts.hits", 0.0)
            + counters.get("artifacts.misses", 0.0),
        ),
        "artifacts.load_s": seconds("artifacts.load"),
        "storage.calls": total("storage", 3) / n,
        "storage.s": seconds("storage", outer=True),
        "storage.statements": counters.get("storage.statements", 0.0) / n,
        "storage.disk_mb": median(_facts(plain, "store_bytes")) / 1e6,
        "advisor.cache_hit_share": share(
            server_counters.get("advisor.cache_hits", 0),
            server_counters.get("advisor.cache_hits", 0)
            + server_counters.get("advisor.cache_misses", 0),
        ),
        "advisor.kb_query_calls": calls("advisor.kb_query"),
        "advisor.kb_query_ms": share(total("advisor.kb_query", 1),
                                     total("advisor.kb_query", 0)) * 1e3,
        "advisor.handle_ms": handle_ms,
        "advisor.wire_ms": (statistics.fmean(latencies) - handle_ms)
        if latencies else 0.0,
        "advisor.ask_p50_ms": percentile(plain_latencies, 0.50)
        if plain_latencies else 0.0,
        "advisor.ask_p99_ms": percentile(plain_latencies, 0.99)
        if plain_latencies else 0.0,
        "trace.overhead_share": share(
            median(_session_times(traced)) - plain_median, plain_median
        ),
        "trace.unattributed_share": max(0.0, 1.0 - covered),
    }
    for layer in tracing.LAYERS:
        values[f"{layer}.self_s"] = self_s(layer)
    return values

