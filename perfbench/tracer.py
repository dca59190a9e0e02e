"""Span tracing from outside the program, for the benchmark's traced run.

:func:`install` replaces public functions and methods of the measured
layers with thin wrappers that record one span per call: name, start,
end, the span that caused it (the caller's open span on the same
thread) and the thread.  Nothing is patched unless a traced run asks for
it, so untraced runs execute the program untouched.

Spans stay in memory.  Per-name aggregates (calls, inclusive seconds,
self seconds, outermost-of-layer calls and seconds) are kept online:
a span's self time is its duration minus the time its direct child spans
cover, which on one thread is the sum of the children's durations
because calls nest.  Forked worker processes inherit the wrappers; after
the fork the child starts from an empty tracer and writes its aggregates
(and appends its spans) to the trace directory after every job, because
the pool stops workers with SIGTERM and no exit hook would run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sqlite3
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Which layer each span-name prefix belongs to: dataset loading (and the
#: search inside ``next_wave``) counts as ``repro.core``.
LAYER_OF_PREFIX = {
    "nn": "nn",
    "core": "core",
    "datasets": "core",
    "service": "service",
    "artifacts": "artifacts",
    "storage": "storage",
    "advisor": "advisor",
}
LAYERS = ("nn", "core", "service", "artifacts", "storage", "advisor")

#: Spans kept per process; aggregates keep counting past the cap.
MAX_SPANS = 300_000


def layer_of(name: str) -> str:
    return LAYER_OF_PREFIX[name.split(".", 1)[0]]


class Tracer:
    """In-memory span recorder with online self-time aggregation."""

    def __init__(self, trace_dir: Optional[str] = None):
        self.trace_dir = trace_dir
        #: Spans are recorded only inside :func:`window` blocks.
        self.enabled = False
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        #: (span id, parent id, name, thread id, start, end)
        self.spans: List[Tuple[int, int, str, int, float, float]] = []
        self._flushed_spans = 0
        #: name -> [calls, total_s, self_s, outer_calls, outer_s]
        self.stats: Dict[str, List[float]] = defaultdict(
            lambda: [0, 0.0, 0.0, 0, 0.0]
        )
        self.counters: Dict[str, float] = defaultdict(float)
        #: thread id -> seconds covered by root spans (no parent span)
        self.root_s: Dict[int, float] = defaultdict(float)
        #: (trial id, wall clock) of every integration, for merge lag
        self.integrations: List[Tuple[int, float]] = []
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._local = threading.local()
        self._dataset_baseline = _dataset_cache_stats()

    def after_fork_in_child(self) -> None:
        self._reset()

    # -- recording ----------------------------------------------------------
    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.depth = defaultdict(int)
        return local

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """A wrapper recording one ``name`` span per call of ``fn``.

        ``after(tracer, args, kwargs, result)`` runs once the span has
        closed, to record counts derived from the call (bytes, hits).
        """
        tracer = self
        layer_of(name)  # reject names outside the known layers early
        family = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = tracer._thread_state()
            with tracer._id_lock:
                tracer._next_id += 1
                span_id = tracer._next_id
            stack = state.stack
            parent = stack[-1] if stack else None
            outer = state.depth[family] == 0
            frame = [span_id, 0.0]  # id, seconds covered by children
            state.depth[family] += 1
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                state.depth[family] -= 1
                duration = end - start
                entry = tracer.stats[name]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if outer:
                    entry[3] += 1
                    entry[4] += duration
                tid = threading.get_ident()
                if parent is None:
                    tracer.root_s[tid] += duration
                else:
                    parent[1] += duration
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((
                        span_id, parent[0] if parent else 0, name, tid,
                        start, end,
                    ))
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    # -- output -------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Aggregates of this process (JSON-safe)."""
        counters = dict(self.counters)
        stats = _dataset_cache_stats()
        for key in ("hits", "misses"):
            counters[f"datasets.{key}"] = (
                stats[key] - self._dataset_baseline[key]
            )
        return {
            "pid": self.pid,
            "stats": {name: list(v) for name, v in self.stats.items()},
            "counters": counters,
        }

    def flush(self) -> None:
        """Write this process's aggregates and append its new spans."""
        if self.trace_dir is None:
            return
        path = os.path.join(self.trace_dir, f"proc-{self.pid}.json")
        with open(path + ".tmp", "w") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(path + ".tmp", path)
        self.write_spans()

    def write_spans(self) -> None:
        if self.trace_dir is None:
            return
        new = self.spans[self._flushed_spans:]
        self._flushed_spans = len(self.spans)
        if not new:
            return
        path = os.path.join(self.trace_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a") as handle:
            for span in new:
                handle.write(json.dumps(
                    [self.pid, *span[:3], span[3], span[4], span[5]]
                ) + "\n")


def _dataset_cache_stats() -> Dict[str, int]:
    """The per-process dataset memo counters (zero before first import)."""
    module = sys.modules.get("repro.core.model_server")
    if module is None:
        return {"hits": 0, "misses": 0}
    return module.dataset_cache_stats()


def merge(snapshots: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum aggregates across processes."""
    stats: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0, 0.0])
    counters: Dict[str, float] = defaultdict(float)
    for snap in snapshots:
        for name, values in snap["stats"].items():
            entry = stats[name]
            for i, value in enumerate(values):
                entry[i] += value
        for name, value in snap["counters"].items():
            counters[name] += value
    return {"stats": stats, "counters": counters}


def read_process_snapshots(trace_dir: str) -> List[Dict[str, Any]]:
    snaps = []
    for entry in sorted(os.listdir(trace_dir)):
        if entry.startswith("proc-") and entry.endswith(".json"):
            with open(os.path.join(trace_dir, entry)) as handle:
                snaps.append(json.load(handle))
    return snaps


# -- what gets wrapped -------------------------------------------------------

def _count_models(tracer: Tracer, args, kwargs, result) -> None:
    models = args[0] if args else kwargs["models"]
    tracer.counters["nn.batch_calls"] += 1
    tracer.counters["nn.batch_lanes"] += len(models)


def _count_snapshot_bytes(tracer, args, kwargs, result) -> None:
    tracer.counters["core.snapshot_bytes"] += len(result)


def _count_artifact_hit(tracer, args, kwargs, result) -> None:
    key = "artifacts.hits" if result is not None else "artifacts.misses"
    tracer.counters[key] += 1


def _record_integration(tracer, args, kwargs, result) -> None:
    tracer.integrations.append((int(result.trial_id), time.time()))


def _flush_after_job(tracer, args, kwargs, result) -> None:
    tracer.flush()


def _targets():
    """(span name, owner, attribute, after-hook) for every wrapped call."""
    import repro.advisor.kb as kb
    import repro.advisor.server as advisor_server
    import repro.artifacts as artifacts
    import repro.core.inference_server as inference_server
    import repro.core.model_server as model_server
    import repro.core.trial_batch as trial_batch
    import repro.nn.batched as batched
    import repro.nn.optimizers as optimizers
    import repro.nn.trainer as trainer
    import repro.service.queue as queue
    import repro.service.sessions as sessions
    import repro.service.worker as worker
    import repro.storage.database as database
    import repro.workloads.workload as workload

    targets = [
        ("nn.train", trainer, "train_model", None),
        ("nn.train", batched, "train_model_batch", _count_models),
        ("nn.eval", trainer, "evaluate_accuracy", None),
        ("nn.optim", optimizers.SGD, "step", None),
        ("nn.optim", optimizers.Optimizer, "zero_grad", None),
        ("nn.optim", batched.BatchedSGD, "step", None),
        ("nn.optim", batched.BatchedSGD, "zero_grad", None),
        ("core.evaluate", model_server, "evaluate_trial", None),
        ("core.evaluate", trial_batch, "evaluate_trial_batch", None),
        ("core.integrate", model_server.ModelTuningServer, "integrate",
         _record_integration),
        ("core.next_wave", model_server.ModelTuningServer, "next_wave", None),
        ("core.next_wave", model_server.ModelTuningServer, "next_trials",
         None),
        ("core.inference", inference_server.InferenceTuningServer, "tune",
         None),
        ("core.snapshot", model_server.ModelTuningServer, "snapshot_run",
         _count_snapshot_bytes),
        ("core.finalize", model_server.ModelTuningServer, "finalize", None),
        ("datasets.lookup", model_server, "load_task_datasets", None),
        ("datasets.build", workload.Workload, "load", None),
        ("service.enqueue", queue.JobQueue, "enqueue", None),
        ("service.results", queue.JobQueue, "results_for", None),
        ("service.lease", queue.JobQueue, "lease", None),
        ("service.complete", queue.JobQueue, "complete", None),
        ("service.reclaim", queue.JobQueue, "reclaim_expired", None),
        ("service.checkpoint", sessions.SessionStore, "save_checkpoint",
         None),
        ("service.job", worker.TrialWorker, "run_leased", _flush_after_job),
        ("artifacts.load", artifacts.ArtifactStore, "load_trial",
         _count_artifact_hit),
        ("advisor.handle", advisor_server.AdvisorServer, "handle_line",
         None),
        ("advisor.kb_query", kb.KnowledgeBase, "query", None),
    ]
    # Every public TrialDatabase method except the context managers,
    # whose bodies run in the caller after the call returns.
    for attribute, value in sorted(vars(database.TrialDatabase).items()):
        if (
            attribute.startswith("_") or not callable(value)
            or attribute in ("transaction", "close")
        ):
            continue
        targets.append(
            (f"storage.{attribute}", database.TrialDatabase, attribute, None)
        )
    return targets


_installed: List[Tuple[Any, str, Any]] = []
_active: Optional[Tracer] = None


@contextlib.contextmanager
def window():
    """Record spans only inside this block: the timed part of a session,
    not the set-up or checks around it.  A no-op when not tracing."""
    if _active is None:
        yield
        return
    _active.enabled = True
    try:
        yield
    finally:
        _active.enabled = False


def install(tracer: Tracer) -> None:
    """Wrap every target and count SQL statements on new connections
    (calls to a connection's ``execute`` methods).

    A module-level function is replaced in every loaded ``repro`` module
    that bound it by name (``from x import f``), so callers see the
    wrapper whichever way they reach it.
    """
    global _active
    if _installed:
        raise RuntimeError("tracer already installed")
    _active = tracer
    for name, owner, attribute, after in _targets():
        original = getattr(owner, attribute)
        if isinstance(owner, type):
            original = owner.__dict__[attribute]
            setattr(owner, attribute, tracer.wrap(name, original, after))
            _installed.append((owner, attribute, original))
            continue
        wrapped = tracer.wrap(name, original, after)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    _installed.append((module, key, original))

    connect = sqlite3.connect

    # Counted at the connection's execute methods: sqlite's trace hook
    # would expand every bound blob (model pickles, checkpoints) into SQL
    # text and cost more than the statements it counts.
    class CountingConnection(sqlite3.Connection):
        def execute(self, *args, **kwargs):
            if tracer.enabled:
                tracer.counters["storage.statements"] += 1
            return super().execute(*args, **kwargs)

        def executemany(self, *args, **kwargs):
            if tracer.enabled:
                tracer.counters["storage.statements"] += 1
            return super().executemany(*args, **kwargs)

        def executescript(self, *args, **kwargs):
            if tracer.enabled:
                tracer.counters["storage.statements"] += 1
            return super().executescript(*args, **kwargs)

    def counting_connect(*args, **kwargs):
        kwargs.setdefault("factory", CountingConnection)
        return connect(*args, **kwargs)

    sqlite3.connect = counting_connect
    _installed.append((sqlite3, "connect", connect))
    os.register_at_fork(after_in_child=tracer.after_fork_in_child)

