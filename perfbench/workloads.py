"""The benchmark's three workloads.

Each workload builds its fixtures in :meth:`setup` (the harness times
several set-ups and keeps the last), then answers :meth:`session` calls:
one timed session plus its correctness check.  Inputs derive only from
the run's seed.  Why each workload exists, and which layer it bypasses,
is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from machine import PeakRss
from tracer import window

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


@dataclass
class Outcome:
    """One measured session."""

    seconds: float
    ops: int
    attempted: int
    failed: int
    #: per-session facts read from the program's own records
    facts: Dict[str, Any] = field(default_factory=dict)
    #: perf_counter interval the harness spent on the session
    window: tuple = (0.0, 0.0)
    #: machine-speed calibration factor for this session's timings
    scale: float = 1.0


@dataclass
class Context:
    work_dir: str
    seed: int
    workers: int
    tiny: bool
    corrupt_reference: bool


class Measured:
    """The measured part of a session: wall seconds, the memory peak of
    this process and its children, and (when tracing) the span window."""

    def __enter__(self) -> "Measured":
        self._rss = PeakRss().__enter__()
        self._window = window()
        self._window.__enter__()
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = time.perf_counter() - self._started
        self._window.__exit__(*exc_info)
        self._rss.__exit__(*exc_info)
        self.peak_rss_mb = self._rss.mb


def fingerprint(result, decision_log=None) -> str:
    """Every result field two equivalent runs must agree on, as JSON."""
    inference = None
    if result.inference is not None:
        rec = result.inference
        inference = {
            "configuration": rec.configuration,
            "device": rec.device,
            "objective": rec.objective,
            "tuning_runtime_s": rec.tuning_runtime_s,
            "tuning_energy_j": rec.tuning_energy_j,
            "measurement": vars(rec.measurement),
        }
    return json.dumps({
        "system": result.system,
        "workload": result.workload_id,
        "trials": [
            [t.trial_id, t.configuration, t.fidelity, t.epochs,
             t.data_fraction, t.accuracy, t.score, t.stall_s, t.bracket,
             t.rung, t.failure, vars(t.training)]
            for t in result.trials
        ],
        "best_configuration": result.best_configuration,
        "best_accuracy": result.best_accuracy,
        "best_score": result.best_score,
        "tuning_runtime_s": result.tuning_runtime_s,
        "tuning_energy_j": result.tuning_energy_j,
        "stall_s": result.stall_s,
        "inference": inference,
        "decision_log": decision_log,
    }, sort_keys=True, default=repr)


def corrupt(reference: str) -> str:
    """A deliberately wrong reference, for the self-check."""
    payload = json.loads(reference)
    payload["best_score"] = payload["best_score"] + 1.0
    return json.dumps(payload, sort_keys=True)


def disk_bytes(db_path: str) -> int:
    """sqlite file, WAL, shared memory and blob directory of a store."""
    total = 0
    for suffix in ("", "-wal", "-shm"):
        try:
            total += os.path.getsize(db_path + suffix)
        except OSError:
            pass
    for directory, _, files in os.walk(db_path + ".artifacts"):
        for name in files:
            total += os.path.getsize(os.path.join(directory, name))
    return total


def job_facts(database, session_id: str) -> Dict[str, Any]:
    """Queue timings and result bytes from the ``jobs`` table."""
    from repro.service import JobQueue

    jobs = JobQueue(database).jobs_for(session_id)
    return {
        "queue_wait_s": [j.started_at - j.created_at for j in jobs
                         if j.started_at is not None],
        "job_s": [j.finished_at - j.started_at for j in jobs
                  if j.finished_at is not None and j.started_at is not None],
        "finished_at": {j.trial_id: j.finished_at for j in jobs},
        "result_bytes": sum(len(j.result or b"") for j in jobs),
    }


class Workload:
    name = ""
    setup_reps = 5
    #: Whether set-up and session timings scale with core speed and so
    #: are calibrated against the probe (see ``machine.py``).
    calibrate_setup = True
    calibrate_sessions = True

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.rng = random.Random(f"{self.name}:{ctx.seed}")
        self.next_index = 0

    def setup(self) -> int:
        """Build fixtures; returns how many checks failed.  The harness
        calls :meth:`close` (untimed) between repeated set-ups."""
        raise NotImplementedError

    def build_references(self) -> None:
        """Compute, once and untimed, what sessions are checked against
        (when set-up does not already yield it)."""

    def server_counters(self) -> Dict[str, float]:
        """Counters a served process keeps itself, read at the end of the
        traced half."""
        return {}

    def session(self, index: int) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        pass


class TuneIC(Workload):
    """Cold in-process EdgeTune IC sessions, BOHB, stacked waves.

    Sessions stop after the first 24 trials (the bottom rung of the
    default bracket, still mostly training): a run then holds over a
    hundred sessions, where whole 77-trial sessions (about 2 s, 16% apart
    from seed to seed) left a run's median to a handful of seeds.

    Sessions cycle over a pool of seeds whose results are computed once,
    before the measured phase, on the serial path (``trial_batch=1``).
    Every stacked lane must equal its K=1 serial run, so each measured
    session is checked against a result the timed path did not produce.
    """

    name = "tune_ic"
    #: Seeds per run: enough that a run's median does not hang on a few
    #: seeds' search spaces, few enough that the serial references (about
    #: 0.16 s each) stay a small share of the run.
    POOL = 48

    def __init__(self, ctx):
        super().__init__(ctx)
        self.samples = 120 if ctx.tiny else 600
        self.max_trials = 8 if ctx.tiny else 24
        self.seeds = [self.rng.randrange(1 << 30)
                      for _ in range(2 if ctx.tiny else self.POOL)]
        self.references: Dict[int, str] = {}

    def _tune(self, seed: int, **options):
        from repro import EdgeTune

        return EdgeTune(workload="IC", seed=seed, samples=self.samples,
                        max_trials=self.max_trials, **options)

    def setup(self) -> int:
        # A cold start, as ``python -m repro tune`` pays before its first
        # trial: a fresh interpreter imports the program and prepares a
        # session's fixtures (datasets, search space, scheduler).  In this
        # process, where everything is warm, that took 5-7 ms and jumped
        # between the two within a run.
        script = (
            "from repro import EdgeTune\n"
            f"EdgeTune(workload='IC', seed={self.seeds[0]}, "
            f"samples={self.samples}, max_trials={self.max_trials})"
            ".model_server.prepare()\n"
        )
        # No timeout: with one, the wait polls in sleeps of up to 50 ms,
        # and the set-up time came out in 50 ms steps.
        done = subprocess.run([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": SRC})
        return 0 if done.returncode == 0 else 1

    def build_references(self) -> None:
        for seed in self.seeds:
            reference = fingerprint(self._tune(seed, trial_batch=1).tune())
            if self.ctx.corrupt_reference:
                reference = corrupt(reference)
            self.references[seed] = reference

    def session(self, index: int) -> Outcome:
        seed = self.seeds[index % len(self.seeds)]
        with Measured() as measured:
            result = self._tune(seed).tune()
        ok = (fingerprint(result) == self.references[seed]
              and result.num_trials > 0)
        return Outcome(measured.seconds, result.num_trials, 1,
                       0 if ok else 1,
                       {"peak_rss_mb": measured.peak_rss_mb})


class ServiceMemoIC(Workload):
    """The IC session through the service against a prefilled store."""

    name = "service_memo_ic"
    #: A session mostly waits out the coordinator's fixed 50 ms result
    #: polls, which no core speed shortens, and on disk writes: within a
    #: run its times do not follow the probe (correlation -0.2), so
    #: calibrating would only add the probe's own noise.  Set-up is a
    #: cold in-process session, CPU bound like ``tune_ic``, and is
    #: calibrated.
    calibrate_sessions = False

    def __init__(self, ctx):
        super().__init__(ctx)
        self.samples = 120 if ctx.tiny else 600
        self.max_trials = 8 if ctx.tiny else None
        self.seed = self.rng.randrange(1 << 30)
        self.reference: Optional[str] = None
        self.store: Optional[str] = None
        self.setups = 0

    def setup(self) -> int:
        from repro import EdgeTune
        from repro.artifacts import ArtifactStore
        from repro.storage import TrialDatabase

        self.setups += 1
        directory = os.path.join(self.ctx.work_dir, f"store-{self.setups}")
        os.makedirs(directory)
        prefill_path = os.path.join(directory, "prefill.sqlite")
        with TrialDatabase(prefill_path) as prefill:
            # A file database turns exact memoization on, so this cold
            # in-process session leaves one artifact per trial behind.
            result = EdgeTune(workload="IC", seed=self.seed,
                              samples=self.samples,
                              max_trials=self.max_trials,
                              database=prefill).tune()
            # Only the artifacts move to the store the service replays:
            # trial and inference rows would change what a session
            # computes (the inference cache), not just how fast.
            store_path = os.path.join(directory, "store.sqlite")
            source = ArtifactStore(prefill)
            rows = prefill.execute(
                "SELECT key, workload, trial_id, epochs, data_fraction "
                "FROM artifacts ORDER BY key"
            ).fetchall()
            with TrialDatabase(store_path) as store:
                target = ArtifactStore(store)
                for key, workload, trial_id, epochs, fraction in rows:
                    target.put(key, source.get(key), workload=workload,
                               trial_id=trial_id, epochs=epochs,
                               data_fraction=fraction)
        shutil.rmtree(prefill_path + ".artifacts")
        for suffix in ("", "-wal", "-shm"):
            if os.path.exists(prefill_path + suffix):
                os.unlink(prefill_path + suffix)
        found = fingerprint(result)
        failed = 0
        if self.reference is not None and found != self.reference:
            failed = 1  # two prefills of one seed disagree
        self.reference = found
        self.store = store_path
        return failed

    def _fresh_copy(self, index: int) -> str:
        """A private copy of the prefilled store (blobs are hard links:
        the program replaces blob files, never rewrites them)."""
        directory = os.path.join(self.ctx.work_dir, f"memo-{index}")
        os.makedirs(directory)
        path = os.path.join(directory, "memo.sqlite")
        shutil.copyfile(self.store, path)
        source_blobs = self.store + ".artifacts"
        os.makedirs(path + ".artifacts")
        for name in os.listdir(source_blobs):
            source = os.path.join(source_blobs, name)
            target = os.path.join(path + ".artifacts", name)
            try:
                os.link(source, target)
            except OSError:
                shutil.copyfile(source, target)
        return path

    def session(self, index: int) -> Outcome:
        from repro.artifacts import ArtifactStore
        from repro.service import SessionCoordinator, SessionSpec, \
            SessionStore
        from repro.storage import TrialDatabase

        path = self._fresh_copy(index)
        before = disk_bytes(path)
        with TrialDatabase(path) as database:
            spec = SessionSpec(workload="IC", seed=self.seed,
                               samples=self.samples,
                               max_trials=self.max_trials)
            session_id = SessionStore(database).create(spec)
            cache_before = ArtifactStore(database).stats()
            with Measured() as measured:
                result = SessionCoordinator(
                    database, session_id, workers=self.ctx.workers
                ).run()
            cache_after = ArtifactStore(database).stats()
            facts = job_facts(database, session_id)
        facts["store_bytes"] = disk_bytes(path) - before
        reference = self.reference
        if self.ctx.corrupt_reference:
            reference = corrupt(reference)
        hits = cache_after["hits"] - cache_before["hits"]
        ok = (
            fingerprint(result) == reference
            # Every trial a hit and nothing trained: a trained trial
            # would have stored a new artifact.
            and cache_after["entries"] == cache_before["entries"]
            and hits >= result.num_trials
        )
        shutil.rmtree(os.path.dirname(path))
        facts["peak_rss_mb"] = measured.peak_rss_mb
        return Outcome(measured.seconds, result.num_trials, 1,
                       0 if ok else 1, facts)

    def close(self) -> None:
        if self.store is not None:
            shutil.rmtree(os.path.dirname(self.store), ignore_errors=True)
            self.store = None


# -- advisor -------------------------------------------------------------------

# The advisor runs with its shipped response cache (1024 entries).  The
# mix puts ``ask_p50`` on a cache hit and ``ask_p99`` on a KB scan: that
# needs a novel share between 1% and 50%.

#: Seeded KB rows (a nearest-neighbour scan costs about 7 ms at 400).
ADVISOR_ROWS = 400
#: Repeated questions.  Far fewer than the cache holds and each asked
#: every ~34 asks, so once warm they are always answered from the cache.
ADVISOR_HOT = 32
#: Share of asks with a fresh target.  5% keeps p99 well inside the scan
#: tail (near 1% it flips between a hit and a scan from run to run) and
#: p50 deep among hits.  Fresh targets come from over 400 000 possible
#: questions, so a run's few thousand almost never repeat and outnumber
#: the cache: they fall through to the scan.
ADVISOR_NOVEL_SHARE = 0.05
#: Asks per client session: about ten scans each, so one or two scans
#: more or fewer do not set a session's time.
ASKS_PER_SESSION = 200
SYSTEMS = ("edgetune", "tune", "hyperpower")
OBJECTIVES = ("runtime", "energy")


def _serve(db_path: str, conn, tracer) -> None:
    """Advisor server process: report the port, serve until told to
    stop, then write the trace (if any)."""
    from repro.advisor.server import AdvisorServer
    from repro.storage import TrialDatabase

    if tracer is not None:
        tracer.enabled = True  # this whole process is the measured server
    with TrialDatabase(db_path) as database:
        server = AdvisorServer(database)
        conn.send(server.port)

        def wait_for_stop() -> None:
            conn.recv()
            server.initiate_drain()

        threading.Thread(target=wait_for_stop, daemon=True).start()
        server.serve_until_drained()
    if tracer is not None:
        tracer.flush()
    conn.send("stopped")


class AdvisorAsk(Workload):
    """Closed-loop asks against an advisor over a prefilled KB.

    One persistent connection: the server answers from one interpreter,
    so a second client added no throughput, only lock contention that
    made runs twice as far apart.
    """

    name = "advisor_ask"
    #: Set-up writes the KB to sqlite and forks the server: file and
    #: process work the CPU probe does not track.  Calibrated, five
    #: runs' set-up times lay 0.28 apart (IQR over median); raw, 0.05
    #: and 0.20 in two sets of five.
    calibrate_setup = False
    #: a set-up takes about 50 ms, so more of them
    setup_reps = 9

    def __init__(self, ctx):
        super().__init__(ctx)
        self.rows = 40 if ctx.tiny else ADVISOR_ROWS
        self.setups = 0
        self.server = None
        self.client = None
        self.tracer = None
        #: direct-query answers, per question, for the current KB
        self.expected: Dict[tuple, str] = {}
        self.kb = None

    # -- fixtures ------------------------------------------------------------
    def _populate(self, path: str) -> List[tuple]:
        from repro.advisor import KnowledgeBase
        from repro.hardware import DEVICES
        from repro.storage import TrialDatabase
        from repro.workloads import WORKLOADS

        rng = random.Random(f"kb:{self.ctx.seed}")
        devices = sorted(DEVICES)
        keys = []
        with TrialDatabase(path) as database:
            kb = KnowledgeBase(database)
            for index in range(self.rows):
                key = (
                    rng.choice(sorted(WORKLOADS)), rng.choice(devices),
                    rng.choice(OBJECTIVES),
                    round(rng.uniform(0.5, 0.95), 2), rng.choice(SYSTEMS),
                )
                kb.index_summary(
                    workload=key[0], device=key[1], objective=key[2],
                    target_accuracy=key[3], system=key[4],
                    session_id=f"seeded-{index}",
                    summary={
                        "best_configuration": {
                            "train_batch_size": rng.choice([16, 32, 64]),
                            "lr": round(rng.uniform(0.01, 0.1), 4),
                        },
                        "best_accuracy": rng.uniform(0.5, 0.99),
                        "best_score": rng.uniform(0.1, 10.0),
                        "num_trials": rng.randrange(10, 100),
                        "tuning_runtime_s": rng.uniform(100, 5000),
                        "tuning_energy_j": rng.uniform(1e4, 1e6),
                        "inference": None,
                    },
                )
                keys.append(key)
        return keys

    def _start_server(self, path: str) -> None:
        from repro.advisor.client import AdvisorClient

        context = multiprocessing.get_context("fork")
        parent, child = context.Pipe()
        process = context.Process(
            target=_serve, args=(path, child, self.tracer),
            daemon=True,
        )
        process.start()
        port = parent.recv()
        self.server = (process, parent)
        self.client = AdvisorClient(port=port).connect()

    def _stop_server(self) -> None:
        if self.server is None:
            return
        self.client.close()
        self.client = None
        process, conn = self.server
        self.server = None
        conn.send("stop")
        conn.recv()
        process.join(timeout=30)
        if process.is_alive():
            process.kill()
            process.join()

    def setup(self) -> int:
        self.expected = {}
        self.setups += 1
        path = os.path.join(self.ctx.work_dir, f"kb-{self.setups}.sqlite")
        keys = self._populate(path)
        self.path = path
        self.hot = [
            dict(zip(("workload", "device", "objective", "target_accuracy",
                      "system"), key))
            for key in self.rng.sample(keys, min(ADVISOR_HOT, len(keys)))
        ]
        self.workloads = sorted({key[0] for key in keys})
        self.devices = sorted({key[1] for key in keys})
        self._start_server(path)
        return 0

    def restart_traced(self, tracer) -> None:
        """Serve from a fresh process that inherits ``tracer``."""
        self._stop_server()
        self.tracer = tracer
        self._start_server(self.path)

    # -- sessions ------------------------------------------------------------
    def _novel(self, rng: random.Random) -> Dict[str, Any]:
        return {
            "workload": rng.choice(self.workloads),
            "device": rng.choice(self.devices),
            "objective": rng.choice(OBJECTIVES),
            # Four decimals: never a stored (two-decimal) target, so the
            # exact lookup misses and the neighbour scan runs.
            "target_accuracy": round(rng.uniform(0.5, 0.95), 2)
            + 0.0001 * rng.randrange(1, 100),
            "system": rng.choice(SYSTEMS),
        }

    def _script(self, index: int) -> List[Dict[str, Any]]:
        rng = random.Random(f"{self.ctx.seed}:{index}")
        return [
            self._novel(rng) if rng.random() < ADVISOR_NOVEL_SHARE
            else self.hot[rng.randrange(len(self.hot))]
            for _ in range(ASKS_PER_SESSION)
        ]

    def session(self, index: int) -> Outcome:
        """One client session: a closed loop of asks on one connection."""
        from repro.errors import AdvisorError

        script = self._script(index)
        latencies: List[float] = []
        answers: List[Dict[str, Any]] = []
        with Measured() as measured:
            for question in script:
                started = time.perf_counter()
                try:
                    response = self.client.ask(**question)
                except AdvisorError as error:  # counted as a failed ask
                    response = {"ok": False, "error": str(error)}
                latencies.append((time.perf_counter() - started) * 1e3)
                answers.append(response)
        failed = sum(self._wrong(question, response)
                     for question, response in zip(script, answers))
        return Outcome(measured.seconds, len(script), len(script), failed,
                       {"latencies_ms": latencies,
                        "peak_rss_mb": measured.peak_rss_mb})

    def _wrong(self, question: Dict[str, Any], response: Dict) -> bool:
        """Whether an answer differs from a direct query of the KB."""
        from repro.advisor import KnowledgeBase
        from repro.errors import AdvisorError
        from repro.storage import TrialDatabase

        key = tuple(sorted(question.items()))
        if key not in self.expected:
            if self.kb is None:
                self.kb = KnowledgeBase(TrialDatabase(self.path))
            try:
                expected = json.dumps(self.kb.query(**question).to_dict(),
                                      sort_keys=True)
            except AdvisorError as error:
                expected = "error:" + str(error)
            if self.ctx.corrupt_reference:
                expected = expected + " "
            self.expected[key] = expected
        got = (
            json.dumps(response["advice"], sort_keys=True)
            if response.get("ok") else "error:" + str(response.get("error"))
        )
        return got != self.expected[key]

    def server_counters(self) -> Dict[str, float]:
        """The response cache's hits and misses, from the server's own
        ``stats`` op (the traced server started with the traced half)."""
        stats = self.client.stats()["stats"]
        return {name: stats.get(name, 0)
                for name in ("advisor.cache_hits", "advisor.cache_misses")}

    def close(self) -> None:
        self._stop_server()
        if self.kb is not None:
            self.kb.database.close()
            self.kb = None


WORKLOADS = {cls.name: cls for cls in (TuneIC, ServiceMemoIC, AdvisorAsk)}


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0
