"""Repository benchmark: tuning in-process, through the service, and the
advisor, measured end to end and (with ``--trace 1``) layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tune_ic --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (every end-to-end metric of
``BENCHMARK.json`` untraced, every per-layer metric traced).  The line
before it records the environment the figures were measured in, with the
raw timings.  Set-up is done several times and its median reported as
``setup_s``; the measured phase then runs whole sessions until
``--seconds`` have passed and reports medians.  Results the sessions are
checked against are computed between the two, untimed, where set-up does
not already yield them.  Timings are calibrated
against a probe loop timed between sessions (see ``machine.py``).  The
traced run measures its first half untraced and its second half with
wrappers installed, so it can report what the tracing costs.

``python3 perfbench/selfcheck.py`` checks the benchmark itself at tiny
sizes.
"""

from __future__ import annotations

import os
import sys

# Compute threads must never exceed the cores: one BLAS/OpenMP thread per
# process, and at most ``nproc`` worker processes.  Set before numpy loads.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

import numpy  # noqa: E402

import metrics as metric_defs  # noqa: E402
from machine import REFERENCE_PROBE_S, Calibration  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Sessions measured even when one alone outlasts the time budget.
MIN_SESSIONS = 3
#: Service worker processes (never more than the cores).
MAX_WORKERS = 2


def source_digest() -> str:
    """blake2b of ``src/`` — the checkout is not a git repository."""
    digest = hashlib.blake2b(digest_size=8)
    src = os.path.join(ROOT, "src")
    for directory, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_commit() -> str:
    """HEAD of the checkout, when the checkout is itself a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or not os.path.samefile(
            lines[0], ROOT):
        return "unknown"
    return lines[1]


def timed_session(calibration, call):
    """One session, with the interval the probes must calibrate."""
    calibration.maybe_probe()
    started = time.perf_counter()
    outcome = call()
    outcome.window = (started, time.perf_counter())
    return outcome


def measure(workload, calibration, budget_s: float):
    """Run sessions until ``budget_s`` has passed; returns outcomes."""
    outcomes = []
    started = time.perf_counter()
    while (time.perf_counter() - started < budget_s
           or len(outcomes) < MIN_SESSIONS):
        index = workload.next_index
        workload.next_index += 1
        outcomes.append(timed_session(
            calibration, lambda: workload.session(index)
        ))
    return outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the self-check")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="compare against a deliberately wrong "
                             "reference (self-check of the gate)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro in this checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    warnings.filterwarnings("ignore", category=RuntimeWarning)

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    nproc = os.cpu_count() or 1
    work_dir = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    ctx = Context(
        work_dir=work_dir, seed=args.seed,
        workers=max(1, min(MAX_WORKERS, nproc)), tiny=args.tiny,
        corrupt_reference=args.corrupt_reference,
    )
    workload = WORKLOADS[args.workload](ctx)
    calibration = Calibration()
    failed = 0
    try:
        setups = []
        for rep in range(workload.setup_reps):
            if rep:
                workload.close()  # tear down the previous fixture untimed
            # A probe beside every set-up: the sessions' probes come too
            # late to calibrate it.
            calibration.probe()
            started = time.perf_counter()
            failed += workload.setup()
            setups.append((started, time.perf_counter()))
        calibration.probe()
        started = time.perf_counter()
        workload.build_references()
        references_s = time.perf_counter() - started
        if args.trace:
            plain = measure(workload, calibration, args.seconds / 2)
            tracer = metric_defs.start_tracing(workload, work_dir)
            outcomes = measure(workload, calibration, args.seconds / 2)
            server_counters = workload.server_counters()
        else:
            outcomes = measure(workload, calibration, args.seconds)
        calibration.probe()
    finally:
        workload.close()

    def scale(calibrated: bool, start: float, end: float) -> float:
        return calibration.factor(start, end) if calibrated else 1.0

    setup_times = [(end - start) * scale(workload.calibrate_setup, start, end)
                   for start, end in setups]
    all_outcomes = outcomes + (plain if args.trace else [])
    for outcome in all_outcomes:
        outcome.scale = scale(workload.calibrate_sessions, *outcome.window)
    attempted = sum(o.attempted for o in all_outcomes) + len(setups)
    failed += sum(o.failed for o in all_outcomes)
    if args.trace:
        values = metric_defs.per_layer(tracer, plain, outcomes,
                                       server_counters)
    else:
        values = metric_defs.end_to_end(
            setup_times, outcomes, attempted, failed,
        )
    shutil.rmtree(work_dir, ignore_errors=True)
    env = {
        "nproc": nproc,
        "workers": ctx.workers,
        "threads": {name: os.environ[name] for name in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "src_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "sessions": len(outcomes),
        "probe_s": calibration.median_probe_s(),
        "reference_probe_s": REFERENCE_PROBE_S,
        "setup_raw_s": [end - start for start, end in setups],
        "references_s": references_s,
        "session_raw_median_s": statistics.median(
            o.seconds for o in outcomes),
    }
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metric_defs.with_units(values),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
