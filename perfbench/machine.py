"""Machine-speed calibration and per-session memory peaks.

On a shared VM the speed of one core drifts by a fifth and more over
tens of seconds as neighbours come and go, and a whole run drifts with
it.  The benchmark therefore times a fixed probe loop (BLAS, elementwise
numpy, interpreter and allocation work, like the program's own mix)
between sessions, in CPU time of its own thread, and reports each timing
scaled to the probe's reference speed: ``seconds * REFERENCE_PROBE_S /
probe``, where ``probe`` is the median probe time around that session.
A timing the probe does not track (sessions that wait out polling sleeps,
set-ups that mostly write files) is reported raw instead.  The raw
timings are printed on the environment line next to the result.
"""

from __future__ import annotations

import glob
import os
import statistics
import threading
import time
from typing import List, Tuple

import numpy as np

#: Median probe time on the machine the bounds were set on (2 vCPU,
#: OpenBLAS with one thread); calibrated timings read as seconds there.
REFERENCE_PROBE_S = 0.0085
#: Probe at most this often between sessions, and this many times.
PROBE_EVERY_S = 0.5
PROBE_REPS = 3
#: Probes this close to a session calibrate it.
PROBE_WINDOW_S = 3.0

_PROBE_MATRIX = np.random.default_rng(0).random((96, 96))


def probe_once() -> float:
    """CPU seconds of this thread for the fixed loop: the core's speed,
    without time lost to other processes (workers, disk write-back)."""
    started = time.thread_time()
    acc = 0.0
    for _ in range(30):
        product = _PROBE_MATRIX @ _PROBE_MATRIX
        acc += float(np.tanh(product[:, :48] * 0.01).sum())
        acc += sum(j * j for j in range(2500)) % 7
        table = {k: str(k) for k in range(300)}
        acc += len(table)
    if acc < 0:  # keep the work observable
        raise AssertionError("unreachable")
    return time.thread_time() - started


class Calibration:
    """Probe timeline of one run."""

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []

    def probe(self) -> None:
        timing = statistics.median(probe_once() for _ in range(PROBE_REPS))
        self.samples.append((time.perf_counter(), timing))

    def maybe_probe(self) -> None:
        if (not self.samples
                or time.perf_counter() - self.samples[-1][0] >= PROBE_EVERY_S):
            self.probe()

    def factor(self, start: float, end: float) -> float:
        """Reference speed over the speed around ``[start, end]``."""
        near = [t for at, t in self.samples
                if start - PROBE_WINDOW_S <= at <= end + PROBE_WINDOW_S]
        if not near:
            middle = (start + end) / 2
            near = [min(self.samples, key=lambda s: abs(s[0] - middle))[1]]
        return REFERENCE_PROBE_S / statistics.median(near)

    def median_probe_s(self) -> float:
        return statistics.median(t for _, t in self.samples)


def _hwm_kb(pid) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children() -> List[int]:
    pids: List[int] = []
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        try:
            with open(path) as handle:
                pids.extend(int(p) for p in handle.read().split())
        except OSError:
            pass
    return pids


class PeakRss:
    """Highest RSS of this process or any child during a block, in MB.

    The own peak is reset at entry (``/proc/self/clear_refs``); children
    are sampled while they live, since the pool reaps them before the
    block ends.
    """

    INTERVAL_S = 0.05

    def __enter__(self) -> "PeakRss":
        try:
            with open("/proc/self/clear_refs", "w") as handle:
                handle.write("5")
        except OSError:
            pass
        self.children_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def _sample(self) -> None:
        while True:
            for pid in _children():
                self.children_kb = max(self.children_kb, _hwm_kb(pid))
            if self._stop.wait(self.INTERVAL_S):
                return

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        self.mb = max(_hwm_kb("self"), self.children_kb) / 1024.0
