"""Host-speed reference: a fixed kernel timed next to the program.

The shared host's speed drifts by 10-30% within seconds to minutes, for
every kind of work alike, so a raw wall time mostly measures when it was
taken.  The benchmark times this kernel interleaved with the program and
reports times scaled to a host on which one repetition takes
``NOMINAL_REP_S``.  The kernel mixes the three kinds of work homogenlab does:
interpreted Python loops, small dense eigenproblems and matrix-vector
products with a ReLU.  It is the benchmark's own code, so a change to the
program does not change it.
"""

from __future__ import annotations

import contextlib
import signal
import threading
import time

import numpy as np

#: Seconds one repetition takes on the reference machine (2 vCPU VM,
#: Python 3.11, numpy 2.4, OpenBLAS 0.3.31), by the number of threads that
#: run it at once.  Scaled times read as seconds on that machine.  Other
#: thread counts were not calibrated and assume no gain from threads.
NOMINAL_REP_S = {1: 4.0e-3, 2: 11.0e-3}

#: Set-up is mostly loading extension modules, which slows with the host
#: more than computing does (set-up took 0.09 to 0.23 s while the kernel
#: moved by a third).  Its reference is the set-up's own first step, importing
#: numpy in the fresh interpreter; this is about the seconds that step takes
#: on the reference machine.
NOMINAL_IMPORT_S = 0.1

_RNG = np.random.default_rng(0)
_WIDE = _RNG.standard_normal((520, 16))
_POINT = _RNG.standard_normal(16)
_GRAM = _RNG.standard_normal((4, 4))
_GRAM = _GRAM @ _GRAM.T


def _rep() -> None:
    total = 0
    for k in range(20_000):
        total += k * k
    for _ in range(150):
        np.linalg.eigvalsh(_GRAM)
    for _ in range(300):
        np.maximum(_WIDE @ _POINT, 0.0)


class HostSpeed:
    """Accumulates reference samples; ``rep_s`` is the mean repetition time.
    ``stolen`` is the time the interleaved samples took from the code they
    interrupted, for the caller to subtract from its own timing."""

    def __init__(self, threads: int = 1) -> None:
        self.threads = threads
        self.seconds = 0.0
        self.reps = 0
        self.stolen = 0.0

    def _round(self) -> None:
        if self.threads == 1:
            _rep()
            return
        workers = [threading.Thread(target=_rep) for _ in range(self.threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()

    def sample(self, at_least: float) -> None:
        """Repeat the kernel for at least ``at_least`` seconds (one rep
        minimum), on ``threads`` threads at once."""
        begin = time.perf_counter()
        while True:
            self._round()
            self.reps += 1
            elapsed = time.perf_counter() - begin
            if elapsed >= at_least:
                self.seconds += elapsed
                return

    def _tick(self, signum, frame) -> None:
        begin = time.perf_counter()
        _rep()
        elapsed = time.perf_counter() - begin
        self.seconds += elapsed
        self.reps += 1
        self.stolen += elapsed

    @contextlib.contextmanager
    def interleaved(self, period: float):
        """Run one repetition every ``period`` seconds of wall time inside the
        block, from a SIGALRM handler on the main thread.  The handler runs
        between bytecodes of whatever the block executes, so the samples
        cover the same stretch of time as the program, even within one long
        command.  Only for single-threaded code: with worker threads the
        handler would contend with them for the interpreter lock."""
        assert self.threads == 1, "interleaved sampling is single-threaded"
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, period, period)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @property
    def rep_s(self) -> float:
        return self.seconds / self.reps

    def scale(self, seconds: float) -> float:
        """``seconds`` measured here, expressed at the nominal host speed."""
        nominal = NOMINAL_REP_S.get(self.threads, NOMINAL_REP_S[1] * self.threads)
        return seconds * nominal / self.rep_s
