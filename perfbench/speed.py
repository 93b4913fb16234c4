"""Machine speed sampled during the timed operations, for scaling times.

A shared 2-core machine changes speed by tens of percent from one second
to the next, each core on its own, and CPU time follows wall time, so
neither wall nor CPU time of one operation compares with the next.  A
loop timed next to the operation does not help either: the speed has
moved on by the time the operation ends, and the other core's speed
says nothing about this one.

So the sampler runs a fixed pure-Python loop (``probe``, which does not
touch bqdomain) from a SIGALRM handler every ``PERIOD_S``, in the main
thread, between the bytecodes of whatever runs there.  An operation's
wall time is scaled by ``REFERENCE_S`` over the mean probe time of the
samples in and around it: the result is the time on a machine where one
probe takes ``REFERENCE_S``.  The probes cost about 1% of a core.

For operations of a millisecond or two, a probe inside them is rare and
tracked their speed worse (in 2-second windows of the points workload,
a 10% spread left instead of 4%) than a burst of probes run between
passes, so such workloads open the sampler without a timer and call
``burst`` between passes instead.

Processes forked while a sampler is open (the render pool's workers)
sample themselves too and append their samples to a file that the
parent reads, so a render at workers=2 is scaled by the speed of the
cores its workers ran on.  The parent pauses its own probes meanwhile:
they would land on those busy cores and time the wait for them.  While the benchmark waits for an exec'd child
(a CLI process) its own probes share a core with that child only if
both are pinned to one core, which the cli workload does.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import signal
import statistics
import struct
import time

PERIOD_S = 0.01
REFERENCE_S = 70e-6     # probe time that defines reference speed
MIN_SAMPLES = 10        # around an operation shorter than ~0.1 s
RECORD = struct.Struct("dd")

clock = time.perf_counter
_open = []              # the open sampler, for forked children


def probe():
    z, acc, seen = 0.5 + 0.25j, 0, {}
    for i in range(100):
        z = z * (0.6 + 0.8j) + 0.001
        key = "k" + str(i % 7)
        seen[key] = seen.get(key, 0) + 1
        acc += abs(z) > 1.0
    return acc


class Sampler:
    """Context manager that samples speed while it is open."""

    def __init__(self, share_dir, period=PERIOD_S, min_samples=MIN_SAMPLES):
        self.period = period    # None: samples come only from burst()
        self.min_samples = min_samples
        self.ends = []          # clock() when each sample finished
        self.loops = []         # mean probe time of each sample
        self.share_path = os.path.join(share_dir, "speed-%d.bin"
                                       % os.getpid())
        self._fd = None         # set in forked children
        self._previous = None

    def __enter__(self):
        os.makedirs(os.path.dirname(self.share_path), exist_ok=True)
        open(self.share_path, "wb").close()
        if self.period is not None:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
            _open.append(self)
        return self

    def __exit__(self, *exc):
        if self.period is not None:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
            _open.remove(self)
        self._collect()
        os.remove(self.share_path)
        self.share_path = None

    def _tick(self, signum, frame):
        t0 = clock()
        probe()
        t1 = clock()
        if self._fd is None:
            self.ends.append(t1)
            self.loops.append(t1 - t0)
        else:
            os.write(self._fd, RECORD.pack(t1, t1 - t0))

    @contextlib.contextmanager
    def paused(self):
        """Stop this process's probes (forked children keep theirs)."""
        if self.period is not None:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        try:
            yield
        finally:
            if self.period is not None:
                signal.setitimer(signal.ITIMER_REAL, self.period,
                                 self.period)

    def burst(self, seconds):
        """Probe back to back for about `seconds`; one sample."""
        n, t0 = 0, clock()
        while True:
            probe()
            n += 1
            t1 = clock()
            if t1 - t0 >= seconds:
                self.ends.append(t1)
                self.loops.append((t1 - t0) / n)
                return

    def _start_in_child(self):
        # Interval timers are not inherited across fork; the handler is.
        self._fd = os.open(self.share_path, os.O_WRONLY | os.O_APPEND)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def _collect(self):
        """Merge the samples forked children have written so far."""
        if self.share_path is None or not os.path.getsize(self.share_path):
            return
        with open(self.share_path, "r+b") as fh:
            data = fh.read()
            fh.truncate(0)
        # A tick between the two assignments would misalign the lists.
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            records = sorted(list(zip(self.ends, self.loops))
                             + list(RECORD.iter_unpack(data)))
            self.ends = [end for end, _ in records]
            self.loops = [loop for _, loop in records]
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def scaled(self, t0, t1):
        """Seconds the interval [t0, t1] would take at reference speed."""
        self._collect()
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1)
        while hi - lo < self.min_samples and (lo > 0 or hi < len(self.ends)):
            if lo > 0:
                lo -= 1
            if hi < len(self.ends) and hi - lo < self.min_samples:
                hi += 1
        if hi == lo:
            raise RuntimeError("no speed samples around the interval")
        return (t1 - t0) * REFERENCE_S / statistics.fmean(self.loops[lo:hi])

    def speed(self):
        """Median machine speed over the run, relative to reference."""
        return REFERENCE_S / statistics.median(self.loops)


def _after_fork_in_child():
    if _open:
        _open[-1]._start_in_child()


os.register_at_fork(after_in_child=_after_fork_in_child)
