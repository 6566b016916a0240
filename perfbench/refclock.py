"""Wall time rescaled to reference seconds.

The benchmark host is shared: its speed for this single-threaded Python
process drifts by about +-20% within tens of seconds (neighbours on the same
cores), which is more than any bound the benchmark sets.  So each end-to-end
time is rescaled by a fixed pure-Python reference kernel that contains no
g3bell code and is sampled over the same stretch of time as the call:

    reference s = call wall s * REF_S / mean kernel wall s over the call

The kernel takes REF_S reference seconds by definition; on the 2-vCPU host
where the benchmark was written it took 6-15 ms of wall time.  A change to
g3bell moves the call's wall time, never the kernel's.

During the audit loop an interval timer runs the kernel every PERIOD seconds
from a SIGALRM handler, and the time the kernel spends inside a call is
taken out of that call's wall time.  Measured there, a call's wall time
scaled with the in-call kernel time with an exponent of 0.92-0.96, on both
the CHSH and the fine-sweep audits, and rescaling cut the audit-to-audit
spread from 9-14% to 3-4%.  Calls that wait on a child process (the set-up
measurement) sample the kernel explicitly before and after each call
instead, because a kernel run in the parent would overlap the child.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_LOOPS = 4000
REF_S = 0.010
PERIOD = 0.25
_REF_TUPLE = (0.5, 0.25, -0.75, 1.0, 0.0, 0.125, -0.5, 2.0)


def reference_kernel() -> None:
    acc = 0.0
    for _ in range(REF_LOOPS):
        u = tuple(a * 1.0000001 + b for a, b in zip(_REF_TUPLE, _REF_TUPLE))
        acc += max(u) - sum(u) * 1e-9


class RefClock:
    """Times calls in wall seconds and in reference seconds."""

    def __init__(self):
        self.samples: list = []  # (start, end) of each kernel run
        self.calls: list = []  # (start, end) of each timed call
        self._timer = False
        self._busy = False

    def sample(self, *_) -> None:
        """Run the reference kernel once and record when it ran."""
        if self._busy:  # a timer signal arrived while the kernel ran
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_kernel()
        self.samples.append((t0, time.perf_counter()))
        self._busy = False

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        self._timer = True

    def stop_timer(self) -> None:
        if self._timer:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._timer = False

    def call(self, fn, *args, **kwargs):
        """Run fn(*args, **kwargs); return (its result or the exception it
        raised, elapsed wall s including any kernel runs)."""
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            result = exc
        t1 = time.perf_counter()
        self.calls.append((t0, t1))
        return result, t1 - t0

    def times(self) -> list:
        """(wall s, reference s) of every timed call, in call order.  Call
        this after stop_timer."""
        out = []
        for t0, t1 in self.calls:
            inside = sum(max(0.0, min(e, t1) - max(s, t0)) for s, e in self.samples)
            kernels = [e - s for s, e in self.samples if t0 - PERIOD <= s <= t1 + PERIOD]
            if not kernels:  # a signal held back by a long native call
                s, e = min(self.samples, key=lambda se: abs(se[0] - t0))
                kernels = [e - s]
            wall = t1 - t0 - inside
            out.append((wall, wall * REF_S / statistics.mean(kernels)))
        return out
