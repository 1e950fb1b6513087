"""The machine's speed, measured next to and during every command.

On a shared host, other tenants can slow a machine by up to 2x, in
spells of seconds to minutes, with CPU time moving alike, so a bare wall
time measures the neighbours as much as dtnspeed.  A chunk is a fixed
unit of the kind of work a workload's commands do, with no dtnspeed code
in it: `sim_chunk` (numpy distance broadcasts over a few hundred points,
a Python loop of small-array updates, scalar float math) for the
simulation workloads, `kernel_chunk` (pure-Python power series) for the
speed-bound workload.  The worker times chunks at each command's
boundaries and, through a `Sampler`, every TICK_S while the command
runs; a command's time divided by the mean chunk time around and during
it is its time in chunks, which the benchmark reports in reference
seconds: chunks x the chunk's reference time in CHUNKS.
"""

import math
import signal
import time

import numpy as np

TICK_S = 0.25
BOUNDARY_CHUNKS = 4

_rng = np.random.default_rng(12345)
_SMALL = _rng.random((200, 2)) * 40.0
_STEP = _rng.random((200, 2)) * 0.05
_LARGE = _rng.random((300, 2)) * 40.0


def sim_chunk():
    """Seconds one unit of simulation-like work takes now."""
    start = time.perf_counter()
    pos = _SMALL.copy()
    hits = 0
    for _ in range(2):
        d2 = ((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
        hits += int((d2 <= 1.0).any(axis=1).sum())
        pos += _STEP
        for i in range(20):
            pos[i] += _STEP[i]
            hits += float(np.linalg.norm(pos[i])) > 20.0
    d2 = ((_LARGE[:, None, :] - _LARGE[None, :, :]) ** 2).sum(axis=2)
    hits += int((d2 <= 1.0).any(axis=1).sum())
    acc = 0.0
    for k in range(1, 8_000):
        x = k * 1e-4
        acc += math.exp(-x) * math.sqrt(x) / (1.0 + x * x)
    return time.perf_counter() - start


def _series(x):
    """A power series in (x/2)^2, summed until its terms stop counting."""
    q = 0.25 * x * x
    term = total = 1.0
    for k in range(1, 300):
        term *= q / (k * k)
        total += term
        if term < 1e-16 * total:
            break
    return total


def kernel_chunk():
    """Seconds one unit of pure-Python series work takes now."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(1, 1800):
        x = 0.02 * (i % 600) + 0.01
        acc += _series(x) * math.exp(-x)
    return time.perf_counter() - start


# kind -> (chunk, its typical time on a 2-core Xeon at 2.0 GHz with
# Python 3.11 and numpy 2.4: the reference speed)
CHUNKS = {
    "sim": (sim_chunk, 0.010),
    "kernel": (kernel_chunk, 0.007),
}


def calibrate(kind, count=BOUNDARY_CHUNKS):
    chunk = CHUNKS[kind][0]
    return [chunk() for _ in range(count)]


class Sampler:
    """Within `with Sampler(kind) as s:`, a SIGALRM handler times one
    chunk every TICK_S of wall time into s.samples.  The handler runs in the
    main thread between bytecodes, so it never interrupts a numpy call;
    the chunks' own time is in the enclosed wall time, and the caller
    takes it out."""

    def __init__(self, kind):
        self.samples = []
        self._chunk = CHUNKS[kind][0]
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _tick(self, signum, frame):
        self.samples.append(self._chunk())
