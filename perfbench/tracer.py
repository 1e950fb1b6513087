"""In-memory span tracer that wraps public functions from outside.

`Tracer.install` replaces module attributes with timing or counting
wrappers and `Tracer.restore` puts the originals back.  This works for
dtnspeed because its loops look callees up as module globals at call
time (`run_epidemic` calls `sim.advance`, `speed_bound` calls
`kernel.theta_of_rho`, the CLI calls its own imported names), so nothing
in the package itself changes.

A span is (name, start, end, parent).  Spans stay in memory until
`write_spans`; self time is a span's duration minus its children's.
"""

import itertools
import time

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = []
        self._saved = []
        self._counters = {}
        self._reads = {}

    # -- wrappers -----------------------------------------------------

    def span(self, name, fn, on_result=None):
        """Wrap fn so each call records a span; on_result(args, result)
        runs after the span closes, so its cost is not charged to fn."""
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(_perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = _perf()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        """Wrap fn with a bare call counter (no span: cheap enough for
        the per-evaluation kernel and special-function calls)."""
        tick = self._counters.setdefault(name, itertools.count())

        def wrapper(*args, **kwargs):
            next(tick)
            return fn(*args, **kwargs)

        return wrapper

    def count(self, name):
        """Calls seen by counter(name) so far."""
        tick = self._counters.get(name)
        if tick is None:
            return 0
        # itertools.count only exposes its state through next(), so
        # subtract the reads themselves
        reads = self._reads.get(name, 0)
        self._reads[name] = reads + 1
        return next(tick) - reads

    # -- install / restore -------------------------------------------

    def install(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- analysis -----------------------------------------------------

    def self_times(self):
        """Per-name (total self seconds, call count)."""
        child = [0.0] * len(self.starts)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out = {}
        for i, name in enumerate(self.names):
            total, calls = out.get(name, (0.0, 0))
            own = self.ends[i] - self.starts[i] - child[i]
            out[name] = (total + own, calls + 1)
        return out

    def total_time(self, name):
        return sum(
            e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name
        )

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent\n")
            for i, (name, start, end, parent) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents)
            ):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent}\n")
