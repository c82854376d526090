"""Outside-in span tracing for the benchmark.

A Tracer replaces public functions where the calling module looks them up
(for example ``fastssc.engine.f_op``, the name ``engine._step`` calls) with
wrappers that record one span per call: name, start, end and the span that
was open when the call began.  Spans go to in-memory lists while the traced
phase runs; `summary` and `dump` read them afterwards.  The originals are
put back when the `installed` block exits, whatever happens inside it.
"""

import contextlib
import json
import time
from collections import defaultdict

import numpy as np


@contextlib.contextmanager
def patched(replacements):
    """Set module attributes for the duration of the block, then restore them.

    replacements: iterable of (module, attribute name, new value).
    """
    saved = []
    try:
        for module, attr, value in replacements:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.bytes = defaultdict(int)
        self._ids = {}
        self._open = [-1]

    def wrapper(self, fn, span, nbytes=None):
        """Return fn wrapped to record a span named `span` per call.

        nbytes(args, result), when given, adds the bytes a call computes on
        to self.bytes[span].
        """
        sid = self._ids.setdefault(span, len(self.names))
        if sid == len(self.names):
            self.names.append(span)
        name, start, end, parent, open_ = self.name, self.start, self.end, self.parent, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name.append(sid)
            parent.append(open_[-1])
            end.append(0.0)
            open_.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                open_.pop()
            if nbytes is not None:
                self.bytes[span] += nbytes(args, out)
            return out

        return traced

    def installed(self, sites):
        """Context manager that traces every (module, attribute, span, nbytes) site."""
        return patched(
            (module, attr, self.wrapper(getattr(module, attr), span, nbytes))
            for module, attr, span, nbytes in sites
        )

    def summary(self):
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans nest within one thread, so children never overlap.
        Also returns the total duration of root spans (no parent).
        """
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        name = np.asarray(self.name, dtype=np.int64)
        has_parent = parent >= 0
        child = np.zeros(dur.size)
        np.add.at(child, parent[has_parent], dur[has_parent])
        width = len(self.names)
        calls = np.bincount(name, minlength=width)
        total = np.bincount(name, weights=dur, minlength=width)
        own = np.bincount(name, weights=dur - child, minlength=width)
        per_name = {
            n: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, n in enumerate(self.names)
        }
        return per_name, float(dur[~has_parent].sum())

    def dump(self, path):
        """Write every span as columns: name, start, end, parent, plus the run id."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "names": self.names,
                    "name": self.name,
                    "start": self.start,
                    "end": self.end,
                    "parent": self.parent,
                },
                fh,
            )
