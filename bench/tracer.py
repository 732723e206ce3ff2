"""Wall-clock tracer used by the benchmark's traced run.

The tracer replaces functions and methods in place with timing wrappers and
puts the originals back when it is uninstalled.  Every wrapped name gets an
aggregate record of calls, total time and self time (total minus the time
spent in wrapped callees).  Names installed with ``span=True`` also record
one span per call: name, start, end, parent span, and how many calls of every
wrapped name happened inside it.  Per-step functions are installed without
spans, so a run of a hundred thousand steps keeps a trace of a few hundred
spans.
"""

from __future__ import annotations

import time


class Tracer:
    def __init__(self):
        self.records = {}      # name -> [calls, total_s, self_s]
        self.spans = []
        self._child = [0.0]    # time spent in wrapped callees, per open call
        self._open = []        # ids of the open spans, innermost last
        self._patches = []     # (owner, attribute, original)
        self.missing = []      # boundaries that did not exist when patched
        self._t0 = time.perf_counter()

    def _record(self, name):
        return self.records.setdefault(name, [0, 0.0, 0.0])

    def wrap(self, name, fn, span=False):
        """Return ``fn`` wrapped so that its calls count under ``name``."""
        rec = self._record(name)
        child = self._child
        perf = time.perf_counter

        def timed(*args, **kwargs):
            opened = self._open_span(name) if span else None
            child.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                inner = child.pop()
                child[-1] += dt
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - inner
                if opened is not None:
                    self._close_span(opened, t0, dt)

        timed.__wrapped__ = fn
        return timed

    def _open_span(self, name):
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "calls_at_start": {k: r[0] for k, r in self.records.items()},
        }
        self.spans.append(span)
        self._open.append(span["id"])
        return span

    def _close_span(self, span, t0, dt):
        self._open.pop()
        start = span.pop("calls_at_start")
        span["start_s"] = t0 - self._t0
        span["end_s"] = t0 + dt - self._t0
        counts = {}
        for k, r in self.records.items():
            n = r[0] - start.get(k, 0)
            if n and k != span["name"]:
                counts[k] = n
        span["counts"] = counts

    def patch(self, owner, attribute, name, span=False):
        """Wrap ``owner.attribute`` in place.

        ``owner`` is a module or a class.  Class methods keep their binding.
        A missing attribute is not wrapped; it is listed in ``missing`` so
        that a renamed boundary shows up instead of reading as zero calls.
        """
        self._record(name)
        original = owner.__dict__.get(attribute)
        if original is None:
            label = f"{getattr(owner, '__qualname__', owner.__name__)}.{attribute}"
            if label not in self.missing:
                self.missing.append(label)
            return
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, span))
        else:
            replacement = self.wrap(name, original, span)
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, original))

    def uninstall(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def self_total(self, names):
        return sum(self.records[n][2] for n in names if n in self.records)
