"""Wall-clock spans recorded from outside the program.

A :class:`SpanRecorder` installs wrappers around public entry points of
``repro`` at the place where the calling code looks each one up: a
class attribute for methods (``TileCache.get``), a module global for
functions (``repro.serve.service.content_key``).  Every wrapped call
appends one span — name, layer, start, end, parent span and the id of
the benchmark operation (train step or serving window) it belongs to —
to an in-memory list, timed with ``time.perf_counter``.  Nothing in
``src/`` is edited and the ``repro.obs`` tracer stays off: its
collective spans advance a modeled clock, not wall time.

:meth:`SpanRecorder.uninstall` restores every original attribute, so a
traced episode and an untraced one can alternate in one process.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = ["SpanRecorder", "self_times"]

# span tuple fields
NAME, LAYER, START, END, PARENT, OP, EXTRA = range(7)


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []
        self.op = -1  # id of the benchmark operation in progress

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    @contextmanager
    def span(self, name: str, layer: str):
        """A span around benchmark code (the top-level operations)."""
        rec = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, layer: str,
             extra=None, before=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``extra(args, result, before())`` (optional) stores a small value
        on the span after the call returns — e.g. whether a cache lookup
        hit.  It and ``before`` run outside the timed interval.
        """
        had = attr in vars(owner)
        original = vars(owner)[attr] if had else None
        target = getattr(owner, attr)
        spans, stack, recorder = self.spans, self._stack, self

        def wrapper(*args, **kwargs):
            state = before() if before is not None else None
            idx = len(spans)
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1,
                   recorder.op, None]
            spans.append(rec)
            stack.append(idx)
            rec[START] = time.perf_counter()
            try:
                result = target(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if extra is not None:
                rec[EXTRA] = extra(args, result, state)
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, had, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        for owner, attr, had, original in reversed(self._installed):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._installed.clear()

    # ------------------------------------------------------------------ #
    # output
    # ------------------------------------------------------------------ #
    def write_chrome(self, path: Path, about: dict,
                     limit: int = 50_000) -> None:
        """Chrome-trace JSON (load in Perfetto or chrome://tracing) of
        the first ``limit`` spans; ``about`` lands in ``otherData``.

        Parents are recorded before their children, so every parent index
        in a prefix of the span list stays valid.
        """
        spans = self.spans[:limit]
        if not spans:
            return
        t0 = spans[0][START]
        events = [{
            "name": s[NAME], "cat": s[LAYER], "ph": "X", "pid": 0, "tid": 0,
            "ts": (s[START] - t0) * 1e6, "dur": (s[END] - s[START]) * 1e6,
            "args": {"parent": s[PARENT], "op": s[OP]},
        } for s in spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {**about, "clock": "perf_counter",
                          "spans_total": len(self.spans)}}))


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children nest strictly inside their parent (one thread, a stack),
    so subtracting their durations is exact.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out
