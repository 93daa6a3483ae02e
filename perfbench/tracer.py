"""Spans and counters recorded from outside the library.

The tracer replaces public names in the namespaces that call them (for
example ``cascnet.montecarlo.decide``) with wrappers, so the library itself
is untouched. Spans live in memory as ``[name, start, end, parent, ok]``
rows and are written out once the run ends. A name that a later refactor
removed is recorded as absent; the metrics that depend on it are then
omitted instead of failing the run.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def patch(self, module, attr: str, make_wrapper) -> None:
        """Replace ``module.attr`` by ``make_wrapper(original)``."""
        original = getattr(module, attr, None)
        if original is None:
            self.absent.add(f"{module.__name__}.{attr}")
            return
        self._patches.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def reset(self) -> tuple[list[list], Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, Counter(self.counts)
        self.spans = []
        self.counts.clear()
        return spans, counts

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, pre=None, post=None):
        """Wrap fn in a span. `name` is a string or a function of the call's
        arguments; `pre(args, kwargs)` runs before the call and its result is
        handed to `post(token, args, kwargs, out)` after a normal return."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            token = pre(args, kwargs) if pre is not None else None
            row = [label, 0.0, 0.0, stack[-1] if stack else -1, False]
            stack.append(len(self.spans))
            self.spans.append(row)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                row[4] = True
                return out
            finally:
                row[1], row[2] = t0, perf_counter()
                stack.pop()
                if row[4] and post is not None:
                    try:
                        post(token, args, kwargs, out)
                    except AttributeError as exc:  # a result field was renamed
                        self.absent.add(f"{label}: {exc}")

        return wrapper

    def counter(self, key: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def call(self, name: str, fn, *args):
        return self.span(name, fn)(*args)

    # -- analysis ----------------------------------------------------------

    @staticmethod
    def summarize(spans: list[list]) -> dict[str, dict]:
        """Per span name: calls, ok calls, durations and summed self time.

        Self time is a span's duration minus the time its direct children
        cover. Spans come from one thread, so children of one parent never
        overlap and their durations add up to the covered time.
        """
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "ok": 0, "durations": [], "self_s": 0.0})
        for i, (name, t0, t1, _, ok) in enumerate(spans):
            agg = out[name]
            agg["calls"] += 1
            agg["ok"] += ok
            agg["durations"].append(t1 - t0)
            agg["self_s"] += (t1 - t0) - child_time[i]
        return dict(out)

    @staticmethod
    def total_self(spans: list[list]) -> float:
        return sum(agg["self_s"] for agg in Tracer.summarize(spans).values())

    @staticmethod
    def write(phases: dict[str, list[list]], path) -> None:
        """One CSV row per span; `parent` indexes rows of the same phase."""
        with open(path, "w") as fh:
            fh.write("phase,name,start_s,end_s,parent,ok\n")
            for phase, spans in phases.items():
                for name, t0, t1, parent, ok in spans:
                    fh.write(f"{phase},{name},{t0:.9f},{t1:.9f},{parent},{int(ok)}\n")


def median(values) -> float:
    return statistics.median(values) if values else 0.0
