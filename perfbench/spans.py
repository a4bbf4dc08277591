"""In-memory spans for the traced run, plus the summary statistics the
benchmark reports.

A span records one call from the benchmark into a module of the package:
its name, the module it belongs to, start and end (``pace.clock``),
the span that was open when it started, and the run it belongs to.  Spans
stay in memory until the run ends; ``Tracer.dump`` writes them out.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass

from pace import clock


@dataclass
class Span:
    id: int
    name: str
    module: str
    start: float
    end: float
    parent: int | None
    run_id: str
    failed: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans when enabled; a disabled tracer records nothing and
    hands out a shared no-op context, so untraced runs pay no bookkeeping."""

    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def span(self, module: str, name: str):
        if not self.enabled:
            return nullcontext()
        return self._span(module, name)

    @contextmanager
    def _span(self, module: str, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(sid, name, module, clock(), math.nan, parent, self.run_id)
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        except BaseException:
            rec.failed = True
            raise
        finally:
            rec.end = clock()
            self._stack.pop()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (children clipped to the parent's interval)."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            p = by_id[s.parent]
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children.setdefault(s.parent, []).append((lo, hi))
    return {s.id: s.duration - covered(children.get(s.id, ())) for s in spans}


def roots(spans) -> dict[int, Span]:
    """Span id -> its outermost ancestor among ``spans``."""
    by_id = {s.id: s for s in spans}
    out: dict[int, Span] = {}
    for s in spans:
        r = s
        while r.parent is not None and r.parent in by_id:
            r = by_id[r.parent]
        out[s.id] = r
    return out


def under_roots(spans, keep) -> list[Span]:
    """The spans whose outermost ancestor satisfies ``keep``."""
    root = roots(spans)
    return [s for s in spans if keep(root[s.id])]


def module_totals(spans, modules, speed=lambda start, end: 1.0) -> dict[str, dict[str, float]]:
    """Per module: self time, calls and failed calls per block.  A block is
    one root span; each module's sums over the spans under a root are divided
    by the number of roots with the same module and name, so the totals of
    unchanged code stay the same however many blocks a run fits.  Each span's
    self time is multiplied by ``speed`` over its interval."""
    own = self_times(spans)
    root = roots(spans)
    blocks: dict[tuple[str, str], int] = {}
    for s in spans:
        if root[s.id] is s:
            blocks[s.module, s.name] = blocks.get((s.module, s.name), 0) + 1
    out = {m: {"self_s": 0.0, "calls": 0.0, "failed": 0.0} for m in modules}
    for s in spans:
        if s.module in out:
            r = root[s.id]
            weight = 1.0 / blocks[r.module, r.name]
            row = out[s.module]
            row["self_s"] += weight * own[s.id] * speed(s.start, s.end)
            row["calls"] += weight
            row["failed"] += weight * s.failed
    return out


def median(values) -> float:
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no samples")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def high_percentile(values, beyond: int = 10):
    """The highest order statistic with at least ``beyond`` samples above it,
    as ``(percent, value)``; ``None`` when there are too few samples.

    With ``n`` samples sorted ascending, the ``n - beyond``-th one has exactly
    ``beyond`` samples beyond it and sits at percentile ``100 (n - beyond) / n``.
    """
    xs = sorted(values)
    k = len(xs) - beyond
    if k < 1:
        return None
    return 100.0 * k / len(xs), xs[k - 1]
