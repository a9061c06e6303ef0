"""Outside-in span tracer for the end-to-end benchmark.

The tracer times the pipeline's layers without touching the program:
it rebinds public entry points (module functions, class methods,
attributes of one object) to wrappers that open a span around each
call, and restores the originals afterwards.  It is installed only for
the traced rounds of a ``--trace 1`` run, so untraced rounds execute
the program exactly as shipped.

A span records its name, start, end, parent span and the run id.
Spans live in memory and :meth:`Tracer.write` dumps them as JSON at
the end.  Processes forked while the wrappers are installed (sweep pool
workers, service shard workers) inherit them; such a process appends
its spans to ``<spool_dir>/spans-<pid>.jsonl`` whenever its outermost
span closes, and :meth:`Tracer.collect` reads them back.  Start and end
times are ``time.perf_counter`` values, a system-wide monotonic clock
on Linux, so spans from all processes share one time axis.

A layer's *self time* is its span time minus the time covered by its
direct child spans (:func:`self_times`).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    run_id: str


class Tracer:
    """Nested spans per thread, plus counters recorded at layer boundaries.

    ``spool_dir`` enables collection from forked processes;
    ``spool_all`` makes every process (the creating one too) spool,
    for a tracer installed inside a daemon.
    """

    def __init__(
        self, run_id: str, *, spool_dir: str | Path | None = None, spool_all: bool = False
    ) -> None:
        self.run_id = run_id
        self.spool_dir = Path(spool_dir) if spool_dir is not None else None
        self.home_pid = None if spool_all else os.getpid()
        self._patches: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self) -> None:
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self.spans: list[Span] = []
        #: ``(name, value, time)`` counter increments.
        self.events: list[tuple[str, float, float]] = []
        # Span ids carry the pid so ids from different processes differ.
        self._ids = itertools.count((self._pid << 32) + 1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if os.getpid() != self._pid:
            self._reset()  # forked: drop the parent's spans and open stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording -----------------------------------------------------

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, parent, name, start, end, self.run_id))
            if not stack and self._spools():
                self._flush()

    def add(self, name: str, value: float) -> None:
        """Record a counter increment at a layer boundary."""
        stack = self._stack()
        with self._lock:
            self.events.append((name, float(value), time.perf_counter()))
        if not stack and self._spools():
            self._flush()

    def _spools(self) -> bool:
        return self.spool_dir is not None and os.getpid() != self.home_pid

    def _flush(self) -> None:
        with self._lock:
            spans, self.spans = self.spans, []
            events, self.events = self.events, []
        lines = [json.dumps({"span": asdict(s)}) for s in spans]
        lines += [json.dumps({"event": list(e)}) for e in events]
        if lines:
            path = self.spool_dir / f"spans-{os.getpid()}.jsonl"
            with open(path, "a") as handle:
                handle.write("\n".join(lines) + "\n")

    def collect(self) -> tuple[list[Span], list[tuple[str, float, float]]]:
        """Spans and counter events of this process plus every spool file."""
        spans = list(self.spans)
        events = list(self.events)
        if self.spool_dir is not None and self.spool_dir.is_dir():
            for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
                for line in path.read_text().splitlines():
                    try:
                        doc = json.loads(line)
                    except json.JSONDecodeError:
                        continue  # a line still being written
                    if "span" in doc:
                        spans.append(Span(**doc["span"]))
                    else:
                        events.append(tuple(doc["event"]))
        return spans, events

    # -- rebinding -----------------------------------------------------

    def wrap(self, fn, name: str | None, observe=None):
        """``fn`` inside a span named ``name`` (no span when None).

        ``observe(tracer, result)`` runs after each call, to count what
        the call returned.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                with self.span(name):
                    result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def patch(self, owner: object, attr: str, name: str | None, observe=None) -> None:
        """Rebind one attribute of a module, class or object."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, staticmethod):
            replacement = staticmethod(self.wrap(original.__func__, name, observe))
        else:
            replacement = self.wrap(original, name, observe)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def patch_everywhere(self, fn, name: str | None, observe=None) -> None:
        """Rebind ``fn`` in every loaded ``repro`` module that binds it.

        Callers bind functions with ``from ... import``, so replacing
        only the defining module's attribute would miss them.
        """
        wrapped = self.wrap(fn, name, observe)
        found = False
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapped)
                    found = True
        if not found:
            raise LookupError(f"no loaded repro module binds {fn!r}")

    def uninstall(self) -> None:
        """Restore every rebound attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------

    def write(self, path: str | Path, **meta) -> Path:
        spans, events = self.collect()
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "run_id": self.run_id,
            **meta,
            "events": events,
            "spans": [asdict(s) for s in spans],
        }
        path.write_text(json.dumps(doc))
        return path


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name: duration minus direct children."""
    covered: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + (s.end - s.start)
    totals: dict[str, float] = {}
    for s in spans:
        own = (s.end - s.start) - covered.get(s.id, 0.0)
        totals[s.name] = totals.get(s.name, 0.0) + own
    return totals


def covered_seconds(spans: list[Span], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by at least one span."""
    total = 0.0
    reach = start
    for s in sorted(spans, key=lambda s: s.start):
        lo, hi = max(s.start, reach), min(s.end, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
