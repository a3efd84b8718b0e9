"""Measurement helpers: spans, state-layer timers, log counts, /proc memory.

Everything here observes the library from outside: spans wrap calls into
public functions, and the state timers wrap a ``SketchSpec`` (the library's
extension surface) so sketch calls made in this process are timed.
"""

from __future__ import annotations

import logging
import os
import re
import signal
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """In-memory spans ``(name, start, end, parent, job)`` plus counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, dict] = {}
        self.stats: dict = {}
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, job: str):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "job": job,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter() - self._t0, "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter() - self._t0

    def count(self, job: str, **values):
        """Counts at a layer boundary, keyed by metric name."""
        self.counts.setdefault(job, {}).update(values)

    def keep_stats(self, job: str, ds) -> None:
        """Keep ``Dataset.stats()`` of the first traced job only."""
        if not self.stats:
            self.stats = {"job": job, "text": ds.stats()}

    def durations(self, job: str) -> dict:
        """name -> duration of the spans of one job."""
        return {s["name"]: s["end"] - s["start"]
                for s in self.spans if s["job"] == job}


class StateClock:
    """Seconds spent in sketch calls made in this process, by kind, and the
    sizes of the merged sketches."""

    def __init__(self):
        self.s = defaultdict(float)
        self.sizes: dict = {}

    @contextmanager
    def timed(self, what: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.s[what] += time.perf_counter() - t0


class _TimedSketch:
    """A sketch whose update / serde / merge calls are timed by a clock."""

    __slots__ = ("inner", "clock")

    def __init__(self, inner, clock: StateClock):
        self.inner = inner
        self.clock = clock

    def update_batch(self, values, weights=None):
        with self.clock.timed("update"):
            self.inner.update_batch(values, weights)

    def to_bytes(self) -> bytes:
        with self.clock.timed("serde"):
            return self.inner.to_bytes()

    def merge(self, *others):
        with self.clock.timed("merge"):
            self.inner.merge(*(o.inner for o in others))
        return self

    def __getattr__(self, name):
        return getattr(self.inner, name)


def timed_spec(spec, clock: StateClock):
    """A copy of ``spec`` whose sketches report to ``clock`` (in-process only)."""
    from t_digest_ray.state.protocol import SketchSpec

    def from_bytes(b):
        with clock.timed("serde"):
            sk = spec.from_bytes(b)
        return _TimedSketch(sk, clock)

    return SketchSpec(name=spec.name,
                      factory=lambda: _TimedSketch(spec.factory(), clock),
                      from_bytes=from_bytes,
                      summarize=lambda sk: spec.summarize(sk.inner))


class SchemaWarningCounter(logging.Handler):
    """Counts Ray Data's schema warnings logged in this (driver) process."""

    PATTERNS = ("Failed to hash the schemas", "different schema")

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.n = 0

    def emit(self, record):
        msg = record.getMessage()
        if any(p in msg for p in self.PATTERNS):
            self.n += 1

    def install(self):
        logging.getLogger("ray.data").addHandler(self)
        return self


_TASKS_RE = re.compile(r"^\s*(?:Sub)?[Oo]perator \d+ .+?: (\d+) tasks executed",
                       re.M)


def stats_tasks(ds) -> int:
    """Tasks executed for ``ds`` and its ancestors, from ``Dataset.stats()``."""
    return sum(int(n) for n in _TASKS_RE.findall(ds.stats()))


# ---------------------------------------------------------------- processes

def descendants(pid: int | None = None) -> list[int]:
    """Every live descendant of ``pid`` (default: this process), from /proc."""
    pid = os.getpid() if pid is None else pid
    children = defaultdict(list)
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if state != "Z":  # zombies have exited; only reaping is left
            children[int(ppid)].append(int(entry))
    out, todo = [], [pid]
    while todo:
        for c in children.get(todo.pop(), ()):
            out.append(c)
            todo.append(c)
    return out


def reset_peak_rss(pids) -> None:
    """Reset VmHWM (``clear_refs`` value 5) of each process that allows it."""
    for p in pids:
        try:
            with open(f"/proc/{p}/clear_refs", "w") as f:
                f.write("5")
        except OSError:
            pass


def peak_rss_mib(pids) -> float:
    """Sum of VmHWM over ``pids`` (processes that have exited are skipped)."""
    total_kib = 0
    for p in pids:
        try:
            with open(f"/proc/{p}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
                        break
        except OSError:
            pass
    return total_kib / 1024.0


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_descendants(timeout: float = 15.0) -> None:
    """Wait for every descendant to exit: SIGTERM stragglers after half the
    timeout, SIGKILL after all of it."""
    deadline = time.monotonic() + timeout
    while True:
        _reap()
        left = descendants()
        now = time.monotonic()
        if not left or now > deadline + 5:
            return
        if now > deadline - timeout / 2:
            sig = signal.SIGKILL if now > deadline else signal.SIGTERM
            for p in left:
                try:
                    os.kill(p, sig)
                except OSError:
                    pass
        time.sleep(0.1)


class LogScan:
    """Counts schema-warning lines that Ray workers wrote to their log files
    since ``mark()``; the driver's own lines go to ``SchemaWarningCounter``."""

    def __init__(self, logs_dir: str | None):
        self.logs_dir = logs_dir
        self._offsets: dict = {}

    def _files(self) -> list[str]:
        if not self.logs_dir or not os.path.isdir(self.logs_dir):
            return []
        return [os.path.join(self.logs_dir, f) for f in os.listdir(self.logs_dir)
                if f.startswith("worker-") and f.endswith((".err", ".out"))]

    def mark(self) -> None:
        self._offsets = {f: os.path.getsize(f) for f in self._files()}

    def count(self) -> int:
        pats = [p.encode() for p in SchemaWarningCounter.PATTERNS]
        n = 0
        for f in self._files():
            with open(f, "rb") as fh:
                fh.seek(self._offsets.get(f, 0))
                for line in fh:
                    n += any(p in line for p in pats)
        return n
