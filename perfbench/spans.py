"""In-memory span recorder that wraps homogenlab's module-level functions.

``Tracer.installed()`` replaces every module attribute of the homogenlab
package that names a homogenlab function with a wrapper recording one span
per call: name, start, end, parent span, command id and thread.  Leaving the
context puts every original attribute back, so untraced code runs unwrapped.
Nothing under ``src/`` is modified.

Spans live in per-thread ``array`` buffers (30 bytes each) because a
traced ``solve`` pass records millions of them; ``arrays()`` joins the
buffers and ``save()`` writes them out once, at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time
import types
from array import array

import numpy as np

MODULES = (
    "homogenlab",
    "homogenlab.numerics",
    "homogenlab.network",
    "homogenlab.homogenize",
    "homogenlab.bounds",
    "homogenlab.solvers",
    "homogenlab.experiments",
    "homogenlab.cli",
)

COMMAND_SPAN = "bench.command"


def span_name(fn) -> str:
    """Layer-qualified name of a homogenlab function, e.g. ``network.evaluate``."""
    module = fn.__module__.removeprefix("homogenlab.")
    return f"{module}.{fn.__qualname__}"


def wrappable(value) -> bool:
    return isinstance(value, types.FunctionType) and value.__module__.startswith("homogenlab")


class _Buffer:
    __slots__ = ("stack", "thread", "sid", "name", "parent", "cmd", "start", "end")

    def __init__(self, thread: int):
        self.stack = []
        self.thread = thread
        self.sid = array("i")
        self.name = array("H")
        self.parent = array("i")
        self.cmd = array("i")
        self.start = array("d")
        self.end = array("d")


class Tracer:
    """Records spans while installed.

    ``hooks`` maps a span name to a generator function ``hook(args, kwargs)``
    that yields the ``(args, kwargs)`` to call with, receives the result and
    may return a replacement result (used to wrap the closure that
    ``mcshane_extend`` returns).  Locals of the generator carry per-call
    state, so hooks are safe on pool threads.
    """

    def __init__(self):
        self.hooks = {}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self.command_span = -1
        self.command_id = -1

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
            return buf

    def wrap(self, fn, name: str | None = None):
        """Return a span-recording wrapper around ``fn``."""
        name = name or span_name(fn)
        name_id = self._name_id(name)
        hook = self.hooks.get(name)
        ids = self._ids
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = tracer._buffer()
            stack = buf.stack
            sid = next(ids)
            # A pool thread has an empty stack: its spans hang off the command.
            parent = stack[-1] if stack else tracer.command_span
            if hook is not None:
                call = hook(args, kwargs)
                args, kwargs = next(call)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                buf.sid.append(sid)
                buf.name.append(name_id)
                buf.parent.append(parent)
                buf.cmd.append(tracer.command_id)
                buf.start.append(t0)
                buf.end.append(t1)
            if hook is not None:
                try:
                    call.send(result)
                except StopIteration as done:
                    if done.value is not None:
                        result = done.value
            return result

        return wrapper

    @contextlib.contextmanager
    def command(self, command_id: int):
        """Span around one CLI command; pool-thread spans take it as parent."""
        buf = self._buffer()
        sid = next(self._ids)
        self.command_span, self.command_id = sid, command_id
        buf.stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            buf.stack.pop()
            buf.sid.append(sid)
            buf.name.append(self._name_id(COMMAND_SPAN))
            buf.parent.append(-1)
            buf.cmd.append(command_id)
            buf.start.append(t0)
            buf.end.append(t1)
            self.command_span = self.command_id = -1

    # -- installation ----------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every homogenlab function attribute; restore them on exit."""
        wrappers: dict[object, object] = {}
        saved: list[tuple[object, str, object]] = []
        try:
            for module_name in MODULES:
                module = importlib.import_module(module_name)
                for attr, value in list(vars(module).items()):
                    if attr.startswith("__") or not wrappable(value):
                        continue
                    if value not in wrappers:
                        wrappers[value] = self.wrap(value)
                    saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
            yield self
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)

    # -- results ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """All recorded spans as numpy columns, ordered by span id."""
        cols = {key: [] for key in ("sid", "name", "parent", "cmd", "start", "end", "thread")}
        for buf in self._buffers:
            for key in ("sid", "name", "parent", "cmd", "start", "end"):
                cols[key].append(np.array(getattr(buf, key)))
            cols["thread"].append(np.full(len(buf.sid), buf.thread, dtype=np.int16))
        out = {
            key: np.concatenate(parts) if parts else np.zeros(0)
            for key, parts in cols.items()
        }
        order = np.argsort(out["sid"], kind="stable")
        return {key: value[order] for key, value in out.items()}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(sid, parent, start, end, thread) -> np.ndarray:
    """Each span's duration minus the part of its interval its children cover.

    Children on the parent's own thread run one after another, so their
    durations add up.  A parent with a child on another thread (a command
    whose experiment fans out to the worker pool) gets the union of all its
    children's intervals instead, since those may overlap.
    """
    sid = np.asarray(sid, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    thread = np.asarray(thread)
    dur = end - start
    if sid.size == 0:
        return dur
    order = np.argsort(sid, kind="stable")
    sorted_sid = sid[order]
    pos = np.searchsorted(sorted_sid, parent)
    pos = np.clip(pos, 0, sid.size - 1)
    has_parent = (parent >= 0) & (sorted_sid[pos] == parent)
    parent_row = np.where(has_parent, order[pos], -1)

    cross = has_parent & (thread != thread[np.where(has_parent, parent_row, 0)])
    mixed = np.unique(parent_row[cross])
    simple = has_parent & ~np.isin(parent_row, mixed)
    # astype: bincount of an empty selection comes back as integers
    covered = np.bincount(parent_row[simple], weights=dur[simple], minlength=sid.size).astype(float)

    for row in mixed:
        kids = np.nonzero(parent_row == row)[0]
        lo = np.maximum(start[kids], start[row])
        hi = np.minimum(end[kids], end[row])
        keep = hi > lo
        lo, hi = lo[keep], hi[keep]
        idx = np.argsort(lo, kind="stable")
        total = 0.0
        cur_lo = cur_hi = None
        for a, b in zip(lo[idx], hi[idx]):
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    total += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            total += cur_hi - cur_lo
        covered[row] = total
    return dur - covered
