"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions of the binoisy modules at the names where
callers look them up: the modules import each other's functions by name
(``from .replica_matched import matched_mi``), so patching only the defining
module would miss most calls. Every wrapped call becomes a span with a name,
start, end, parent span and the id of the CLI point (request) it belongs to.
Spans stay in per-thread column arrays and are written out when the run ends.

Exact counts (fixed-point iterations, objective evaluations, quadrature
nodes, Monte Carlo draws) are taken from arguments and results at the same
boundaries, so they are measured where the work happens.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from array import array
from collections import Counter
from typing import Callable, Optional

import numpy as np

_clock = time.perf_counter


class _ThreadState:
    """One thread's open-span stack, current request id, counts and span
    columns. ceiling is a working value for count hooks: the matched-rate
    ceiling of the gmi call running on this thread."""

    __slots__ = ("stack", "rid", "counts", "ceiling",
                 "ids", "parents", "rids", "names", "starts", "ends")

    def __init__(self):
        self.stack: list[int] = []
        self.rid = 0
        self.counts: Counter = Counter()
        self.ceiling = float("inf")
        self.ids = array("q")
        self.parents = array("q")
        self.rids = array("q")
        self.names = array("l")
        self.starts = array("d")
        self.ends = array("d")


class Tracer:
    """Collects spans and counts from functions it patches in place.

    ``patch()`` wraps one name (layers.install holds the plan),
    ``uninstall()`` restores every patched name, ``spans()`` gives the merged
    span table and ``summary()`` per-name calls, busy time and self time.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_idx: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- bookkeeping -------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            with self._states_lock:
                self._states.append(st)
        return st

    def name_index(self, name: str) -> int:
        idx = self._name_idx.get(name)
        if idx is None:
            with self._states_lock:
                idx = self._name_idx.setdefault(name, len(self.names))
                if idx == len(self.names):
                    self.names.append(name)
        return idx

    @staticmethod
    def _record(st: _ThreadState, sid: int, parent: int, name: int, t0: float, t1: float) -> None:
        st.ids.append(sid)
        st.parents.append(parent)
        st.rids.append(st.rid)
        st.names.append(name)
        st.starts.append(t0)
        st.ends.append(t1)

    def counts(self) -> Counter:
        total: Counter = Counter()
        for st in self._states:
            total.update(st.counts)
        return total

    # -- spans opened by the benchmark itself --------------------------------

    @contextlib.contextmanager
    def span(self, name: str, parent: Optional[int] = None, new_request: bool = False):
        """Span around a block of benchmark code; yields the span id."""
        st = self._state()
        idx = self.name_index(name)
        sid = next(self._ids)
        if parent is None:
            parent = st.stack[-1] if st.stack else 0
        saved_rid = st.rid
        if new_request:
            st.rid = next(self._requests)
        st.stack.append(sid)
        t0 = _clock()
        try:
            yield sid
        finally:
            t1 = _clock()
            st.stack.pop()
            self._record(st, sid, parent, idx, t0, t1)
            st.rid = saved_rid

    def current_span(self) -> int:
        st = self._state()
        return st.stack[-1] if st.stack else 0

    # -- wrapping ------------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name,
        pre: Optional[Callable] = None,
        post: Optional[Callable] = None,
    ) -> Callable:
        """Return fn wrapped in a span.

        name is a span name, or a callable (args, kwargs) -> span name for
        functions whose span is split by input kind. pre(state, args, kwargs)
        runs before the call and may return replacement (args, kwargs);
        post(state, args, kwargs, result) runs after a call that returned.
        """
        tracer = self
        fixed = None if callable(name) else self.name_index(name)
        ids = self._ids
        record = self._record
        get_state = self._state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = get_state()
            idx = fixed if fixed is not None else tracer.name_index(name(args, kwargs))
            if pre is not None:
                replaced = pre(st, args, kwargs)
                if replaced is not None:
                    args, kwargs = replaced
            sid = next(ids)
            stack = st.stack
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                record(st, sid, parent, idx, t0, t1)
            if post is not None:
                post(st, args, kwargs, result)
            return result

        return traced

    def patch(self, module, attr: str, replacement_factory: Callable[[Callable], Callable]) -> None:
        """Replace module.attr by replacement_factory(original). A name the
        program no longer has is recorded in ``missing`` and skipped, so the
        traced run survives refactors of the code it measures."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        self._patches.append((module, attr, original))
        setattr(module, attr, replacement_factory(original))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- results ---------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        cols = {"id": [], "parent": [], "request": [], "name": [], "start": [], "end": []}
        for st in self._states:
            cols["id"].append(np.frombuffer(st.ids, dtype=np.int64))
            cols["parent"].append(np.frombuffer(st.parents, dtype=np.int64))
            cols["request"].append(np.frombuffer(st.rids, dtype=np.int64))
            cols["name"].append(np.asarray(st.names, dtype=np.int64))
            cols["start"].append(np.frombuffer(st.starts, dtype=np.float64))
            cols["end"].append(np.frombuffer(st.ends, dtype=np.float64))
        return {k: (np.concatenate(v) if v else np.empty(0)) for k, v in cols.items()}

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, busy seconds, self seconds).

        Self time is a span's duration minus the part of its interval that
        its child spans cover. Children on one thread never overlap; the
        point spans under one CLI call run on pool threads and may, so the
        covered part is the length of the union of child intervals.
        """
        sp = self.spans()
        n = sp["id"].size
        if n == 0:
            return {}
        dur = sp["end"] - sp["start"]
        order = np.argsort(sp["id"])
        sorted_ids = sp["id"][order]
        covered = np.zeros(n)
        by_parent = np.lexsort((sp["start"], sp["parent"]))
        parents = sp["parent"][by_parent]
        bounds = np.flatnonzero(np.diff(parents)) + 1
        for group in np.split(by_parent, bounds):
            pid = sp["parent"][group[0]]
            if pid == 0:
                continue
            total, cur_lo, cur_hi = 0.0, None, None
            for s, e in zip(sp["start"][group], sp["end"][group]):
                if cur_hi is None or s > cur_hi:
                    if cur_hi is not None:
                        total += cur_hi - cur_lo
                    cur_lo, cur_hi = s, e
                elif e > cur_hi:
                    cur_hi = e
            total += cur_hi - cur_lo
            pos = np.searchsorted(sorted_ids, pid)
            if pos < n and sorted_ids[pos] == pid:
                covered[order[pos]] = total
        names = sp["name"]
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        busy = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=dur - covered, minlength=k)
        return {nm: (int(calls[i]), float(busy[i]), float(own[i])) for i, nm in enumerate(self.names)}

    def write(self, path) -> int:
        sp = self.spans()
        np.savez(path, names=np.array(self.names), **sp)
        return int(sp["id"].size)
