"""Spans around calls into invwreath, recorded from outside the package.

A ``Tracer`` replaces public functions at their module attributes with
wrappers.  Each call records one span: name, start, end, the span that was
open when it began (its parent) and the owner, the cell or query the call
serves.  Spans are kept in memory in columns and written out once, when
the run ends.  A span's self time is its duration minus the time its
direct children cover; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import sys
from array import array
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.owners: list[str] = []
        self._owner_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.owner = array("i")
        self.start = array("q")
        self.end = array("q")
        self.results: dict[int, dict] = {}    # span -> summary of the returned value
        self._stack: list[int] = []
        self._owner = -1
        self._recording = True
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name)

    # -- recording -------------------------------------------------------

    def _id(self, table: list, index: dict, label: str) -> int:
        if label not in index:
            index[label] = len(table)
            table.append(label)
        return index[label]

    def set_owner(self, label: str):
        self._owner = self._id(self.owners, self._owner_ids, label)

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(self._id(self.names, self._name_ids, name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.owner.append(self._owner)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int):
        self.end[idx] = perf_counter_ns()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.names[self.name[idx]]} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str, owner: str):
        self.set_owner(owner)
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this block record nothing (output checks)."""
        self._recording = False
        try:
            yield
        finally:
            self._recording = True

    # -- wrapping --------------------------------------------------------

    def wrap(self, package: str, module: str, attr: str, name: str, summarize=None):
        """Wrap ``module.attr`` under the span ``name``.  Every module of
        ``package`` that bound the same function by name (``from .x import
        f``) gets the wrapper too, so no call path escapes it.  ``attr`` may
        name a method as ``Class.method``.  ``summarize`` maps the returned
        value to a dict of counters kept with the span."""
        owner_name, _, fn_name = attr.rpartition(".")
        holder = sys.modules[module]
        if owner_name:
            holder = getattr(holder, owner_name)
        original = getattr(holder, fn_name)
        wrapper = self._wrapper(original, name, summarize)
        sites = [(holder, fn_name)]
        if not owner_name:
            sites += [(mod, fn_name) for mod_name, mod in list(sys.modules.items())
                      if mod is not holder
                      and (mod_name == package or mod_name.startswith(package + "."))
                      and getattr(mod, fn_name, None) is original]
        for obj, key in sites:
            self._patches.append((obj, key, original))
            setattr(obj, key, wrapper)

    def unwrap_all(self):
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches.clear()

    def _wrapper(self, fn, name: str, summarize):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # the span covers the iteration, not just the creation
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not tracer._recording:
                    yield from fn(*args, **kwargs)
                    return
                idx = tracer.open(name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._recording:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if summarize is not None:
                tracer.results[idx] = summarize(result)
            return result
        return wrapper

    # -- analysis --------------------------------------------------------

    def self_times(self, lo: int, hi: int) -> dict[int, int]:
        """Self time, in ns, of spans ``lo..hi-1``.  Raises if a child
        escapes its parent's interval."""
        child_ns: dict[int, int] = {}
        start, end, parent = self.start, self.end, self.parent
        for i in range(lo, hi):
            p = parent[i]
            if p < 0:
                continue
            if not (start[p] <= start[i] <= end[i] <= end[p]):
                raise RuntimeError(f"span {i} ({self.names[self.name[i]]}) is not "
                                   f"inside its parent {p} ({self.names[self.name[p]]})")
            child_ns[p] = child_ns.get(p, 0) + end[i] - start[i]
        self_ns = {i: end[i] - start[i] - child_ns.get(i, 0) for i in range(lo, hi)}
        if any(v < 0 for v in self_ns.values()):
            raise RuntimeError("children of a span cover more than its duration")
        return self_ns

    def write(self, path):
        """One tab-separated row per span, times in ns from the first span."""
        t0 = self.start[0] if len(self) else 0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\tname\towner\tstart_ns\tend_ns\n")
            for i in range(len(self)):
                owner = self.owners[self.owner[i]] if self.owner[i] >= 0 else ""
                out.write(f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t{owner}\t"
                          f"{self.start[i] - t0}\t{self.end[i] - t0}\n")
