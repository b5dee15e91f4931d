"""Call recording around module-level functions of a package.

A ``Recorder`` replaces a function with a wrapper under every name that
binds it in the package's loaded modules, so a caller that did
``from .poisson import poisson_solve`` is traced as well as one that calls
``poisson.poisson_solve``.  Each wrapper counts calls and measures total
time and self time: the total minus the total time of the wrapped calls it
made.  A target that no longer exists is listed in ``missing`` and skipped.

Work done in forked pool workers is shipped back through files: the
wrapper of a pool entry point (``pool_entry``) resets the recorder it
inherited at the fork, records the call, and writes the worker's
statistics to ``channel`` for the parent to ``collect``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path


class Recorder:
    """Per-process call statistics keyed by a layer name.

    ``stats[key]`` is ``[calls, total_s, self_s]``; ``counters`` holds plain
    counts added by hooks.  The stack holds one child-time accumulator per
    open wrapped call, so nested calls subtract from their caller only.
    """

    def __init__(self, package: str = "pstruct", clock=time.perf_counter, channel=None):
        self.package = package
        self.clock = clock
        self.channel = Path(channel) if channel is not None else None
        self.pid = os.getpid()
        self.stats = {}
        self.counters = {}
        self.missing = []
        self._stack = []
        self._patched = []  # (module, attribute, original)
        self._seq = 0
        self._in_worker = False

    # -- recording ---------------------------------------------------------

    def clear(self) -> None:
        self.stats = {}
        self.counters = {}
        self._stack = []

    def count(self, name: str, amount=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextmanager
    def span(self, key: str):
        """Record a block as one call of ``key``; wrappers use it per call."""
        frame = [0.0]
        self._stack.append(frame)
        t0 = self.clock()
        try:
            yield
        finally:
            total = self.clock() - t0
            self._stack.pop()
            st = self.stats.setdefault(key, [0, 0.0, 0.0])
            st[0] += 1
            st[1] += total
            st[2] += total - frame[0]
            if self._stack:
                self._stack[-1][0] += total

    # -- installing --------------------------------------------------------

    def _modules(self):
        pkg = self.package
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == pkg or name.startswith(pkg + "."))]

    def _bind(self, module_name: str, attr: str, make_wrapper):
        module = sys.modules.get(f"{self.package}.{module_name}")
        original = getattr(module, attr, None) if module is not None else None
        if not callable(original):
            self.missing.append(f"{self.package}.{module_name}.{attr}")
            return
        wrapper = make_wrapper(original)
        for mod in self._modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    self._patched.append((mod, name, original))

    def wrap(self, key: str, module_name: str, attr: str, after=None) -> None:
        """Trace ``package.module_name.attr`` as ``key``.

        ``after(result, args, kwargs)`` runs on each return, e.g. to add
        counters from a report object.  An exception is counted as
        ``key + ".failed"`` and re-raised.
        """

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                try:
                    with self.span(key):
                        out = fn(*args, **kwargs)
                except BaseException:
                    self.count(key + ".failed")
                    raise
                if after is not None:
                    after(out, args, kwargs)
                return out

            return wrapper

        self._bind(module_name, attr, make)

    def pool_entry(self, key: str, module_name: str, attr: str) -> None:
        """Trace a function that a process pool runs in forked workers.

        In a worker (a process other than the one that created the
        recorder) the statistics inherited from the parent are dropped on
        the first call, and after every call they are written to the
        channel directory and cleared.
        """

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if os.getpid() == self.pid:
                    with self.span(key):
                        return fn(*args, **kwargs)
                if not self._in_worker:
                    self._in_worker = True
                    self.clear()
                try:
                    with self.span(key):
                        return fn(*args, **kwargs)
                finally:
                    self._ship()

            return wrapper

        self._bind(module_name, attr, make)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched = []

    # -- worker channel ----------------------------------------------------

    def _ship(self) -> None:
        if self.channel is None:
            return
        self._seq += 1
        payload = {"stats": self.stats, "counters": self.counters}
        tmp = self.channel / f".w{os.getpid()}-{self._seq}.tmp"
        tmp.write_text(json.dumps(payload), encoding="ascii")
        tmp.rename(self.channel / f"w{os.getpid()}-{self._seq}.json")
        self.clear()

    def collect(self) -> set:
        """Merge and delete what workers wrote; returns the workers' pids."""
        pids = set()
        if self.channel is None:
            return pids
        for path in sorted(self.channel.glob("w*.json")):
            pids.add(int(path.stem[1:].split("-")[0]))
            payload = json.loads(path.read_text(encoding="ascii"))
            for key, (calls, total, self_s) in payload["stats"].items():
                st = self.stats.setdefault(key, [0, 0.0, 0.0])
                st[0] += calls
                st[1] += total
                st[2] += self_s
            for name, amount in payload["counters"].items():
                self.count(name, amount)
            path.unlink()
        return pids
