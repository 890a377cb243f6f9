"""Spans and counts at the library's module boundaries, recorded from outside.

``Tracer.install`` rebinds each wrapped function in every ``coincanon``
module that holds it, so calls between modules go through the wrapper; the
library itself is not edited. A span is (name, start, end, parent), kept in
flat arrays in memory and written out by ``write`` when the run ends. Self
time of a span is its duration minus the time of its child spans.

Per-candidate primitives such as ``_greedy_size`` are not wrapped: their
counts are derived (m(m-1)/2 candidates per Pearson scan) instead of being
paid for on every call.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array
from typing import Callable, Optional

# (module, function, span name, counter hook name or None)
SPANS = (
    ("coincanon.oracle", "_scan", "oracle.scan", "scan"),
    # The window scans' own frames: the budget guard and releasing the
    # scan's arrays.
    ("coincanon.oracle", "first_counterexample_in", "oracle.scan", None),
    ("coincanon.oracle", "counterexample_at", "oracle.witness", None),
    ("coincanon.solvers", "_opt_sizes", "solvers.dp", "dp"),
    ("coincanon.solvers", "optimal", "solvers.dp", None),
    ("coincanon.fastcheck", "_pearson_scan", "fastcheck.pearson", "pearson"),
    ("coincanon.fastcheck", "is_canonical_tight_extended", "fastcheck.tight", "tight"),
    ("coincanon.fastcheck", "is_canonical_tight_verbatim", "fastcheck.tight", "tight"),
    ("coincanon.characterize", "check_three", "characterize", None),
    ("coincanon.characterize", "check_four", "characterize", None),
    ("coincanon.characterize", "check_five", "characterize", None),
    ("coincanon.characterize", "one_point_extension", "characterize", None),
    ("coincanon.characterize", "propagation_witness", "characterize", None),
    ("coincanon.sweeps", "predicate_sweep", "sweeps", None),
    ("coincanon.sweeps", "pearson_equivalence_sweep", "sweeps", None),
    ("coincanon.sweeps", "evaluate_shared", "sweeps", None),
    ("coincanon.predicates", "_has_disjoint_optimal", "predicates", None),
    ("coincanon.predicates", "_pair_cex_exists", "predicates", None),
)
GENERATORS = (("coincanon.generate", "enumerate_all", "generate.enumerate"),)
# Budget guards: a raise is counted, no span is kept.
GUARDS = (
    ("coincanon.oracle", "_guard", "oracle.limit_exceeded"),
    ("coincanon.solvers", "_check_budget", "solvers.limit_exceeded"),
)
CONSTRUCT = "core.construct"  # CoinSystem.__init__
ROOT = "bench.op"  # one timed op of the benchmark


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self.maxes: dict[str, int] = {}
        self.missing: list[str] = []
        self._undo: list[Callable[[], None]] = []

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def add(self, key: str, v: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + v

    def peak(self, key: str, v: int) -> None:
        if v > self.maxes.get(key, 0):
            self.maxes[key] = v

    # -- counter hooks: (args, result) -> None ------------------------------

    def _hook_scan(self, args, kwargs, result) -> None:
        self.add("oracle.scan_calls", 1)
        self.add("oracle.scan_amounts", len(result[2]) - 1)
        stop = args[2] if len(args) > 2 else kwargs.get("stop", len(result[2]))
        self.peak("oracle.max_scan_len", stop)

    def _hook_dp(self, args, kwargs, result) -> None:
        self.add("solvers.dp_entries", len(result))
        self.peak("solvers.max_dp_len", len(result))

    def _hook_pearson(self, args, kwargs, result) -> None:
        m = len(args[0])
        self.add("fastcheck.pearson_candidates", m * (m - 1) // 2)

    def _hook_tight(self, args, kwargs, result) -> None:
        self.add("fastcheck.tight_pairs", result.pairs_scanned)

    # -- wrappers -------------------------------------------------------------

    def span(self, fn: Callable, name: str, hook: Optional[Callable] = None) -> Callable:
        nid = self._id(name)
        span_name, start, end, parent, stack = (
            self.span_name, self.start, self.end, self.parent, self.stack)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def generator(self, fn: Callable, name: str) -> Callable:
        """Each step of the generator is one span."""
        nid = self._id(name)
        span_name, start, end, parent, stack = (
            self.span_name, self.start, self.end, self.parent, self.stack)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = len(start)
                span_name.append(nid)
                parent.append(stack[-1])
                end.append(0)
                stack.append(idx)
                start.append(clock())
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    end[idx] = clock()
                    stack.pop()
                yield item

        return wrapper

    def raises(self, fn: Callable, key: str, exc: type) -> Callable:
        self.counts.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except exc:
                self.counts[key] += 1
                raise

        return wrapper

    # -- install / uninstall --------------------------------------------------

    def _rebind(self, module: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        try:
            orig = getattr(importlib.import_module(module), attr, None)
        except ImportError:
            orig = None
        if orig is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapped = make(orig)
        for name, m in list(sys.modules.items()):
            if m is None or not (name == "coincanon" or name.startswith("coincanon.")):
                continue
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)
                    self._undo.append(lambda m=m, key=key: setattr(m, key, orig))

    def install(self) -> None:
        from coincanon.core import CoinSystem, LimitExceeded

        hooks = {"scan": self._hook_scan, "dp": self._hook_dp,
                 "pearson": self._hook_pearson, "tight": self._hook_tight}
        for module, attr, name, hook in SPANS:
            self._rebind(module, attr, lambda f, n=name, h=hook: self.span(f, n, hooks.get(h)))
        for module, attr, name in GENERATORS:
            self._rebind(module, attr, lambda f, n=name: self.generator(f, n))
        for module, attr, key in GUARDS:
            self._rebind(module, attr, lambda f, k=key: self.raises(f, k, LimitExceeded))
        init = CoinSystem.__init__
        CoinSystem.__init__ = self.span(init, CONSTRUCT)
        self._undo.append(lambda: setattr(CoinSystem, "__init__", init))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results ----------------------------------------------------------------

    def summary(self) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
        """Self time (ns), total time (ns) and span count per span name."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_ns = [0] * len(self.names)
        total_ns = [0] * len(self.names)
        calls = [0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            self_ns[nid] += dur[i] - child[i]
            calls[nid] += 1
            if parent[i] < 0 or self.span_name[parent[i]] != nid:
                total_ns[nid] += dur[i]
        names = self.names
        return (dict(zip(names, self_ns)), dict(zip(names, total_ns)),
                dict(zip(names, calls)))

    def write(self, path) -> None:
        """All spans, one per line: name, start_ns, end_ns, parent index."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\n")
            names = self.names
            for nid, s, e, p in zip(self.span_name, self.start, self.end, self.parent):
                fh.write(f"{names[nid]}\t{s}\t{e}\t{p}\n")
