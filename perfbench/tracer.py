"""Span tracer that wraps the package's public functions from outside.

Every public function of the layer modules is replaced, in every
twodescent module namespace that holds it, by a wrapper that records a
span: name, parent span, the id of the input being processed, start,
end and whether it raised.  Modules that import a function by name
(descent takes qp_soluble and factorize this way) therefore see the
wrapper too.  Spans stay in memory until the run ends; self time is a
span's duration minus its direct children's.

A few arithmetic primitives run once per p-adic tree node or per
residue; wrapping them would multiply the traced run's cost, so their
time stays inside their caller's self time.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("arith", "curve", "localsolve", "descent", "families", "cli")
INNER_LOOP = {"arith.val", "arith.is_padic_square", "arith.legendre"}


def public_functions(module) -> list[str]:
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    return [
        n for n in names
        if inspect.isfunction(getattr(module, n, None))
        and getattr(module, n).__module__ == module.__name__
    ]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # (name index, parent span, item id, start, end, raised)
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.item = -1
        self.soluble = 0
        self.search_hits = 0
        self.selmer_tested = 0
        self.selmer_kept = 0
        self.factorize_args: set[int] = set()
        self._last_qs2 = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every public layer function in every twodescent namespace."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"twodescent.{layer}")
            for fname in public_functions(module):
                name = f"{layer}.{fname}"
                if name not in INNER_LOOP:
                    fn = getattr(module, fname)
                    wrappers[id(fn)] = self._wrap(name, fn)
        for modname, module in list(sys.modules.items()):
            if modname != "twodescent" and not modname.startswith("twodescent."):
                continue
            for attr, value in list(vars(module).items()):
                w = wrappers.get(id(value))
                if w is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, w)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = getattr(self, "_after_" + name.split(".")[1], None)

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            raised = 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = 0
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (idx, parent, self.item, t0, t1, raised)
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- outcome counters at the boundaries -----------------------------

    def _after_qp_soluble(self, args, result) -> None:
        self.soluble += bool(result)

    def _after_search_point(self, args, result) -> None:
        self.search_hits += result is not None

    def _after_qs2(self, args, result) -> None:
        self._last_qs2 = len(result)

    def _after_selmer(self, args, result) -> None:
        self.selmer_tested += self._last_qs2
        self.selmer_kept += result.size

    def _after_factorize(self, args, result) -> None:
        self.factorize_args.add(args[0])

    # -- results --------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls, total and self seconds, boundary errors."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        errors: dict[str, int] = defaultdict(int)
        names = self.names
        for idx, parent, _item, t0, t1, raised in self.spans:
            name = names[idx]
            calls[name] += 1
            total[name] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
            layer = name.split(".")[0]
            if raised and (parent < 0 or names[self.spans[parent][0]].split(".")[0] != layer):
                errors[layer] += 1
        self_s: dict[str, float] = defaultdict(float)
        for sid, (idx, _parent, _item, t0, t1, _raised) in enumerate(self.spans):
            self_s[names[idx]] += t1 - t0 - child[sid]
        return {
            "calls": dict(calls),
            "total_s": dict(total),
            "self_s": dict(self_s),
            "errors": dict(errors),
            "spans": len(self.spans),
            "soluble": self.soluble,
            "search_hits": self.search_hits,
            "selmer_tested": self.selmer_tested,
            "selmer_kept": self.selmer_kept,
            "factorize_distinct": len(self.factorize_args),
        }

    def write_spans(self, path) -> None:
        """One tab-separated line per span: id parent item name start end raised."""
        with gzip.open(path, "wt") as fh:
            fh.write("id\tparent\titem\tname\tstart\tend\traised\n")
            for sid, (idx, parent, item, t0, t1, raised) in enumerate(self.spans):
                fh.write(f"{sid}\t{parent}\t{item}\t{self.names[idx]}\t{t0:.9f}\t{t1:.9f}\t{raised}\n")
