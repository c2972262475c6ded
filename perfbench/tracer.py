"""Span recording around trilink's public functions, from outside the package.

`Tracer.install()` wraps every public function of the library modules,
plus `trilink.cli.main`, and puts each wrapper into every `trilink.*`
namespace that bound the original (seifert, for instance, imports
`bilinear`, `det`, `mat_mul` and `invariant_factors` by name), so no call
escapes the count.  A span is (name, start, end, parent, request id),
kept in flat arrays in memory and written out by `dump()`.  Self time is
a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

LIBRARY = ("words", "magnus", "nilpotent", "seifert", "infection", "realization", "intlinalg")


def _letters_parsed(c, args, result):
    c["words.letters_parsed"] += len(result)


def _phi_work(c, args, result):
    c["magnus.letters_expanded"] += len(args[0])
    c["magnus.terms_out"] += len(result.terms)


def _lattices(c, args, result):
    c["seifert.lattices_found"] += len(result)


# work counters read off a wrapped call's arguments and result
COUNTERS = {
    "words.parse_word": _letters_parsed,
    "magnus.phi": _phi_work,
    "seifert.enumerate_metabolizers": _lattices,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_col = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.req = array("i")
        self.stack: list[int] = []
        self.request = -1
        self.counters: dict[str, int] = defaultdict(int)

    def install(self) -> None:
        namespaces = [m for n, m in sys.modules.items() if n == "trilink" or n.startswith("trilink.")]
        targets = []
        for short in LIBRARY:
            module = sys.modules[f"trilink.{short}"]
            targets += [(f"{short}.{name}", fn) for name, fn in vars(module).items()
                        if not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__]
        targets.append(("cli.main", sys.modules["trilink.cli"].main))
        for qual, fn in targets:
            wrapper = self._wrap(qual, fn)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, attr, wrapper)

    def _wrap(self, qual, fn):
        nid = len(self.names)
        self.names.append(qual)
        count = COUNTERS.get(qual)
        name_col, start, end, parent, req, stack = (
            self.name_col, self.start, self.end, self.parent, self.req, self.stack)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_col.append(nid)
            parent.append(stack[-1] if stack else -1)
            req.append(self.request)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if count is not None:
                count(self.counters, args, result)
            return result

        return wrapper

    def summary(self) -> dict:
        """Calls and self seconds per function, plus derived per-layer figures."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i in range(n):
            name = self.names[self.name_col[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i]
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out.update(self.counters)

        enum_id = self.names.index("seifert.enumerate_metabolizers")
        snf_id = self.names.index("intlinalg.snf")
        snf_in_search = 0
        for i in range(n):
            if self.name_col[i] == snf_id:
                p = self.parent[i]
                while p >= 0 and self.name_col[p] != enum_id:
                    p = self.parent[p]
                snf_in_search += p >= 0
        found = self.counters["seifert.lattices_found"]
        out["seifert.lattices_per_snf"] = found / snf_in_search if snf_in_search else 0.0
        mains = calls["cli.main"]
        # only cli.main is wrapped in cli, so its self time is everything in
        # the cli module: argument parsing, handlers, JSON in and out
        out["cli.self_ms"] = 1000 * self_s["cli.main"] / mains if mains else 0.0
        out["trace.spans"] = n
        return out

    def dump(self, path, meta: dict) -> None:
        """Write every span (times in microseconds from the first span)."""
        t0 = self.start[0] if len(self.start) else 0.0
        spans = {
            "name": list(self.name_col),
            "start_us": [round((t - t0) * 1e6, 1) for t in self.start],
            "end_us": [round((t - t0) * 1e6, 1) for t in self.end],
            "parent": list(self.parent),
            "request": list(self.req),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump({**meta, "names": self.names, "spans": spans}, fh, separators=(",", ":"))
