"""Spans around the public functions and methods of each orecert layer,
installed from outside the program.

``cli.py`` and ``certificates.py`` import names directly
(``from .ore import search_common_multiple``), so a function is wrapped in
every ``orecert`` module that binds it: the wrapper sits where the callers
look the name up.  Methods are wrapped on their class.

A span records its name, its parent span, its start and end, and one
number taken from the result (pool size, DFS nodes, ...).  Spans stay in
compact arrays until the run ends; ``layer_metrics`` then turns the spans
of one round into the per-layer metrics.  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import statistics
import sys
from array import array
from time import perf_counter


def _len(result):
    return len(result)


def _nodes(result):
    return getattr(result, "nodes", 0)  # only an Exhausted outcome counts nodes


def _steps(result):
    return len(result.steps)


def _size(result):
    return result.size


def _set_size(result):
    return len(result[0])


def _bytes(result):
    return len(result.encode())


# (span name, module, function names, measure of the result)
FUNCTIONS = [
    ("words.parse", "orecert.words", ("parse_word",), None),
    ("ore.pool", "orecert.ore", ("enumerate_pool",), _len),
    ("ore.search", "orecert.ore", ("search_common_multiple", "search_signed"), _nodes),
    ("ore.verify_solution", "orecert.ore", ("verify_solution",), None),
    ("ore.relations", "orecert.ore",
     ("build_relation_graph", "extract_cycles", "relation_to_solution"), None),
    ("semiring.mul", "orecert.semiring", ("sr_mul",), None),
    ("trace.alt_trace", "orecert.groups.trace", ("alt_trace",), _steps),
    ("trace.verify_trace", "orecert.groups.trace", ("verify_trace",), None),
    ("folner.ratios", "orecert.folner", ("folner_ratios",), _size),
    ("folner.greedy", "orecert.folner", ("greedy_folner_search",), _set_size),
    ("certificates.dumps", "orecert.certificates", ("dumps",), _bytes),
    ("certificates.verify", "orecert.certificates", ("verify_certificate",), None),
    ("cli.main", "orecert.cli", ("main",), None),
]

# (layer, module, class, {span suffix: method names})
METHODS = [
    ("abelian", "orecert.groups.abelian", "ZmBackend", {}),
    ("metabelian", "orecert.groups.metabelian", "MbBackend",
     {"from_str": ("element_from_str",)}),
    ("thompson.f", "orecert.groups.thompson", "FBackend",
     {"from_str": ("element_from_str",)}),
    ("thompson.posmon", "orecert.groups.thompson", "PosMonoidBackend", {}),
]
BACKEND_METHODS = {"multiply": ("multiply",), "key": ("canonical_key", "canonical_str")}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._stack = [-1]
        self._originals: list = []  # (owner, attribute, original)

    def _span_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name, fn, measure):
        kind_id = self._span_id(name)
        kind, parent, start, end, value = self.kind, self.parent, self.start, self.end, self.value
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(kind)
            kind.append(kind_id)
            parent.append(stack[-1])
            end.append(0.0)
            value.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if measure is not None:
                value[idx] = measure(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer entry point of the imported orecert modules."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("orecert")]
        for name, module_name, functions, measure in FUNCTIONS:
            home = sys.modules[module_name]
            for fname in functions:
                original = getattr(home, fname)
                wrapper = self._wrap(name, original, measure)
                for module in modules:
                    for attr, val in list(vars(module).items()):
                        if val is original:
                            self._originals.append((module, attr, val))
                            setattr(module, attr, wrapper)
        for layer, module_name, cls_name, extra in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            for suffix, methods in {**BACKEND_METHODS, **extra}.items():
                for meth in methods:
                    original = cls.__dict__[meth]
                    self._originals.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(f"{layer}.{suffix}", original, None))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def mark(self) -> int:
        return len(self.kind)

    def aggregate(self, lo: int, hi: int) -> dict:
        """Per span name: calls, self time, summed result values, plus the
        folner_ratios calls made by each greedy grower."""
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += self.end[i] - self.start[i]
        agg = {n: {"calls": 0, "self_s": 0.0, "value": 0.0, "valued_self_s": 0.0}
               for n in self.names}
        greedy_id = self._span_id("folner.greedy")
        ratios_id = self._span_id("folner.ratios")
        greedy_max_size: dict = {}
        greedy_ratio_calls = 0
        for i in range(lo, hi):
            rec = agg[self.names[self.kind[i]]]
            self_s = self.end[i] - self.start[i] - child[i - lo]
            rec["calls"] += 1
            rec["self_s"] += self_s
            rec["value"] += self.value[i]
            if self.value[i]:
                rec["valued_self_s"] += self_s
            p = self.parent[i]
            if self.kind[i] == ratios_id and p >= lo and self.kind[p] == greedy_id:
                greedy_ratio_calls += 1
                greedy_max_size[p] = max(greedy_max_size.get(p, 0), self.value[i])
        # the grower adds one element per step, so a set that reached size s
        # took s - 1 additions
        adds = sum(s - 1 for s in greedy_max_size.values())
        agg["folner.greedy"]["ratios_per_add"] = greedy_ratio_calls / adds if adds else 0.0
        return agg


def layer_metrics(agg: dict) -> dict:
    """Per-layer metrics of one traced round, as (value, unit) pairs."""
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    def calls(span):
        return agg[span]["calls"]

    def self_s(*spans):
        return sum(agg[s]["self_s"] for s in spans)

    put("words.parse_calls", calls("words.parse"), "count")
    put("words.parse_s", self_s("words.parse"), "s")
    for layer, _, _, extra in METHODS:
        put(f"{layer}.multiply_calls", calls(f"{layer}.multiply"), "count")
        put(f"{layer}.multiply_s", self_s(f"{layer}.multiply"), "s")
        put(f"{layer}.key_calls", calls(f"{layer}.key"), "count")
        put(f"{layer}.key_s", self_s(f"{layer}.key"), "s")
        if extra:
            put(f"{layer}.from_str_s", self_s(f"{layer}.from_str"), "s")
    put("trace.alt_trace_s", self_s("trace.alt_trace"), "s")
    put("trace.verify_trace_s", self_s("trace.verify_trace"), "s")
    put("trace.steps", int(agg["trace.alt_trace"]["value"]), "count")
    put("semiring.mul_calls", calls("semiring.mul"), "count")
    put("semiring.mul_s", self_s("semiring.mul"), "s")
    search = agg["ore.search"]
    put("ore.pool_s", self_s("ore.pool"), "s")
    put("ore.pool_size", int(agg["ore.pool"]["value"]), "count")
    put("ore.search_s", self_s("ore.search"), "s")
    put("ore.dfs_nodes", int(search["value"]), "count")
    put("ore.nodes_per_s",
        search["value"] / search["valued_self_s"] if search["valued_self_s"] else 0.0, "1/s")
    put("ore.verify_solution_s", self_s("ore.verify_solution"), "s")
    put("ore.relations_s", self_s("ore.relations"), "s")
    put("folner.ratios_calls", calls("folner.ratios"), "count")
    put("folner.ratios_s", self_s("folner.ratios"), "s")
    put("folner.greedy_s", self_s("folner.greedy"), "s")
    put("folner.set_size", int(agg["folner.greedy"]["value"]), "count")
    put("folner.ratios_per_add", agg["folner.greedy"]["ratios_per_add"], "calls/add")
    put("certificates.dumps_bytes", int(agg["certificates.dumps"]["value"]), "bytes")
    put("certificates.dumps_s", self_s("certificates.dumps"), "s")
    put("certificates.verify_s", self_s("certificates.verify"), "s")
    put("cli.calls", calls("cli.main"), "count")
    put("cli.self_s", self_s("cli.main"), "s")
    return out


def combine_rounds(rounds: list) -> tuple[dict, list]:
    """Counts must repeat exactly from round to round; times and rates are
    reported as the median over the traced rounds.  Returns the metrics and
    the names of counts that differed."""
    first = rounds[0]
    unsteady = [n for n, (v, unit) in first.items()
                if unit in ("count", "bytes") and any(r[n][0] != v for r in rounds)]
    merged = {}
    for n, (v, unit) in first.items():
        if unit in ("count", "bytes"):
            merged[n] = (v, unit)
        else:
            merged[n] = (statistics.median(r[n][0] for r in rounds), unit)
    return merged, unsteady
