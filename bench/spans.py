"""Spans around the calls into partrec's public functions, and the per-layer
metrics derived from them.

`install` wraps each public name where its *caller* module binds it: the
modules import by name (`from .functions import gf_series`), so wrapping
only the defining module would miss every call made through another
module's binding.  Nothing inside the package is edited; an untraced
worker never calls `install`, so it runs with no wrappers at all.

A span is a plain dict: id, parent id, op id, name, start, end (both
`time.perf_counter()` seconds) and a few attributes.  Spans stay in memory
until the worker reports them; the runner writes them out at exit.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Callable, Iterable

# Span names, one per public function traced.
POCHHAMMER = "series.pochhammer_expand"
MUL = "series.mul"
INVERSE = "series.inverse"
THETA = "series.theta_series"
GF_SERIES = "functions.gf_series"
LEBESGUE = "functions.lebesgue_partial"
VERIFY = "recurrences.verify"
VERIFY_ALL = "recurrences.verify_all"
PARSE = "dsl.parse"
CHECK = "dsl.check"
MAIN = "cli.main"


def _nonzero_products(x: Iterable[int], y: Iterable[int]) -> int:
    """Exact count of pairs (i, j) with i + j <= N and x_i, y_j both nonzero,
    i.e. the nonzero coefficient products of a product truncated at N."""
    y_prefix = list(itertools.accumulate(1 if c else 0 for c in y))
    n = len(y_prefix) - 1
    return sum(y_prefix[n - i] for i, c in enumerate(x) if c and i <= n)


class Tracer:
    """Collects the spans of one op.  Safe to use from several threads."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             attrs: dict, post: Callable[[Any], dict] | None = None) -> Any:
        """Run fn inside a span; `post(result)` adds attributes afterwards."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            # A pool thread's first span belongs to the span the main thread
            # is blocked in (verify_all's thread pool).
            parent = self._main_stack[-1]
        else:
            parent = None
        span = {"id": next(self._ids), "parent": parent, "op": self.op_id, "name": name, **attrs}
        stack.append(span["id"])
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["start"], span["end"] = start, time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if post is not None:
            span.update(post(result))
        return result

    def wrap(self, name: str, fn: Callable, attrs: Callable[..., dict] | None = None) -> Callable:
        def traced(*args, **kwargs):
            extra = attrs(*args, **kwargs) if attrs else {}
            return self.call(name, fn, args, kwargs, extra)

        return traced


def install(tracer: Tracer) -> None:
    """Wrap partrec's public functions at every module binding that is called."""
    from partrec import cli, dsl, functions, recurrences
    from partrec.series import TruncatedSeries

    def rebind(modules, attr: str, name: str, attrs=None) -> None:
        for module in modules:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), attrs))

    rebind((functions, dsl), "pochhammer_expand", POCHHAMMER)
    rebind((dsl,), "theta_series", THETA)
    rebind((recurrences, dsl), "lebesgue_partial", LEBESGUE)
    for module in (functions, recurrences, dsl, cli):
        # functions' own binding is only called by function_value: a memo grow.
        site = {"site": module.__name__.rsplit(".", 1)[-1]}
        rebind((module,), "gf_series", GF_SERIES,
               lambda fid, order, _site=site: {"fid": fid.value, "order": order, **_site})
    rebind((recurrences, cli), "verify", VERIFY, lambda tid, *a, **k: {"tid": tid.value})
    rebind((recurrences, cli), "verify_all", VERIFY_ALL)
    rebind((dsl,), "parse", PARSE)
    rebind((dsl,), "check", CHECK)

    # Methods are looked up on the class, so operators and the calls made
    # inside pochhammer_expand and __pow__ all go through these.
    mul = TruncatedSeries.__mul__
    inverse = TruncatedSeries.inverse

    def traced_mul(self, other):
        if isinstance(other, int):
            mults = sum(1 for c in self.coeffs if c) if other else 0
        else:
            mults = _nonzero_products(self.coeffs, other.coeffs)
        return tracer.call(MUL, mul, (self, other), {}, {"mults": mults})

    def traced_inverse(self):
        # The recurrence multiplies each nonzero c_k (k >= 1) by the earlier
        # coefficients of the result; count the products where both are nonzero.
        tail = [0, *self.coeffs[1:]]
        return tracer.call(INVERSE, inverse, (self,), {}, {},
                           lambda result: {"mults": _nonzero_products(tail, result.coeffs)})

    TruncatedSeries.__mul__ = traced_mul
    TruncatedSeries.inverse = traced_inverse


# ---------------------------------------------------------------------------
# Deriving per-layer metrics


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict[str, Any]]) -> dict[tuple[int, int], float]:
    """(op, span id) -> duration minus the time its child spans cover."""
    children: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault((s["op"], s["parent"]), []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        key = (s["op"], s["id"])
        covered = _union_length(children.get(key, []), s["start"], s["end"])
        out[key] = (s["end"] - s["start"]) - covered
    return out


def layer_metrics(spans: list[dict[str, Any]], theorem_ids: list[str]) -> dict[str, float]:
    """Per-layer metrics of a set of ops, summed over the ops."""
    selfs = self_times(spans)
    by_name: dict[str, list[dict[str, Any]]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def named(name: str) -> list[dict[str, Any]]:
        return by_name.get(name, [])

    def dur(group) -> float:
        return sum((s["end"] - s["start"] for s in group), 0.0)

    def self_sum(group) -> float:
        return sum((selfs[(s["op"], s["id"])] for s in group), 0.0)

    gf = named(GF_SERIES)
    grows = [s for s in gf if s["site"] == "functions"]
    distinct_per_op = len({(s["op"], s["fid"], s["order"]) for s in gf})
    verifies = named(VERIFY)
    by_op_verify: dict[int, float] = {}
    for s in verifies:
        by_op_verify[s["op"]] = by_op_verify.get(s["op"], 0.0) + s["end"] - s["start"]
    verify_alls = named(VERIFY_ALL)
    all_span = dur(verify_alls)
    suite_span = sum(by_op_verify.get(s["op"], 0.0) for s in verify_alls)
    checks = named(CHECK)

    m: dict[str, float] = {
        "series.pochhammer_expand.calls": len(named(POCHHAMMER)),
        "series.pochhammer_expand.self_s": self_sum(named(POCHHAMMER)),
        "series.mul.calls": len(named(MUL)),
        "series.mul.s": dur(named(MUL)),
        "series.mul.mults": sum(s["mults"] for s in named(MUL)),
        "series.inverse.calls": len(named(INVERSE)),
        "series.inverse.s": dur(named(INVERSE)),
        "series.inverse.mults": sum(s["mults"] for s in named(INVERSE)),
        "series.theta_series.s": dur(named(THETA)),
        "functions.memo.grow_calls": len(grows),
        "functions.memo.grow_s": dur(grows),
        "functions.gf_series.calls": len(gf),
        "functions.gf_series.unique_ratio": distinct_per_op / len(gf) if gf else 0.0,
        "functions.lebesgue_partial.s": dur(named(LEBESGUE)),
        "recurrences.scan_s": self_sum(verifies),
    }
    for tid in theorem_ids:
        group = [s for s in verifies if s["tid"] == tid]
        m[f"recurrences.verify.{tid}.self_s"] = self_sum(group)
    m["recurrences.verify_all.concurrency"] = suite_span / all_span if all_span else 0.0
    m["dsl.parse.s"] = dur(named(PARSE))
    m["dsl.check.calls"] = len(checks)
    m["dsl.check.self_s"] = self_sum(checks)
    m["dsl.check.max_s"] = max((s["end"] - s["start"] for s in checks), default=0.0)
    m["cli.self_s"] = self_sum(named(MAIN))
    return m
