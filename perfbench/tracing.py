"""Spans and counters recorded around the package's public callables.

The tracer wraps callables from outside the package: every binding of a
traced function (its defining module, the package namespace, names imported
into ``udwrm.cli`` and any other ``udwrm`` module) is replaced by one
wrapper, and methods are wrapped on their class.  Spans stay in memory as
tuples and are written as JSON lines when the workload ends.  Hot scalar
callables get a call counter instead of a span, so that tracing does not
dominate what it measures.

Only the standard library is imported here, so the tracer can be loaded
before or after the package without changing its import time.
"""

from __future__ import annotations

import json
import sys
import time


def _points(args, kwargs, result):
    """Array elements evaluated: the size of the first array argument."""
    arg = args[1] if len(args) > 1 else next(iter(kwargs.values()), None)
    return {"points": int(getattr(arg, "size", 1))}


def _window_count(args, kwargs, result):
    intervals = args[1] if len(args) > 1 else kwargs["intervals"]
    return {"k": len(tuple(intervals))}


def _class_count(args, kwargs, result):
    return {"classes": len(result)}


# (span name, module, attribute path, attrs hook).  The hook receives
# (args, kwargs, result) and returns per-span quantities that are summed into
# the per-layer metrics.
SPAN_TARGETS = (
    ("cli.main", "udwrm.cli", "main", None),
    ("response.q_closed_accelerated", "udwrm.response", "q_closed_accelerated", None),
    ("response.q_direct", "udwrm.response", "q_direct", None),
    ("response.f_fraction", "udwrm.response", "ResponseModel.f_fraction", _window_count),
    ("response.correction_sums", "udwrm.response", "ResponseModel.correction_sums", None),
    ("strings.rm_string_prob", "udwrm.strings", "rm_string_prob", None),
    ("kernel.limit", "udwrm.kernel", "WightmanKernel.limit", _points),
    ("schedule.chi_window", "udwrm.schedule", "RepetitionSchedule.chi_window", _points),
    (
        "combinatorics.enumerate_contraction_classes",
        "udwrm.combinatorics",
        "enumerate_contraction_classes",
        _class_count,
    ),
    ("bounds.n_limit", "udwrm.bounds", "n_limit", None),
    ("bounds.loose_bounds", "udwrm.bounds", "loose_bounds", None),
    ("bounds.tight_bounds", "udwrm.bounds", "tight_bounds", None),
    ("bounds.GammaProfile.from_kernel", "udwrm.bounds", "GammaProfile.from_kernel", None),
    ("oracle.string_distribution", "udwrm.oracle", "string_distribution", None),
    ("oracle.exact_string_prob", "udwrm.oracle", "exact_string_prob", None),
    ("oracle.step_unitary", "udwrm.oracle", "FiniteRmModel.step_unitary", None),
    ("oracle.propagator_consistency", "udwrm.oracle", "propagator_consistency", None),
    ("bayes.update_posterior", "udwrm.bayes", "update_posterior", None),
)

# Called thousands of times per quadrature: counted, not spanned.
COUNTER_TARGETS = (("kernel.value", "udwrm.kernel", "WightmanKernel.value"),)


class Tracer:
    """In-memory span recorder for one workload repetition."""

    def __init__(self, trace_id: str, clock=time.perf_counter) -> None:
        self.trace_id = trace_id
        self.clock = clock
        # (span id, parent id or None, name, start, end, attrs)
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    def span(self, name: str, fn, attrs_hook=None):
        """Wrap ``fn`` so that every call records one span."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                attrs = attrs_hook(args, kwargs, result) if attrs_hook and done else None
                spans.append((sid, parent, name, start, end, attrs))

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        """Wrap ``fn`` so that every call bumps a counter."""
        counters = self.counters
        counters.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target; a target the package no longer has is listed
        in ``missing`` and its metrics read zero."""
        for name, module, path, hook in SPAN_TARGETS:
            self._patch(name, module, path, lambda fn, n=name, h=hook: self.span(n, fn, h))
        for name, module, path in COUNTER_TARGETS:
            self._patch(name, module, path, lambda fn, n=name: self.counter(n, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, name: str, module: str, path: str, make) -> None:
        mod = sys.modules.get(module)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        if owner is None or attr not in vars(owner):
            self.missing.append(name)
            return
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(make(original.__func__))
        else:
            wrapped = make(original)
        self._set(owner, attr, original, wrapped)
        if owner_name:
            return
        # rebind the function wherever the package imported it by name
        for other_name, other in list(sys.modules.items()):
            if other is mod or not (other_name == "udwrm" or other_name.startswith("udwrm.")):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._set(other, key, original, wrapped)

    def _set(self, owner, attr, original, wrapped) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end, attrs in self.spans:
                row = {
                    "trace": self.trace_id,
                    "id": sid,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                }
                if attrs:
                    row["attrs"] = attrs
                fh.write(json.dumps(row) + "\n")
            fh.write(json.dumps({"trace": self.trace_id, "counters": self.counters}) + "\n")


def read_jsonl(path: str) -> tuple[list[dict], dict[str, int]]:
    spans, counters = [], {}
    with open(path) as fh:
        for line in fh:
            row = json.loads(line)
            if "counters" in row:
                counters.update(row["counters"])
            else:
                spans.append(row)
    return spans, counters


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        clipped = [
            (max(a, s["start"]), min(b, s["end"]))
            for a, b in children.get(s["id"], ())
            if b > s["start"] and a < s["end"]
        ]
        out[s["id"]] = (s["end"] - s["start"]) - _union_length(clipped)
    return out


def covered_time(spans: list[dict]) -> float:
    """Wall time inside at least one top-level span."""
    return _union_length([(s["start"], s["end"]) for s in spans if s["parent"] is None])


def layer_metrics(spans: list[dict], counters: dict[str, int]) -> dict[str, float]:
    """Per-layer sums keyed ``<module>.<callable>.<quantity>``.

    Every span name gets ``self_s`` and ``calls``; span attributes are
    summed under their own quantity name.  ``response.f_fraction`` is also
    split by window count, and a call counts as a cache miss when it made
    any traced call below it (a cache hit returns without one).
    """
    selfs = self_times(spans)
    parents = {s["parent"] for s in spans if s["parent"] is not None}
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0) + value

    for s in spans:
        name = s["name"]
        add(f"{name}.self_s", selfs[s["id"]])
        add(f"{name}.calls", 1)
        attrs = s.get("attrs") or {}
        for key, value in attrs.items():
            if key != "k":
                add(f"{name}.{key}", value)
        if name == "response.f_fraction":
            if "k" in attrs:
                add(f"{name}.k{attrs['k']}.self_s", selfs[s["id"]])
            add(f"{name}.misses", 1 if s["id"] in parents else 0)
    calls = out.get("response.f_fraction.calls", 0)
    if calls:
        out["response.f_fraction.hit_ratio"] = 1.0 - out["response.f_fraction.misses"] / calls
    for name, count in counters.items():
        out[f"{name}.calls"] = count
    return out
