"""Spans around the calls into cubecolor's modules, recorded from outside.

Nothing under ``src/`` is edited.  While a ``Tracer.patched`` block runs,
every public function of the six package modules (and a few methods) is
replaced by a wrapper that records a span: name, start, end, parent span
and the operation it belongs to.  Functions are patched in every module
that holds them, because ``nervecontract`` imports ``fill``, ``boundary``
and friends by name and ``search`` imports ``components`` by name:
patching only ``chains.fill`` would miss the calls made through
``nervecontract.fill``.

Spans stay in memory; ``write`` dumps them once, at the end of a run.
"""

from __future__ import annotations

import json
import types
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

MODULES = ("cli", "nervecontract", "chains", "gridcolor", "search", "bounds")

# (module, class, method): methods that get spans like public functions.
SPANNED_METHODS = (
    ("nervecontract", "ShiftedPartition", "max_multiplicity"),
    ("nervecontract", "ShiftedPartition", "verify"),
    ("nervecontract", "AuditReport", "to_json"),
    ("chains", "RectChain", "make"),
)

# Hot methods that are only counted: a span per call would cost more than
# the call itself.
COUNTED_METHODS = (("chains", "BoxCell", "intersect"),)

# Spans whose returned objects are kept until the operation ends, so the
# size counts can be read from them afterwards.
OBSERVED = (
    "nervecontract.build_shifted_partition",
    "nervecontract.mono_parts",
    "nervecontract.nerve",
    "nervecontract.face_chain",
    "chains.fill",
)


class Tracer:
    """In-memory span store.  A span is ``[name_id, start, end, parent,
    op]``; ``parent`` is the index of the enclosing span or -1, ``op`` is
    the operation index given to ``patched``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.observed: dict[int, list[tuple[str, object]]] = defaultdict(list)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name: str, fn):
        nid = self._name_id(name)
        spans, stack = self.spans, self._stack
        keep = name in OBSERVED

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [nid, perf_counter(), 0.0, stack[-1] if stack else -1, self._op]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if keep:
                self.observed[self._op].append((name, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[self._op][name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def patched(self, lib, op: int):
        """Install the wrappers on the modules of ``lib`` (a namespace with
        one attribute per package module) for the duration of one
        operation, then restore every original."""
        self._op = op
        undo = []
        mods = [getattr(lib, m) for m in MODULES] + [lib.package]

        for short in MODULES:
            mod = getattr(lib, short)
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(fn, types.FunctionType)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                wrapper = self._span(f"{short}.{attr}", fn)
                for holder in mods:  # patch the name wherever it is looked up
                    for hname, value in list(vars(holder).items()):
                        if value is fn:
                            undo.append((holder, hname, value))
                            setattr(holder, hname, wrapper)

        for table, make in ((SPANNED_METHODS, self._span), (COUNTED_METHODS, self._counter)):
            for short, cls_name, meth in table:
                cls = getattr(getattr(lib, short), cls_name)
                raw = cls.__dict__[meth]
                name = f"{short}.{cls_name}.{meth}"
                if isinstance(raw, staticmethod):
                    new = staticmethod(make(name, raw.__func__))
                else:
                    new = make(name, raw)
                undo.append((cls, meth, raw))
                setattr(cls, meth, new)
        try:
            yield
        finally:
            for holder, attr, value in reversed(undo):
                setattr(holder, attr, value)
            self._op = -1

    def write(self, path) -> None:
        """Dump every span once, at the end of the run."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op"], "names": self.names,
                 "spans": self.spans},
                fh,
            )


def _max_denominator(chain) -> int:
    return max(
        (v.denominator for b in chain.terms for ext in b.extents for v in ext),
        default=1,
    )


def size_counts(observed: list[tuple[str, object]]) -> dict[str, int]:
    """Sizes read from the objects the observed calls returned."""
    out: Counter = Counter()
    max_den = 0
    for name, result in observed:
        if name == "nervecontract.build_shifted_partition":
            out["partition.cells"] += len(result.cells)
            max_den = max(
                [max_den]
                + [v.denominator for pc in result.cells for ext in pc.box.extents for v in ext]
            )
        elif name == "nervecontract.mono_parts":
            out["parts"] += len(result)
        elif name == "nervecontract.nerve":
            for k in range(4):
                out[f"nerve.simplices.k{k}"] += len(result.simplices.get(k, ()))
        else:  # face_chain and fill return chains
            max_den = max(max_den, _max_denominator(result))
    out["chains.max_denominator"] = max_den
    return dict(out)


def op_times(tracer: Tracer) -> dict[int, dict]:
    """Per operation: inclusive seconds, self seconds and calls per span
    name.  Self time is a span's duration minus its children's durations."""
    child = [0.0] * len(tracer.spans)
    for nid, start, end, parent, op in tracer.spans:
        if parent >= 0:
            child[parent] += end - start
    per_op: dict[int, dict] = defaultdict(lambda: {"s": Counter(), "self_s": Counter(),
                                                   "calls": Counter()})
    for idx, (nid, start, end, parent, op) in enumerate(tracer.spans):
        name = tracer.names[nid]
        rec = per_op[op]
        rec["s"][name] += end - start if _outermost(tracer, idx, nid) else 0.0
        rec["self_s"][name] += end - start - child[idx]
        rec["calls"][name] += 1
    return per_op


def _outermost(tracer: Tracer, idx: int, nid: int) -> bool:
    """True unless an enclosing span has the same name (recursion), so
    inclusive time is not counted twice."""
    parent = tracer.spans[idx][3]
    while parent >= 0:
        if tracer.spans[parent][0] == nid:
            return False
        parent = tracer.spans[parent][3]
    return True
