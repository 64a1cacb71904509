"""Spans and counters recorded from outside the program.

The tracer wraps the public functions of each ``tqdha`` layer.  A function
is replaced in every ``tqdha`` module that bound it, because
``from .pbw import check_pbw_conditions`` copies the name: patching
``tqdha.pbw`` alone would miss the calls made from ``tqdha.cohomology``.
``restore`` puts every original back.

Spans are kept in memory as ``[name, start, end, parent]`` and written out
once, at the end of the run.  A span's self time is its duration minus the
durations of its direct children; the process is single-threaded, so
children never overlap and the self times of a tree sum to its root's
duration.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _binding_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "tqdha" or name.startswith("tqdha."))]


class Patcher:
    """Replaces functions everywhere they are bound and puts them back."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper):
        """Replace ``owner.attr`` (a module function or a class attribute)
        by ``make_wrapper(original)``, in every tqdha module that bound it."""
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            for name, value in list(vars(owner).items()):
                if value is original:
                    self._set(owner, name, wrapper)
            return
        for mod in _binding_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper)

    def _set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class Tracer:
    """In-memory span tree plus named counters."""

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = self.clock()
        try:
            yield rec
        finally:
            rec[2] = self.clock()
            self._stack.pop()

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span; ``after(counters, result, args, kwargs)``
        updates counters.  ``name`` may be a callable of ``(args, kwargs)``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with tracer.span(label):
                result = fn(*args, **kwargs)
            if after is not None:
                after(tracer.counters, result, args, kwargs)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[k]
        return dict(out)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, f)


def count_scalar_ops(patcher: Patcher, scalar_cls, counts: Counter):
    """Count ``CyclotomicScalar`` products, sums and inversions, keyed by the
    operand orders: ``counts[("mul", a, b)]``.  Integers count as order 1.
    Subtraction is a sum in this class, and division an inverse and a
    product."""

    def counting(op):
        def make(original):
            def wrapper(self, other):
                counts[(op, self.order, other.order if type(other) is scalar_cls else 1)] += 1
                return original(self, other)
            return wrapper
        return make

    def make_inverse(original):
        def wrapper(self):
            counts[("inverse", self.order, self.order)] += 1
            return original(self)
        return wrapper

    patcher.replace(scalar_cls, "__mul__", counting("mul"))
    patcher.replace(scalar_cls, "__add__", counting("add"))
    patcher.replace(scalar_cls, "inverse", make_inverse)


def scalar_metrics(counts: Counter) -> dict[str, int]:
    """Operation counts per field order from ``count_scalar_ops``.

    ``order1`` is an operation on two rationals and ``cyclo`` one with an
    operand in a proper cyclotomic field.  ``mixed_order`` counts the
    operations that take the common-field path (``_dense_at`` at the lcm):
    sums of different orders, and products of two different non-rational
    orders.
    """
    out = {"scalars.mul.order1": 0, "scalars.mul.cyclo": 0, "scalars.add.order1": 0,
           "scalars.add.cyclo": 0, "scalars.mixed_order": 0, "scalars.inverse": 0,
           "scalars.max_order": 1}
    for (op, a, b), n in counts.items():
        out["scalars.max_order"] = max(out["scalars.max_order"], a, b)
        if op == "inverse":
            out["scalars.inverse"] += n
            continue
        out[f"scalars.{op}.{'order1' if a == b == 1 else 'cyclo'}"] += n
        if a != b and (op == "add" or min(a, b) > 1):
            out["scalars.mixed_order"] += n
    return out
