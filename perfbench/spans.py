"""Spans and counters for the traced run of the benchmark.

Nothing in the library is edited.  ``Tracer.install`` rebinds the public
kernel names in every ``depthtwo`` module that imported them, and the
arithmetic methods of the two scalar types, to timing wrappers;
``Tracer.restore`` puts every original object back.  Stage spans come from
``Tracer.stage`` around the benchmark's own calls.  Each span records the
stage it ran under; a span's self time is its duration minus the time of
the kernel spans nested in it.  Scalar operations are counted per field;
one in SCALAR_SAMPLE of them is timed and the sum scaled up, which keeps the
traced run under three times the untraced one.  Scalar time is not
subtracted from any span.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from fractions import Fraction

# public kernel functions, by defining module
KERNEL_FUNCTIONS = {
    "linalg": ("rref", "nullspace", "solve_in_span"),
    "bimodules": ("hom_space", "coproduct_summand_test"),
}
# (module, class, attribute, span name)
KERNEL_METHODS = (
    ("linalg", "Matrix", "__matmul__", "linalg.Matrix.matmul"),
    ("linalg", "Quotient", "induced", "linalg.Quotient.induced"),
)
SCALAR_BINARY = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__eq__")
SCALAR_UNARY = ("__neg__", "__bool__")
SCALAR_SAMPLE = 16  # a power of two


def _timed_binary(fn, acc):
    clock = time.perf_counter
    skip = SCALAR_SAMPLE - 1

    def op(a, b):
        acc[1] += 1
        if acc[1] & skip:
            return fn(a, b)
        t = clock()
        r = fn(a, b)
        acc[0] += clock() - t
        return r
    return op


def _timed_unary(fn, acc):
    clock = time.perf_counter
    skip = SCALAR_SAMPLE - 1

    def op(a):
        acc[1] += 1
        if acc[1] & skip:
            return fn(a)
        t = clock()
        r = fn(a)
        acc[0] += clock() - t
        return r
    return op


class Tracer:
    """Per-run record of spans, kernel counters and scalar-operation time."""

    def __init__(self):
        self.spans: dict[tuple[str, str], list] = {}  # (name, stage) -> [calls, s, self_s]
        self.stage_name = "-"
        self._stack: list[list[float]] = []  # [start, time of nested spans]
        # field -> [seconds of the timed sample, operations]
        self.scalar = {"Q": [0.0, 0], "Fp": [0.0, 0]}
        self.rref_cells = 0
        self.hom_unknowns_max = 0
        self.solve_repeats = 0
        self._seen_ids: dict[tuple, list] = {}
        self._seen_values: set = set()
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _close(self, name: str, frame: list[float]) -> None:
        dur = time.perf_counter() - frame[0]
        if self._stack:
            self._stack[-1][1] += dur
        rec = self.spans.setdefault((name, self.stage_name), [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame[1]

    @contextmanager
    def stage(self, name: str):
        self.stage_name = name
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            self._close(name, frame)
            self.stage_name = "-"

    def _span(self, name: str, fn, note=None):
        stack = self._stack

        def wrapper(*args, **kwargs):
            if note is not None:
                note(*args, **kwargs)
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                self._close(name, frame)
        wrapper.__wrapped__ = fn
        return wrapper

    def new_operation(self) -> None:
        """Repeated solves are counted within one operation (one extension)."""
        self._seen_ids.clear()
        self._seen_values.clear()

    # -- counters ----------------------------------------------------------

    def _note_rref(self, rows, field, ncols):
        self.rref_cells += len(rows) * ncols

    def _note_hom_space(self, M, N):
        self.hom_unknowns_max = max(self.hom_unknowns_max, M.dim * N.dim)

    def _note_solve(self, target, generators, field):
        ids = tuple(map(id, generators))
        if ids in self._seen_ids:
            self.solve_repeats += 1
            return
        # the stored lists keep their ids from being reused within the operation
        self._seen_ids[ids] = generators
        key = tuple(map(tuple, generators))
        if key in self._seen_values:
            self.solve_repeats += 1
        else:
            self._seen_values.add(key)

    # -- installation ------------------------------------------------------

    def _rebind(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Rebind every kernel name and scalar operation; call restore() after."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        notes = {"rref": self._note_rref, "hom_space": self._note_hom_space,
                 "solve_in_span": self._note_solve}
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "depthtwo" or name.startswith("depthtwo.")]
        for home, names in KERNEL_FUNCTIONS.items():
            defining = sys.modules[f"depthtwo.{home}"]
            for name in names:
                original = vars(defining)[name]
                wrapper = self._span(f"{home}.{name}", original, notes.get(name))
                for module in modules:
                    if vars(module).get(name) is original:
                        self._rebind(module, name, wrapper)
        for home, cls_name, attr, span in KERNEL_METHODS:
            cls = getattr(sys.modules[f"depthtwo.{home}"], cls_name)
            self._rebind(cls, attr, self._span(span, vars(cls)[attr]))
        fp_element = sys.modules["depthtwo.fields"].FpElement
        for cls, acc in ((Fraction, self.scalar["Q"]), (fp_element, self.scalar["Fp"])):
            for attr in SCALAR_BINARY:
                self._rebind(cls, attr, _timed_binary(vars(cls)[attr], acc))
            for attr in SCALAR_UNARY:
                self._rebind(cls, attr, _timed_unary(vars(cls)[attr], acc))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- report --------------------------------------------------------------

    def totals(self, name: str) -> tuple[int, float, float]:
        """(calls, inclusive s, self s) of a span summed over the stages it ran under."""
        calls = incl = own = 0
        for (span, _), (c, s, self_s) in self.spans.items():
            if span == name:
                calls += c
                incl += s
                own += self_s
        return calls, incl, own

    def scalar_totals(self) -> dict[str, tuple[float, int]]:
        """Per field: (estimated seconds in scalar operations, operations)."""
        return {field: (sampled * SCALAR_SAMPLE, ops)
                for field, (sampled, ops) in self.scalar.items()}

    def table(self) -> list[str]:
        """One line per (span, stage) pair, slowest first."""
        rows = sorted(self.spans.items(), key=lambda kv: -kv[1][1])
        return [f"span {name:34s} stage {stage:34s} calls {c:8d} "
                f"incl {s:9.4f} s self {own:9.4f} s"
                for (name, stage), (c, s, own) in rows]
