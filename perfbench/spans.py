"""Call counting and span tracing around public sktspec functions.

Nothing inside the package is edited: each function is replaced, for the
duration of a measurement, at the module attribute (or class attribute) that
its caller looks up, and put back afterwards.  A `Tracer` built with
``spans=False`` only counts `RhsAssembler.rhs_flat` calls, which is cheap
enough for the untraced end-to-end passes.  With ``spans=True`` every wrapped
call records a span: name, parent span on the same thread, thread, wall start
and end (`time.perf_counter`) and thread CPU start and end
(`time.thread_time`).  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

import numpy as np

_TINY = np.finfo(float).tiny

# (module, attribute, span name).  A function imported into several modules
# is wrapped at each of them, because each caller looks it up in its own
# module namespace.  A site that no longer exists is skipped, so a refactor
# of the package leaves the benchmark running with one span fewer.
_FUNCTION_SITES = [
    ("sktspec.cli", "main", "cli.main"),
    ("sktspec.cli", "run", "integrate.run"),
    ("sktspec.integrate", "run", "integrate.run"),
    ("sktspec.integrate", "diagnostics", "integrate.diagnostics"),
    ("sktspec.cli", "save_run", "integrate.save_run"),
    ("sktspec.integrate", "save_run", "integrate.save_run"),
    ("sktspec.galerkin", "cached_tensors", "spectral.cached_tensors"),
    ("sktspec.cli", "synthesize", "spectral.synthesize"),
    ("sktspec.galerkin", "synthesize", "spectral.synthesize"),
    ("sktspec.integrate", "synthesize", "spectral.synthesize"),
    ("sktspec.integrate", "project_initial", "galerkin.project_initial"),
    ("sktspec.galerkin", "project_initial", "galerkin.project_initial"),
    ("sktspec.cli", "find_certificate", "lyapunov.find_certificate"),
    ("sktspec.integrate", "find_certificate", "lyapunov.find_certificate"),
    ("sktspec.lyapunov", "find_certificate", "lyapunov.find_certificate"),
    ("sktspec.cli", "check_reaction_sign", "lyapunov.check_reaction_sign"),
    ("sktspec.lyapunov", "check_reaction_sign", "lyapunov.check_reaction_sign"),
    ("sktspec.integrate", "eval_L", "lyapunov.eval_L"),
    ("sktspec.cli", "check_conditions", "model.check_conditions"),
    ("sktspec.integrate", "check_conditions", "model.check_conditions"),
    ("sktspec.model", "check_conditions", "model.check_conditions"),
]

RHS_SPAN = "galerkin.rhs_flat"
PASS_SPAN = "bench.pass"


class Span:
    __slots__ = ("sid", "parent", "name", "thread", "t0", "t1", "c0", "c1")

    def __init__(self, sid, parent, name, thread, t0, t1, c0, c1):
        self.sid, self.parent, self.name, self.thread = sid, parent, name, thread
        self.t0, self.t1, self.c0, self.c1 = t0, t1, c0, c1

    @property
    def wall(self) -> float:
        return self.t1 - self.t0

    @property
    def cpu(self) -> float:
        return self.c1 - self.c0

    def to_list(self) -> list:
        return [self.sid, self.parent, self.name, self.thread, self.t0, self.t1, self.c0, self.c1]


class Tracer:
    """Installs wrappers; counts rhs calls and, with spans=True, records spans.

    Wrappers do nothing but call through while `enabled` is false, so set-up
    and correctness checks outside a measured pass are neither counted nor
    traced.
    """

    def __init__(self, spans: bool):
        self.record_spans = spans
        self.enabled = False
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self.reset_counts()
        self._local = threading.local()
        self._undo = []

    # Counts are list lengths: list.append is atomic under the interpreter
    # lock, so pool threads count without a lock (a threading.Lock here
    # convoys the two sweep threads and doubles the sweep's wall time).

    def reset_counts(self) -> None:
        self._rhs_calls = []
        self._subnormal_calls = []

    @property
    def rhs_calls(self) -> int:
        return len(self._rhs_calls)

    @property
    def subnormal_calls(self) -> int:
        return len(self._subnormal_calls)

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        import importlib

        from sktspec.galerkin import RhsAssembler

        if self.record_spans:
            for module_name, attr, name in _FUNCTION_SITES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if callable(original):
                    self._replace(module, attr, original, self._span_wrapper(name, original))
            original = RhsAssembler.__dict__.get("for_order")
            if isinstance(original, classmethod):
                wrapped = self._span_wrapper("galerkin.for_order", original.__func__)
                self._replace(RhsAssembler, "for_order", original, classmethod(wrapped))
        original = RhsAssembler.__dict__["rhs_flat"]
        self._replace(RhsAssembler, "rhs_flat", original, self._rhs_wrapper(original))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _replace(self, owner, attr, original, wrapper) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- recording --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named name (when enabled and recording)."""
        if not (self.enabled and self.record_spans):
            return fn(*args, **kwargs)
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            c1 = time.thread_time()
            stack.pop()
            self.spans.append(Span(sid, parent, name, threading.get_ident(), t0, t1, c0, c1))

    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def _rhs_wrapper(self, fn):
        def counted(assembler, y):
            self._rhs_calls.append(None)
            return fn(assembler, y)

        def traced(assembler, y):
            a = np.abs(y)
            if np.any((a < _TINY) & (a > 0.0)):
                self._subnormal_calls.append(None)
            return counted(assembler, y)

        @functools.wraps(fn)
        def wrapper(assembler, y):
            if not self.enabled:
                return fn(assembler, y)
            if self.record_spans:
                return self.span(RHS_SPAN, traced, assembler, y)
            return counted(assembler, y)
        return wrapper


# -- analysis ---------------------------------------------------------------


def layer_table(spans: list[Span]) -> dict:
    """Per span name: calls, total and self wall time, self CPU time, durations.

    Self time is a span's duration minus the durations of its children; a
    child is a span whose parent link points at it, which is always a span on
    the same thread, so children never overlap and their sum is the time they
    cover.
    """
    child_wall = defaultdict(float)
    child_cpu = defaultdict(float)
    for s in spans:
        if s.parent:
            child_wall[s.parent] += s.wall
            child_cpu[s.parent] += s.cpu
    table = {}
    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                        "self_cpu_s": 0.0, "durations": []})
        row["calls"] += 1
        row["total_s"] += s.wall
        row["self_s"] += s.wall - child_wall[s.sid]
        row["self_cpu_s"] += s.cpu - child_cpu[s.sid]
        row["durations"].append(s.wall)
    return table


def thread_accounting(spans: list[Span]) -> list[dict]:
    """Per thread: summed root-span time and summed self time of all spans.

    The two agree when self times add up without gaps or double counting.
    """
    roots = defaultdict(float)
    selfs = defaultdict(float)
    child_wall = defaultdict(float)
    for s in spans:
        if s.parent:
            child_wall[s.parent] += s.wall
        else:
            roots[s.thread] += s.wall
    for s in spans:
        selfs[s.thread] += s.wall - child_wall[s.sid]
    return [{"thread": t, "root_s": roots[t], "self_sum_s": selfs[t]} for t in roots]
