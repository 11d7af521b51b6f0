"""Per-layer tracing of liesym from outside the package.

The tracer wraps public functions of each layer under every name their
callers use (``catalog.zero_report_at`` and ``expr.zero_report_at`` are the
same function bound twice), times each call as a span, and folds recursive
calls into the outermost span.  Spans are kept in memory as per-name totals;
nothing is written until :meth:`Tracer.metrics` is read at the end of a run.

Self time is a span's wall time minus the wall time of the traced spans that
ran inside it.  Size counters (tree nodes, points) are computed after a span
closes; the time spent counting is charged to the enclosing span as child
time, so it inflates no layer's self time, only the overall trace overhead.

No file under ``src/`` changes: :func:`install` patches module and class
attributes and :meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name).  A dotted attribute is a method of a class
# in that module.  The span name is "<module>.<function>" of the layer that
# defines the function.
TARGETS = (
    ("expr", "fold_constants", "expr.fold_constants"),
    ("expr", "compile_evaluator", "expr.compile_evaluator"),
    ("expr", "differentiate", "expr.differentiate"),
    ("expr", "substitute", "expr.substitute"),
    ("expr", "parse", "expr.parse"),
    ("expr", "sample", "expr.sample"),
    ("expr", "zero_report_at", "expr.zero_report_at"),
    ("odesys", "linear_change", "odesys.linear_change"),
    ("odesys", "OdeSystem.resolved", "odesys.resolved"),
    ("symmetry", "residual_expressions", "symmetry.residual_expressions"),
    ("symmetry", "admits", "symmetry.admits"),
    ("cli", "main", "cli.main"),
    ("catalog", "verify_entry", "catalog.verify_entry"),
    ("catalog", "CatalogEntry.resolve", "catalog.resolve"),
    ("catalog", "draw_params", "catalog.draw_params"),
    ("catalog", "CatalogEntry.sample_points", "catalog.sample_points"),
    ("liealg", "normalize_L4", "liealg.normalize_L4"),
    ("liealg", "normalize_L6", "liealg.normalize_L6"),
    ("liealg", "normalize_L8", "liealg.normalize_L8"),
    ("liealg", "apply_word", "liealg.apply_word"),
    ("liealg", "canonical_vector", "liealg.canonical_vector"),
    ("jordan", "classify2x2", "jordan.classify2x2"),
)

#: The callables returned by compile_evaluator are traced under this name.
EVAL_SPAN = "expr.eval"

MODULES = ("expr", "odesys", "symmetry", "jordan", "liealg", "catalog", "cli")

#: Every per-layer metric a traced run reports: (name, unit).
LAYER_METRICS = (
    ("expr.fold_constants.self_s", "s"),
    ("expr.fold_constants.calls", "count"),
    ("expr.compile_evaluator.self_s", "s"),
    ("expr.compile_evaluator.calls", "count"),
    ("expr.compile_evaluator.nodes", "count"),
    ("expr.eval.self_s", "s"),
    ("expr.eval.calls", "count"),
    ("expr.eval.points", "count"),
    ("expr.differentiate.self_s", "s"),
    ("expr.substitute.self_s", "s"),
    ("expr.parse.self_s", "s"),
    ("expr.parse.calls", "count"),
    ("expr.sample.self_s", "s"),
    ("expr.sample.calls", "count"),
    ("expr.sample.points_kept", "count"),
    ("expr.zero_report_at.self_s", "s"),
    ("expr.zero_report_at.calls", "count"),
    ("odesys.linear_change.self_s", "s"),
    ("odesys.linear_change.calls", "count"),
    ("odesys.linear_change.nodes_out", "count"),
    ("odesys.resolved.self_s", "s"),
    ("symmetry.residual_expressions.self_s", "s"),
    ("symmetry.residual_expressions.calls", "count"),
    ("residual.nodes", "count"),
    ("residual.distinct", "count"),
    ("symmetry.admits.self_s", "s"),
    ("symmetry.admits.calls", "count"),
    ("cli.main.self_s", "s"),
    ("catalog.verify_entry.self_s", "s"),
    ("catalog.resolve.self_s", "s"),
    ("catalog.draw_params.self_s", "s"),
    ("catalog.sample_points.self_s", "s"),
    ("liealg.normalize_L4.self_s", "s"),
    ("liealg.normalize_L6.self_s", "s"),
    ("liealg.normalize_L8.self_s", "s"),
    ("liealg.apply_word.self_s", "s"),
    ("liealg.canonical_vector.self_s", "s"),
    ("jordan.classify2x2.self_s", "s"),
    ("jordan.classify2x2.calls", "count"),
    ("trace.overhead", "ratio"),
)


def tree_nodes(*roots) -> int:
    """Tree nodes of the expressions, a shared subtree counted once per use."""
    sizes: dict[int, int] = {}
    total = 0
    for root in roots:
        stack = [(root, False)]
        while stack:
            e, done = stack.pop()
            if id(e) in sizes:
                continue
            if done:
                sizes[id(e)] = 1 + sum(sizes[id(a)] for a in e.args)
            else:
                stack.append((e, True))
                stack.extend((a, False) for a in e.args if id(a) not in sizes)
        total += sizes[id(root)]
    return total


def distinct_subtrees(*roots) -> int:
    """Structurally distinct subtrees across the expressions."""
    canon: dict[int, int] = {}
    table: dict[tuple, int] = {}
    for root in roots:
        stack = [(root, False)]
        while stack:
            e, done = stack.pop()
            if id(e) in canon:
                continue
            if done:
                key = (e.kind, e.value, tuple(canon[id(a)] for a in e.args))
                canon[id(e)] = table.setdefault(key, len(table))
            else:
                stack.append((e, True))
                stack.extend((a, False) for a in e.args if id(a) not in canon)
    return len(table)


def _points(cols) -> int:
    return int(np.prod(np.broadcast_shapes(*(np.shape(c) for c in cols))))


class Tracer:
    """Span totals per name plus size counters, filled while installed."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []   # [name, child seconds] per open span
        self._open: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []
        self._paused = False

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- spans ---------------------------------------------------------------
    def call(self, name, fn, args, kwargs, home=None, attr=None, count=None):
        if self._paused or name in self._open:
            return fn(*args, **kwargs)
        frame = [name, 0.0]
        self._stack.append(frame)
        self._open.add(name)
        if home is not None:
            # Recursive calls resolve through the defining module's global;
            # pointing it at the original for the span's duration folds them
            # into this span without adding a wrapper frame per level.
            wrapper = getattr(home, attr)
            setattr(home, attr, fn)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            if home is not None:
                setattr(home, attr, wrapper)
            self._stack.pop()
            self._open.discard(name)
            self.self_s[name] += dt - frame[1]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += dt
        if count is not None:
            t1 = time.perf_counter()
            count(self.counts, args, out)
            if self._stack:
                self._stack[-1][1] += time.perf_counter() - t1
        return out

    # -- patching ------------------------------------------------------------
    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self, overhead: float) -> dict:
        """Every metric of :data:`LAYER_METRICS`, zero where nothing ran."""
        values = {}
        for name, unit in LAYER_METRICS:
            if name == "trace.overhead":
                v = overhead
            elif name.endswith(".self_s"):
                v = self.self_s.get(name[: -len(".self_s")], 0.0)
            elif name.endswith(".calls"):
                v = self.calls.get(name[: -len(".calls")], 0)
            else:
                v = self.counts.get(name, 0)
            values[name] = {"value": v, "unit": unit}
        return values


def _count_compile(counts, args, out):
    counts["expr.compile_evaluator.nodes"] += tree_nodes(args[0])


def _count_sample(counts, args, out):
    counts["expr.sample.points_kept"] += _points(list(out.values()))


def _count_linear_change(counts, args, out):
    counts["odesys.linear_change.nodes_out"] += tree_nodes(out.F, out.G)


def _count_residuals(counts, args, out):
    counts["residual.nodes"] += tree_nodes(*out)
    counts["residual.distinct"] += distinct_subtrees(*out)


def _count_eval(counts, args, out):
    counts["expr.eval.points"] += _points(args)


_COUNTERS = {
    "expr.compile_evaluator": _count_compile,
    "expr.sample": _count_sample,
    "odesys.linear_change": _count_linear_change,
    "symmetry.residual_expressions": _count_residuals,
}


def install(liesym) -> Tracer:
    """Wrap every target under each name it is bound to in the package."""
    tracer = Tracer()
    modules = [liesym] + [importlib.import_module(f"liesym.{m}") for m in MODULES]
    for modname, attr, name in TARGETS:
        home = importlib.import_module(f"liesym.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            fn = getattr(cls, meth)
            tracer._set(cls, meth, _method_wrapper(tracer, name, fn))
            continue
        fn = getattr(home, attr)
        wrapper = _function_wrapper(tracer, name, fn, home, attr)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    tracer._set(mod, key, wrapper)
    return tracer


def _function_wrapper(tracer, name, fn, home, attr):
    count = _COUNTERS.get(name)
    if name == "expr.compile_evaluator":
        def wrapper(*args, **kwargs):
            run = tracer.call(name, fn, args, kwargs, home, attr, count)
            return lambda *cols: tracer.call(EVAL_SPAN, run, cols, {},
                                             count=_count_eval)
    else:
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, home, attr, count)
    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    return wrapper


def _method_wrapper(tracer, name, fn):
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    return wrapper
