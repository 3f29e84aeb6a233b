"""Span tracing at the public boundaries of the jacobigreedy modules.

The tracer replaces every public function of the package, in every
namespace that binds it, by a wrapper that records a span (name, start,
end, parent, task id). Nothing under src/ changes. Layer self time is a
span's duration minus the time its child spans cover, summed per module.

Boundary rules, which fix what the counters mean:

* ``jacobi_iter`` is wrapped only where other modules imported it. The
  jacobi module's own evaluators call it internally, and their work is
  already counted at their own boundary.
* ``jacobi_iter`` is a generator; its time is charged while a caller
  consumes it, to the span that is consuming it.
* Callables handed to a quadrature norm (``f``, ``rows_fn``) and
  ``JacobiFamily.values`` run in the layer that defined them, so they get
  spans of that layer.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

import numpy as np

LAYERS = ("jacobi", "quadrature", "greedy", "experiments", "cli")
SPAN_FIELDS = ("name", "start", "end", "parent", "task", "busy")


def _layer_of(obj) -> str | None:
    module = getattr(obj, "__module__", "") or ""
    head, _, tail = module.partition(".")
    return tail if head == "jacobigreedy" and tail in LAYERS else None


class Tracer:
    """In-memory spans, per-layer self time and work counters for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._child: list[float] = []
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()
        self.family_bytes_max = 0
        self.task: str | None = None
        self._mesh_max = 0

    # -- spans -----------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.task, None])
        self._child.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, layer: str) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = span[2] - span[1]
        self._stack.pop()
        self.self_s[layer] += span[5] - self._child[idx]
        if self._stack:
            self._child[self._stack[-1]] += span[5]

    def _charge(self, layer: str, dt: float) -> None:
        """Busy time of a generator step, as a child of the consuming span."""
        self.self_s[layer] += dt
        if self._stack:
            self._child[self._stack[-1]] += dt

    # -- wrappers --------------------------------------------------------
    def wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__qualname__}"
        hook = _HOOKS.get(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer, name, hook)
        sig = inspect.signature(fn) if hook else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.counts[f"calls.{name}"] += 1
            idx = tracer._open(name)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                return hook(tracer, bound.arguments, lambda: fn(*bound.args, **bound.kwargs))
            finally:
                tracer._close(idx, layer)

        return traced

    def _wrap_generator(self, fn, layer, name, hook):
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.counts[f"calls.{name}"] += 1
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            if hook is not None:
                hook(tracer, bound.arguments, None)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, time.perf_counter(), None, parent, tracer.task, 0.0]
            tracer.spans.append(span)
            tracer._child.append(0.0)
            gen = fn(*bound.args, **bound.kwargs)
            try:
                while True:
                    t0 = time.perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        dt = time.perf_counter() - t0
                        span[5] += dt
                        tracer._charge(layer, dt)
                    yield item
            finally:
                gen.close()
                span[2] = time.perf_counter()
                # jacobi_iter is the package's only generator
                tracer.seconds["jacobi.eval_s"] += span[5]

        return traced

    def wrap_callback(self, fn, on_result=None):
        """Span for a callable passed into a quadrature norm, in its own layer."""
        layer = _layer_of(fn)
        if layer is None and on_result is None:
            return fn
        name = f"{layer}.{getattr(fn, '__qualname__', 'callback')}" if layer else None
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name) if name else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if idx is not None:
                    tracer._close(idx, layer)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self) -> None:
        """Patch the package, its five modules and JacobiFamily.values."""
        import jacobigreedy
        from jacobigreedy import cli, experiments, greedy, jacobi, quadrature

        wrapped: dict = {}
        for module in (jacobigreedy, jacobi, quadrature, greedy, experiments, cli):
            for attr, obj in list(vars(module).items()):
                layer = _layer_of(obj)
                if attr.startswith("_") or layer is None or not inspect.isfunction(obj):
                    continue
                if obj is jacobi.jacobi_iter and module is jacobi:
                    continue
                if obj not in wrapped:
                    wrapped[obj] = self.wrap(obj, layer)
                setattr(module, attr, wrapped[obj])
        family = greedy.JacobiFamily
        family.values = self.wrap(family.values, "greedy")

    # -- results ---------------------------------------------------------
    def span_table(self) -> dict:
        return {"fields": list(SPAN_FIELDS), "spans": self.spans}


# -- counter hooks, keyed by span name -------------------------------------
# A hook receives the tracer, the bound arguments (which it may replace)
# and a thunk that runs the original call.


def _size(x) -> int:
    return int(np.size(x))


def _timed(tr, key: str, call):
    t0 = time.perf_counter()
    try:
        return call()
    finally:
        tr.seconds[key] += time.perf_counter() - t0


def _counted_eval(steps):
    def hook(tr, a, call):
        tr.counts["jacobi.calls"] += 1
        tr.counts["jacobi.point_degrees"] += steps(a) * _size(a["x"])
        return _timed(tr, "jacobi.eval_s", call)

    return hook


def _jacobi_iter_hook(tr, a, call):
    tr.counts["jacobi.calls"] += 1
    tr.counts["jacobi.point_degrees"] += int(a["nmax"]) * _size(a["x"])


def _gauss_rule_hook(tr, a, call):
    tr.counts["quadrature.gauss_rule.nodes"] += int(a["m"])
    return _timed(tr, "quadrature.gauss_rule.s", call)


def _theta_mesh_hook(tr, a, call):
    theta, w = call()
    tr.counts["quadrature.mesh_points"] += len(theta)
    tr._mesh_max = max(tr._mesh_max, len(theta))
    return theta, w


def _norm_hook(rows_arg: str | None):
    """Norm-call counter; for family norms also rows x mesh points x 8 B."""

    def hook(tr, a, call):
        from jacobigreedy.quadrature import ConvergenceError

        tr.counts["quadrature.norm_calls"] += 1
        rows = [len(a[rows_arg])] if rows_arg == "family" else [0]
        if rows_arg == "rows_fn":
            a["rows_fn"] = tr.wrap_callback(
                a["rows_fn"], on_result=lambda out: rows.__setitem__(0, np.shape(out)[0])
            )
        elif rows_arg is None:
            a["f"] = tr.wrap_callback(a["f"])
        tr._mesh_max = 0
        try:
            return call()
        except ConvergenceError:
            tr.counts["quadrature.convergence_errors"] += 1
            raise
        finally:
            if rows_arg is not None:
                tr.family_bytes_max = max(tr.family_bytes_max, rows[0] * tr._mesh_max * 8)

    return hook


def _quasi_greedy_hook(tr, a, call):
    tr.counts["greedy.partial_sum_rows"] += len(a["e"].coeffs)
    return call()


def _average_block_hook(tr, a, call):
    result = call()
    samples = a["cfg"].samples
    tr.counts["experiments.rademacher.doublings"] += sum(s > samples for s in result.samples_used)
    return result


_HOOKS = {
    "jacobi.eval_P": _counted_eval(lambda a: int(a["n"])),
    "jacobi.eval_P_many": _counted_eval(lambda a: max(int(d) for d in a["degrees"])),
    "jacobi.jacobi_combination": _counted_eval(lambda a: max(a["coeffs"], default=0)),
    "jacobi.jacobi_iter": _jacobi_iter_hook,
    "jacobi.largest_root": lambda tr, a, call: _timed(tr, "jacobi.largest_root.s", call),
    "quadrature.gauss_jacobi_rule": _gauss_rule_hook,
    "quadrature.theta_mesh": _theta_mesh_hook,
    "quadrature.lp_norm": _norm_hook(None),
    "quadrature.square_function_norm": _norm_hook("family"),
    "quadrature.rademacher_average_norm": _norm_hook("family"),
    "quadrature.lp_norms_of_rows": _norm_hook("rows_fn"),
    "greedy.quasi_greedy_ratio": _quasi_greedy_hook,
    "experiments.average_block_experiment": _average_block_hook,
}
