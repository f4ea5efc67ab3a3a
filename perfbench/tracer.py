"""Spans recorded from outside the program, at cgolab's layer boundaries.

``traced(recorder)`` installs a wrapper on every name under which a
caller can reach a layer function: cgolab modules import with
``from .x import y``, so one function is bound in several modules (and
re-exported on ``cgolab`` itself).  Leaving out one binding would let its
calls escape the trace.  The original bindings come back when the block
exits.  Nothing in cgolab is edited; with no block active, nothing is
wrapped at all.

Each span holds its name, start, end, parent and one count (component
fields for a transform call, nnz(L+U) for ``splu``).  Spans stay in
memory; ``layer_metrics`` turns those of one experiment into the
per-layer metrics.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import math
import sys
from contextlib import contextmanager
from time import perf_counter

import cgolab.forward


def _fields(args, kwargs, result) -> int:
    g = args[0] if args else kwargs["g"]
    return math.prod(getattr(g, "data", g).shape[2:])


def _nnz(args, kwargs, result) -> int:
    return int(result.nnz)


# (span name, module holding the defining binding, attribute, count)
FUNCTIONS = (
    ("transforms.kernel", "cgolab.transforms", "dzbar_inv", _fields),
    ("transforms.kernel", "cgolab.transforms", "dz_inv", _fields),
    ("transforms.build", "cgolab.transforms", "make_vekua_operator", None),
    ("transforms.series", "cgolab.transforms", "neumann_series_apply", None),
    ("transforms.solve", "cgolab.transforms", "vekua_solve", None),
    ("transforms.gmres", "cgolab.transforms", "gmres", None),
    ("forward.splu", "cgolab.forward", "splu", _nnz),
    ("forward.cauchy_data", "cgolab.forward", "cauchy_data", None),
    ("forward.distance", "cgolab.forward", "cauchy_distance", None),
    ("calculus.stencil", "cgolab.calculus", "dz_array", None),
    ("calculus.stencil", "cgolab.calculus", "dzbar_array", None),
    ("calculus.stencil", "cgolab.calculus", "laplacian_array", None),
    ("calculus.trace", "cgolab.calculus", "trace_boundary", None),
    ("calculus.trace", "cgolab.calculus", "normal_derivative", None),
    ("cgo.amplitude", "cgolab.cgo", "build_amplitude", None),
    ("cgo.residual", "cgolab.cgo", "cgo_residual", None),
    ("harness.gauge", "cgolab.harness", "gauge_equivalence_experiment", None),
    ("harness.gauge", "cgolab.harness", "gauge_transform", None),
    ("cli.run", "cgolab.cli", "run", None),
)

# (span name, class, method)
METHODS = (
    ("forward.factor", cgolab.forward.OperatorFactorization, "__init__"),
    ("forward.solve", cgolab.forward.OperatorFactorization, "solve"),
)

ROOT = "experiment"


class Recorder:
    """In-memory spans: [name, start, end, parent index, count]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        """Record the enclosed block as one span; yields the span."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            yield span
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, count=None):
        """``fn`` recording each call as a span, with ``count`` of its result."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        return wrapper


def _cgolab_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "cgolab" or n.startswith("cgolab."))]


def targets():
    """(span name, owner, attribute, original, count) for every binding to wrap."""
    for name, modname, attr, count in FUNCTIONS:
        original = getattr(sys.modules[modname], attr)
        for mod in _cgolab_modules():
            for key, value in vars(mod).items():
                if value is original:
                    yield name, mod, key, original, count
    for name, cls, attr in METHODS:
        yield name, cls, attr, cls.__dict__[attr], None


@contextmanager
def traced(recorder: Recorder):
    """Wrap every binding of the layer functions; restore them on exit."""
    todo = list(targets())
    try:
        for name, owner, key, original, count in todo:
            setattr(owner, key, recorder.wrap(name, original, count))
        yield recorder
    finally:
        for _, owner, key, original, _ in todo:
            setattr(owner, key, original)


def self_times(spans):
    """Self time of each span: its duration minus its children's."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one experiment; ``spans[0]`` is its root span.

    Counts are exact.  ``*_calls`` count spans; ``build_s``, ``series_s``,
    ``solve_s`` and ``residual_s`` include the layer's traced children;
    every other time is self time.  Shares are over the root span.
    """
    own = self_times(spans)
    names = [s[0] for s in spans]

    def under(i, ancestor):
        i = spans[i][3]
        while i >= 0:
            if names[i] == ancestor:
                return True
            i = spans[i][3]
        return False

    def calls(name):
        return sum(n == name for n in names)

    def total(name):
        return sum(s[2] - s[1] for s in spans if s[0] == name)

    def self_s(name):
        return sum(t for n, t in zip(names, own) if n == name)

    kernels = [i for i, n in enumerate(names) if n == "transforms.kernel"]
    fields = sum(spans[i][4] for i in kernels)
    kernel_s = self_s("transforms.kernel")
    wall = spans[0][2] - spans[0][1]
    forward = sum(t for n, t in zip(names, own) if n.startswith("forward."))
    return {
        "transforms.kernel_calls": len(kernels),
        "transforms.kernel_fields": fields,
        "transforms.kernel_s": kernel_s,
        "transforms.kernel_ms_per_field": 1e3 * kernel_s / fields if fields else 0.0,
        "transforms.build_calls": calls("transforms.build"),
        "transforms.build_kernel_calls":
            sum(under(i, "transforms.build") for i in kernels),
        "transforms.build_s": total("transforms.build"),
        "transforms.series_kernel_calls":
            sum(under(i, "transforms.series") for i in kernels),
        "transforms.series_s": total("transforms.series"),
        "transforms.solve_calls": calls("transforms.solve"),
        "transforms.solve_kernel_calls":
            sum(under(i, "transforms.solve") for i in kernels),
        "transforms.solve_s": total("transforms.solve"),
        "transforms.gmres_calls": calls("transforms.gmres"),
        "transforms.share": kernel_s / wall,
        "forward.factor_calls": calls("forward.factor"),
        "forward.assembly_s": self_s("forward.factor"),
        "forward.splu_s": self_s("forward.splu"),
        "forward.lu_nnz": sum(s[4] for s in spans if s[0] == "forward.splu"),
        "forward.solve_calls": calls("forward.solve"),
        "forward.solve_s": self_s("forward.solve"),
        "forward.share": forward / wall,
        "cgo.amplitude_self_s": self_s("cgo.amplitude"),
        "cgo.residual_s": total("cgo.residual"),
        "calculus.stencil_s": self_s("calculus.stencil"),
        "calculus.trace_s": self_s("calculus.trace"),
        "harness.self_s": self_s("harness.gauge"),
        "cli.report_s": self_s("cli.run"),
    }
