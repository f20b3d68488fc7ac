"""Spans and exact kernel counts for the traced run, recorded from outside
the library.

A layer is a module of `rigidity3d`.  Its boundary is made of the module's
public functions and hand-written constructors.  While a `Tracer` is
installed, every module attribute that refers to one of them is swapped
for a wrapper that opens a span of that layer, unless the innermost open
span already belongs to the same layer.  So `calls` counts entries into a
layer, and a layer's busy time is the time its spans are open minus the
time their child spans cover.

The numpy/scipy kernels (`linprog`, `ConvexHull`, `numpy.linalg.svd`,
`numpy.linalg.eigvalsh`) are swapped for counters that charge each call to
the layer of the innermost open span.  Everything is restored on exit.
"""

import importlib
import inspect
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np
import scipy.optimize
import scipy.spatial

LAYERS = (
    "cli",
    "fileio",
    "geometry",
    "frameworks",
    "hessian",
    "suspensions",
    "cauchy",
    "generators",
)
KERNELS = ("lp_solves", "qhull_calls", "svd_calls", "eigvalsh_calls")
# the op span of a CLI workload is a cli span opened by the replay, so only
# the library modules below cli get wrapped
WRAPPED_LAYERS = LAYERS[1:]


class Span:
    __slots__ = ("layer", "name", "parent", "start", "end")

    def __init__(self, layer, name, parent, start):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start


class Tracer:
    """Spans and kernel counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []
        self.kernels = Counter()  # (layer, kernel) -> calls
        self.svd_max_elems = Counter()  # layer -> largest m*n factored
        self.tetrahedra = 0  # tetrahedra assembled by lambda_matrix
        self._stack = []
        self._in_kernel = False
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def current_layer(self):
        return self.spans[self._stack[-1]].layer if self._stack else "bench"

    def _open(self, layer, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(layer, name, parent, perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx].end = perf_counter()

    @contextmanager
    def span(self, layer, name):
        idx = self._open(layer, name)
        try:
            yield
        finally:
            self._close(idx)

    def _layer_wrapper(self, fn, layer):
        name = f"{layer}.{fn.__qualname__}"

        def traced(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]].layer == layer:
                return fn(*args, **kwargs)
            idx = self._open(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        return traced

    # -- kernels -------------------------------------------------------------

    def _count(self, kernel, elems=0):
        layer = self.current_layer()
        self.kernels[(layer, kernel)] += 1
        if elems > self.svd_max_elems[layer]:
            self.svd_max_elems[layer] = elems

    def _kernel_wrapper(self, fn, kernel):
        def counted(*args, **kwargs):
            # a kernel that calls another kernel internally counts once
            if self._in_kernel:
                return fn(*args, **kwargs)
            a = args[0] if args else kwargs.get("a")
            self._count(kernel, int(np.size(a)) if kernel == "svd_calls" else 0)
            self._in_kernel = True
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_kernel = False

        counted.__wrapped__ = fn
        return counted

    def _hull_class(self, base):
        tracer = self

        class CountedConvexHull(base):
            def __init__(self, *args, **kwargs):
                tracer._count("qhull_calls")
                super().__init__(*args, **kwargs)

        return CountedConvexHull

    def _lambda_wrapper(self, fn):
        def counted(d, *args, **kwargs):
            self.tetrahedra += len(d.tetrahedra)
            return fn(d, *args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        """Swap layer boundaries and kernels for their traced versions."""
        replacements = {}  # id(original) -> (original, replacement)

        def replace(original, replacement):
            replacements[id(original)] = (original, replacement)

        for layer in WRAPPED_LAYERS:
            module = importlib.import_module(f"rigidity3d.{layer}")
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    inner = obj
                    if (layer, name) == ("hessian", "lambda_matrix"):
                        inner = self._lambda_wrapper(obj)
                    replace(obj, self._layer_wrapper(inner, layer))
                elif inspect.isclass(obj) and _hand_written_init(obj, module):
                    self._patch(obj, "__init__", self._layer_wrapper(obj.__init__, layer))
        replace(np.linalg.svd, self._kernel_wrapper(np.linalg.svd, "svd_calls"))
        replace(np.linalg.eigvalsh, self._kernel_wrapper(np.linalg.eigvalsh, "eigvalsh_calls"))
        replace(scipy.optimize.linprog, self._kernel_wrapper(scipy.optimize.linprog, "lp_solves"))
        replace(scipy.spatial.ConvexHull, self._hull_class(scipy.spatial.ConvexHull))

        owners = [np.linalg, scipy.optimize, scipy.spatial] + [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == "rigidity3d" or name.startswith("rigidity3d."))
        ]
        try:
            for owner in owners:
                for name, obj in list(vars(owner).items()):
                    hit = replacements.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        self._patch(owner, name, hit[1])
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    # -- aggregation -----------------------------------------------------------

    def summary(self):
        """Busy time and span count per layer, and per-op coverage.

        Op spans are the spans without a parent.  An op's coverage is the
        share of its span that its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        busy = Counter()
        calls = Counter()
        ops = []
        for idx, s in enumerate(self.spans):
            duration = s.end - s.start
            busy[s.layer] += duration - child_time[idx]
            calls[s.layer] += 1
            if s.parent is None:
                ops.append((s.layer, duration, child_time[idx]))
        return busy, calls, ops

    def counts(self):
        """Every exact count of the pass, for comparing two passes."""
        busy, calls, _ = self.summary()
        return {
            "calls": dict(sorted(calls.items())),
            "kernels": {f"{layer}.{k}": n for (layer, k), n in sorted(self.kernels.items())},
            "svd_max_elems": dict(sorted(self.svd_max_elems.items())),
            "tetrahedra": self.tetrahedra,
        }


def _hand_written_init(cls, module):
    init = cls.__dict__.get("__init__")
    code = getattr(init, "__code__", None)
    return code is not None and code.co_filename == module.__file__
