"""In-memory spans around the package's public callables, installed from outside.

The tracer replaces a callable by a wrapper that records one span per call:
its layer name, start and end (``perf_counter_ns``), the span that was open
when it started, and a tag.  A function imported by name into several
modules (``crandn``, ``svd``, ...) is replaced in every ``airsplit`` module
namespace and in every default argument that holds it, so no call path
escapes.  ``uninstall`` puts the originals back.

A span's self time is its duration minus the part of its interval covered
by its child spans.  Nothing here changes what the wrapped callables compute.
"""
from __future__ import annotations

import functools
import math
import sys
import time

import numpy as np

# Layer name -> (module, qualified attribute).  Names are the ones the
# per-layer metrics carry.
LAYERS = {
    "linalg.crandn": ("linalg", "crandn"),
    "linalg.svd": ("linalg", "svd"),
    "channel.sample_channel": ("channel", "sample_channel"),
    "channel.evolve_channel": ("channel", "evolve_channel"),
    "channel.transmit_forward": ("channel", "transmit_forward"),
    "channel.transmit_backward": ("channel", "transmit_backward"),
    "oac.power_normalize": ("oac", "power_normalize"),
    "oac.OacLayer.forward": ("oac", "OacLayer.forward"),
    "oac.OacLayer.backward": ("oac", "OacLayer.backward"),
    "nn.Dense.forward": ("nn", "Dense.forward"),
    "nn.Dense.backward": ("nn", "Dense.backward"),
    "nn.ComplexBatchNorm.forward": ("nn", "ComplexBatchNorm.forward"),
    "nn.ComplexBatchNorm.backward": ("nn", "ComplexBatchNorm.backward"),
    "nn.CRelu.forward": ("nn", "CRelu.forward"),
    "nn.CRelu.backward": ("nn", "CRelu.backward"),
    "nn.modulus_softmax_loss": ("nn", "modulus_softmax_loss"),
    "nn.Adam.step": ("nn", "Adam.step"),
    "runtime.CovarianceTracker.update": ("runtime", "CovarianceTracker.update"),
    "runtime.comm_loss_gradients": ("runtime", "comm_loss_gradients"),
    "runtime.SplitSystem.train_batch": ("runtime", "SplitSystem.train_batch"),
    "runtime.SplitSystem.evaluate": ("runtime", "SplitSystem.evaluate"),
    "runtime.regret_experiment": ("runtime", "regret_experiment"),
    "bench.generate_dataset": ("bench", "generate_dataset"),
    "bench.build_system": ("bench", "build_system"),
    "bench.run_experiment": ("bench", "run_experiment"),
}

# Layers whose spans are split by OacDesign: the OacLayer methods carry the
# design of their instance, power_normalize that of the enclosing OacLayer.
DESIGN_LAYERS = ("oac.OacLayer.forward", "oac.OacLayer.backward",
                 "oac.power_normalize")
DESIGN_TAGS = ("transmitter_combined", "transmitter_separated",
               "receiver_combined", "receiver_separated")

# The spans a run times with tracing off: one per train step and per eval.
ROOTS = ("runtime.SplitSystem.train_batch", "runtime.SplitSystem.evaluate")


def layer_names() -> list:
    """Every layer name a trace reports, design-split layers expanded."""
    out = []
    for name in LAYERS:
        if name in DESIGN_LAYERS:
            out.extend(f"{name}.{tag}" for tag in DESIGN_TAGS)
        else:
            out.append(name)
    return out


def _design_tag(args, kwargs) -> str:
    d = args[0].design
    return f"{d.side}_{d.form}"


def _crandn_bytes(args, kwargs) -> int:
    shape = args[1] if len(args) > 1 else kwargs["shape"]
    return 16 * math.prod(np.atleast_1d(shape).tolist())


_TAGGERS = {"oac.OacLayer.forward": _design_tag, "oac.OacLayer.backward": _design_tag}
_AMOUNTS = {"linalg.crandn": _crandn_bytes}


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if (n == "airsplit" or n.startswith("airsplit.")) and m is not None]


def _functions_with_defaults(modules):
    """Every plain function of the package, module level or in a class."""
    for mod in modules:
        for value in list(vars(mod).values()):
            if getattr(value, "__module__", None) != mod.__name__:
                continue
            if isinstance(value, type):
                for attr in vars(value).values():
                    if callable(attr) and getattr(attr, "__defaults__", None):
                        yield attr
            elif callable(value) and getattr(value, "__defaults__", None):
                yield value


class Tracer:
    """Records spans for the layers it is installed on.

    Spans live in parallel lists; index i is the i-th span started.  With
    ``only`` given, just those layers are wrapped, which is how an
    untraced run still times its train steps and evals.
    """

    def __init__(self, only=None):
        self.layers = tuple(only) if only is not None else tuple(LAYERS)
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.tags: list = []
        self.amounts: list = []
        self._stack: list = []
        self._undo: list = []

    def clear(self) -> None:
        for lst in (self.names, self.starts, self.ends, self.parents,
                    self.tags, self.amounts):
            lst.clear()

    def _wrap(self, name, fn):
        tagger = _TAGGERS.get(name)
        amount = _AMOUNTS.get(name)
        names, starts, ends = self.names, self.starts, self.ends
        parents, tags, amounts, stack = self.parents, self.tags, self.amounts, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            tags.append(tagger(args, kwargs) if tagger else None)
            amounts.append(amount(args, kwargs) if amount else 0)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every selected layer wherever the package refers to it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        originals = {}
        for name in self.layers:
            mod_name, attr = LAYERS[name]
            owner = by_name[mod_name]
            if "." in attr:                      # a method: patch the class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = vars(cls)[meth]
                self._undo.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(name, fn))
            else:
                fn = getattr(owner, attr)
                originals[id(fn)] = (fn, self._wrap(name, fn))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, hit[1])
        for fn in _functions_with_defaults(modules):
            old = fn.__defaults__
            new = tuple(originals[id(v)][1] if id(v) in originals
                        and originals[id(v)][0] is v else v for v in old)
            if new != old:
                self._undo.append((fn, "__defaults__", old))
                fn.__defaults__ = new

    def uninstall(self) -> None:
        for obj, key, value in reversed(self._undo):
            setattr(obj, key, value)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis -----------------------------------------------------------

    def durations_ms(self, name: str) -> list:
        return [(e - s) / 1e6 for n, s, e in zip(self.names, self.starts, self.ends)
                if n == name]

    def _children(self) -> list:
        children = [[] for _ in self.names]
        for i, p in enumerate(self.parents):
            if p >= 0:
                children[p].append(i)
        return children

    def _self_ns(self, children) -> list:
        """Duration minus the union of child intervals, clipped to the span."""
        out = []
        for i, kids in enumerate(children):
            lo, hi = self.starts[i], self.ends[i]
            covered, reach = 0, lo
            for k in kids:                       # started in order
                s, e = max(self.starts[k], reach), min(self.ends[k], hi)
                if e > s:
                    covered += e - s
                    reach = e
            out.append(hi - lo - covered)
        return out

    def _resolved_names(self) -> list:
        """Layer names with the design suffix on design-split layers."""
        out = []
        for i, name in enumerate(self.names):
            if name in DESIGN_LAYERS:
                j = i
                while j >= 0 and self.tags[j] is None:
                    j = self.parents[j]
                name = f"{name}.{self.tags[j]}" if j >= 0 else name
            out.append(name)
        return out

    def layer_totals(self) -> dict:
        """name -> {calls, self_ns, bytes} summed over every recorded span."""
        totals = {}
        own = self._self_ns(self._children())
        for name, self_ns, amount in zip(self._resolved_names(), own, self.amounts):
            t = totals.setdefault(name, {"calls": 0, "self_ns": 0, "bytes": 0})
            t["calls"] += 1
            t["self_ns"] += self_ns
            t["bytes"] += amount
        return totals

    def step_sum_mismatches(self, root: str) -> int:
        """Root spans whose subtree self times do not add up to their duration.

        Self times are integer nanoseconds, so the sum is exact whenever every
        child lies inside its parent and siblings do not overlap.
        """
        children = self._children()
        self_ns = self._self_ns(children)
        bad = 0
        for i, name in enumerate(self.names):
            if name != root:
                continue
            total, todo = 0, [i]
            while todo:
                j = todo.pop()
                total += self_ns[j]
                todo.extend(children[j])
            if total != self.ends[i] - self.starts[i]:
                bad += 1
        return bad
