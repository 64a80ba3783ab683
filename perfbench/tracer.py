"""Span tracer for the hardylab layers, installed from outside the library.

`Tracer.install()` replaces each traced callable, in every `hardylab` module
namespace that binds it, with a wrapper.  A span wrapper records
(name, start, end, parent, draw); a count wrapper only counts calls, for
callables invoked too often for a span each.  `Tracer.restore()` puts every
original object back.  Spans stay in memory until the caller writes them out.

Targets are dotted paths below `hardylab`: `module.function`,
`module.Class.method` or `module.instance.attribute`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

SPAN_TARGETS = (
    "cli.main",
    "generators.b_field",
    "generators.random_decomposition",
    "atoms.make_atom",
    "atoms.make_local_atom",
    "atoms.synthesize",
    "atoms.validate_atom",
    "projection.poly_project",
    "product.split_bmo",
    "product.split_lipschitz",
    "product.verify_split",
    "grid.ball_mean",
    "grid.lp_norm",
    "maximal.maximal_fn",
    "maximal.convolve_dilated",
    "orlicz.hardy_phi_star_quasinorm",
    "orlicz.hardy_quasinorm",
    "orlicz.lphi_star_norm",
    "orlicz.luxembourg_norm",
    "oscillation.BallFamily.build",
    "oscillation.bmo_local_norm",
    "lipschitz.lambda_gamma_norm",
)

# called per ball, per lattice displacement or per bisection step
COUNT_TARGETS = (
    "grid.region_slices",
    "lipschitz.difference_op",
    "orlicz.PHI.eval",
)

# the draw boundary inside `lab split`; its time stays in cli.main's self time
DRAW_TARGET = "cli._run_draw"


def _direct_madds(args, kwargs, result) -> int:
    """Multiply-adds of the direct path: grid nodes x dilated-stencil nodes."""
    f = args[0] if args else kwargs["f"]
    t = args[1] if len(args) > 1 else kwargs["t"]
    k_max = math.ceil(t / f.spec.spacing) - 1
    return f.values.size * (2 * k_max + 1) ** f.spec.dim


def _family_size(args, kwargs, result) -> int:
    return len(result.balls)


# counters computed from a span's arguments or result
COMPUTED = {
    "maximal.convolve_dilated": ("maximal.direct_madds", _direct_madds),
    "oscillation.BallFamily.build": ("oscillation.balls_scanned", _family_size),
}


def _resolve(target: str):
    """(owner object, attribute name) for a dotted target below hardylab."""
    module_name, *path = target.split(".")
    owner = importlib.import_module(f"hardylab.{module_name}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, draw]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._draw = -1
        self._patches: list = []  # (owner, attribute, original)

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        computed = COMPUTED.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = [name, start, end, parent, self._draw]
            if computed is not None:
                counter, count = computed
                self.counts[counter] += count(args, kwargs, result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _draw_marker(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._draw += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / restore --------------------------------------------------

    def _set(self, owner, attribute, value) -> None:
        if isinstance(owner, type) or inspect.ismodule(owner):
            setattr(owner, attribute, value)
        else:  # frozen dataclass instance such as orlicz.PHI
            object.__setattr__(owner, attribute, value)

    def _patch(self, target: str, make) -> None:
        owner, attribute = _resolve(target)
        if inspect.ismodule(owner):
            original = getattr(owner, attribute)
            bindings = [
                (module, name)
                for module_name, module in list(sys.modules.items())
                if module_name == "hardylab" or module_name.startswith("hardylab.")
                for name, value in vars(module).items()
                if value is original
            ]
            replacement = make(original)
        else:
            original = inspect.getattr_static(owner, attribute)
            bindings = [(owner, attribute)]
            if isinstance(original, (classmethod, staticmethod)):
                replacement = type(original)(make(original.__func__))
            else:
                replacement = make(original)
        for where, name in bindings:
            self._patches.append((where, name, inspect.getattr_static(where, name)))
            self._set(where, name, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        importlib.import_module("hardylab.cli")
        try:
            for target in SPAN_TARGETS:
                self._patch(target, functools.partial(self._span, target))
            for target in COUNT_TARGETS:
                self._patch(target, functools.partial(self._count, target))
            self._patch(DRAW_TARGET, self._draw_marker)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            self._set(owner, attribute, original)


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for index, (_, start, end, parent, _) in enumerate(spans):
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children[index]):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def layer_totals(spans) -> dict:
    """{span name: {"calls": n, "self_s": summed self time}}."""
    totals: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for span, self_s in zip(spans, self_times(spans)):
        entry = totals[span[0]]
        entry["calls"] += 1
        entry["self_s"] += self_s
    return dict(totals)
