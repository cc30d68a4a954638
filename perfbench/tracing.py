"""Span tracing of phaseconv's layers from outside the package.

`installed(tracer)` wraps every public function of the layer modules and
rebinds the wrapper at every module attribute that holds the original, since
``cli``, ``u1`` and ``mixed`` import names from the layers below and call them
through their own globals.  Spans form a stack: a span's self time is its
duration minus the time of the spans it directly encloses.  A few functions
also record work counts, which repeat exactly from run to run.

``cli.ProcessPoolExecutor`` is replaced by a subclass that counts pool starts
and spans the wait for worker results as ``cli.pool.wait``, so that
``cli.run_sweep``'s self time is what it spends outside row work.  Spans
inside worker processes are not collected.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("distributions", "u1", "mixed", "zd", "cli")


class _Frame:
    __slots__ = ("start", "child", "classes")

    def __init__(self, start: float):
        self.start = start
        self.child = 0.0
        self.classes = 0


class Tracer:
    """Self time, call count and work counts per span name."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def call(self, name: str, fn, args, kwargs, hook):
        frame = _Frame(time.perf_counter())
        self.stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - frame.start
            self.stack.pop()
            self.self_s[name] += duration - frame.child
            self.calls[name] += 1
            if self.stack:
                self.stack[-1].child += duration
        if hook is not None:
            hook(self, frame, args, kwargs, result)
        return result


def _count_power_convolve(tracer, frame, args, kwargs, result):
    tracer.counts["distributions.power_convolve.out_points"] += len(result.probs)


def _count_phase_sum(fn):
    signature = inspect.signature(fn)

    def hook(tracer, frame, args, kwargs, result):
        arguments = signature.bind(*args, **kwargs).arguments
        terms = np.size(arguments["gamma"]) * len(arguments["p"].probs)
        tracer.counts["distributions.phase_sum.terms"] += terms
    return hook


def _count_typical(tracer, frame, args, kwargs, result):
    tracer.counts["mixed.typical_decomposition.classes"] += result.n_classes
    if tracer.stack:
        tracer.stack[-1].classes += result.n_classes


def _count_class_points(fn):
    signature = inspect.signature(fn)

    def hook(tracer, frame, args, kwargs, result):
        arguments = signature.bind(*args, **kwargs).arguments
        dec = arguments.get("decomposition")
        classes = dec.n_classes if dec is not None else frame.classes
        tracer.counts["mixed.fidelity_mixed_lower_bound.class_points"] += (
            classes * np.size(arguments["gamma"])
        )
    return hook


def _count_emit(tracer, frame, args, kwargs, result):
    tracer.counts["cli.emit.bytes"] += len(result.encode())


def _count_rows(tracer, frame, args, kwargs, result):
    tracer.counts["cli.rows"] += len(result.rows)


def _hooks(modules) -> dict:
    d, mixed = modules["distributions"], modules["mixed"]
    return {
        "distributions.power_convolve": _count_power_convolve,
        "distributions.char_fn": _count_phase_sum(d.char_fn),
        "distributions.amp_char_fn": _count_phase_sum(d.amp_char_fn),
        "mixed.typical_decomposition": _count_typical,
        "mixed.fidelity_mixed_lower_bound": _count_class_points(mixed.fidelity_mixed_lower_bound),
        "cli.emit": _count_emit,
        "cli.run_sweep": _count_rows,
    }


def _wrap(tracer: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, hook)
    return wrapper


def _counting_pool(tracer: Tracer, base):
    class CountingPool(base):
        def __init__(self, *args, **kwargs):
            tracer.counts["cli.pool.starts"] += 1
            super().__init__(*args, **kwargs)

        def map(self, *args, **kwargs):
            results = super().map(*args, **kwargs)
            return tracer.call("cli.pool.wait", list, (results,), {}, None)

    return CountingPool


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace phaseconv's public functions inside the block; restore them after."""
    import phaseconv

    modules = {name: importlib.import_module(f"phaseconv.{name}") for name in LAYERS}
    hooks = _hooks(modules)
    replacements = {}
    for short, module in modules.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            name = f"{short}.{attr}"
            replacements[id(obj)] = (obj, _wrap(tracer, name, obj, hooks.get(name)))
    cli = modules["cli"]
    pool = cli.ProcessPoolExecutor
    replacements[id(pool)] = (pool, _counting_pool(tracer, pool))

    patched = []
    for module in (phaseconv, *modules.values()):
        for attr, obj in list(vars(module).items()):
            if id(obj) in replacements and replacements[id(obj)][0] is obj:
                setattr(module, attr, replacements[id(obj)][1])
                patched.append((module, attr, obj))
    try:
        yield tracer
    finally:
        for module, attr, obj in patched:
            setattr(module, attr, obj)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced pass, keyed ``<module>.<function>.<quantity>``."""
    s, c = tracer.self_s, tracer.counts
    out = {
        "cli.parse_config.self_s": s["cli.parse_config"],
        "cli.run_sweep.self_s": s["cli.run_sweep"],
        "cli.pool.starts": c["cli.pool.starts"],
        "cli.emit.self_s": s["cli.emit"],
        "cli.emit.bytes": c["cli.emit.bytes"],
        "cli.rows": c["cli.rows"],
        "distributions.power_convolve.calls": tracer.calls["distributions.power_convolve"],
        "distributions.power_convolve.self_s": s["distributions.power_convolve"],
        "distributions.power_convolve.out_points": c["distributions.power_convolve.out_points"],
        "distributions.phase_sum.self_s": s["distributions.char_fn"] + s["distributions.amp_char_fn"],
        "distributions.phase_sum.terms": c["distributions.phase_sum.terms"],
        "mixed.typical_decomposition.classes": c["mixed.typical_decomposition.classes"],
        "mixed.fidelity_mixed_lower_bound.class_points": c["mixed.fidelity_mixed_lower_bound.class_points"],
    }
    for name in (
        "cli.main", "u1.figure_of_merit_exact", "u1.sample_gamma", "u1.figure_of_merit_mc",
        "u1.posterior_gauss_distance", "u1.posterior_density_exact",
        "mixed.typical_decomposition", "mixed.fidelity_mixed_lower_bound",
        "mixed.class_fidelity_gauss", "mixed.class_fidelity_exact", "mixed.uhlmann_fidelity",
        "mixed.exact_mixed_fidelity_small", "zd.success_probability", "zd.success_slope_fit",
    ):
        out[f"{name}.self_s"] = s[name]
    return out
