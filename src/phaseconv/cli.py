"""Batch front-end: config-driven sweeps with CSV/JSON output.

Usage:
    phaseconv <experiment> --config <path> [--out <path>] [--format csv|json]
                                           [--jobs <n>]

Experiments: u1-fom, u1-posterior, u1-rates, zd, mixed-bound, mixed-oracle.
The config is a JSON object; unknown keys are rejected and validation reports
every problem at once.  Rows that share a costly input (one M of a
`mixed-oracle` grid, a block of a `zd` grid) form a batch that builds it once.
Failures land in an ``error`` column instead of aborting the run; a failed
batch runs again row by row.  A row one of whose `Experiment.sizes` exceeds
the cap is refused before it runs, and their sum is its estimated work.  A
sweep whose work reaches `POOL_POINTS` runs in at most ``--jobs`` workers, one
per CPU at most, others in-process; the output depends on neither.

Exit codes: 0 success, 1 usage, validation or I/O error, 2 some rows failed,
3 some rows hit a resource cap.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache, partial
from types import SimpleNamespace

import numpy as np

from . import __version__
from .distributions import IntDistribution, power_support_bound
from .errors import ConfigValidationError, PhaseconvError, ResourceCapError
from .mixed import (
    DEFAULT_CLASS_CAP,
    MixedTarget,
    exact_mixed_fidelity_small,
    fidelity_mixed_lower_bound,
    figure_of_merit_mixed_bound,
    typical_decomposition,
)
from .u1 import (
    CONVERGENCE_THRESHOLD,
    NumberState,
    PosteriorSpec,
    RateSchedule,
    autocorrelation_size,
    figure_of_merit_closed,
    figure_of_merit_exact,
    figure_of_merit_mc,
    posterior_gauss_distance,
    rate_verdict,
    sampling_points,
)
from .zd import CyclicCoeffs, block_rows, contraction_rate, deviation_laws, slope_fit

SCHEMA_VERSION = 1
DEFAULT_MC_DRAWS = 4096
# Guard against rows whose arrays (`Experiment.sizes`) would not fit a sane FFT;
# u1-fom and u1-rates may lower it, nothing at desk scale should need to raise it.
DEFAULT_FFT_CAP = 1 << 23
_METHODS = ("exact", "closed", "mc")
_RATES_METHODS = ("exact", "closed")  # the legs of a u1-rates row, which has no `methods` key

# default of a config key that must be given
_REQUIRED = object()

# Estimated work (`Experiment.sizes`, summed over a sweep's rows) from which the
# rows go to a worker pool.  Measured on a 2-CPU VM (Python 3.11.7, NumPy
# 2.4.6, OpenBLAS), in-process against a fork pool of two workers (7-18 ms to
# start), in ms over two rounds: u1-posterior grids of 1.1e6, 2.1e6 and 4.2e6
# points 143-150 / 132-195, 250-286 / 155-209 and 548-688 / 357-433; u1-rates
# at 0.6e6 points 107-117 / 96-120; u1-fom Monte Carlo at 1.6e6 points
# 213-243 / 258-309.  Those sweeps ran at 119-195 ns a point, so the budget is
# 0.24-0.39 s of rows.  No benchmark sweep pools: the largest, cli-small's
# `rates-*`, is 365,911 at seeds 1, 7 and 1801.  An exact mixed-bound sweep
# counts its posterior grids only: rank 2 at M = 256-2048 took 8 / 16-18 ms,
# rank 3 at M = 1024-4096 (1.3e4 points) 0.09-0.10 / 0.13 s.
POOL_POINTS = 2_000_000


def __getattr__(name: str):
    """Bind `ProcessPoolExecutor` on first access.

    The pool stack (`concurrent.futures`, `multiprocessing`, `logging`,
    `socket`) takes about 17 ms to import, so it loads when a sweep first
    starts a pool, not with this module.  Once bound, the name is a plain
    module global that callers may read, subclass or patch.
    """
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SweepConfig(SimpleNamespace):
    """Validated sweep inputs: ``experiment`` plus one attribute per config key.

    Spectra are built `NumberState`, `MixedTarget` and `CyclicCoeffs` values;
    they pickle to worker processes.  ``m_schedule`` is (label, one M per
    ``n_grid`` entry).
    """


@dataclass
class SweepResult:
    experiment: str
    header: tuple[str, ...]
    rows: list[dict]
    metadata: dict = field(default_factory=dict)


def _is_num(x) -> bool:
    """A finite JSON number; an integer literal beyond float range is not one."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _fail(problems: list, message: str) -> None:
    """Record one problem; a check returns this None as its failed value."""
    problems.append(message)


def _check(accept, expected: str, convert=None):
    """A check whose value either passes ``accept`` or is one problem."""
    def check(problems: list, f: str, value, *_):
        if not accept(value):
            return _fail(problems, f"{f}: expected {expected}")
        return value if convert is None else convert(value)
    return check


def _total(values) -> float:
    """Exact sum of finite numbers, or inf where `math.fsum` raises on overflow."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def _take_prob_list(problems: list, f: str, value, *_, min_len: int = 1):
    if not isinstance(value, list) or len(value) < min_len:
        return _fail(problems, f"{f}: expected a list of at least {min_len} probabilities")
    if not all(_is_num(x) for x in value):
        return _fail(problems, f"{f}: entries must be finite numbers")
    if any(x < 0 for x in value):
        return _fail(problems, f"{f}: entries must be nonnegative")
    total = _total(value)
    if abs(total - 1.0) > 1e-9:
        return _fail(problems, f"{f}: probabilities sum to {total:.6g}, expected 1")
    return tuple(value)


def _take_cyclic(problems: list, f: str, value, *_):
    """Validate zd probabilities into `CyclicCoeffs`, whose sum tolerance is 1e-12."""
    probs = _take_prob_list(problems, f, value, min_len=2)
    try:
        return None if probs is None else CyclicCoeffs(np.array(probs))
    except ValueError as exc:
        return _fail(problems, f"{f}: {exc}")


def _take_spectrum(problems: list, f: str, value, *_):
    """Validate a pure-state spectrum object {"probs": [...], "offset": int} into a state."""
    if not isinstance(value, dict):
        return _fail(problems, f"{f}: expected an object with 'probs' and optional 'offset'")
    unknown = set(value) - {"probs", "offset"}
    if unknown:
        problems.append(f"{f}: unknown keys {sorted(unknown)}")
    if "probs" not in value:
        return _fail(problems, f"{f}.probs: missing")
    probs = _take_prob_list(problems, f + ".probs", value["probs"])
    offset = value.get("offset", 0)
    if not _is_int(offset) or offset < 0:
        return _fail(problems, f"{f}.offset: expected a nonnegative integer")
    if probs is None:
        return None
    arr = np.array(probs, dtype=np.float64)
    nz = np.flatnonzero(arr)
    if np.any(arr[nz[0]: nz[-1] + 1] == 0):
        return _fail(problems, f"{f}.probs: interior zeros make the spectrum gapped")
    return NumberState(IntDistribution.from_raw(offset, arr / arr.sum(), trim_threshold=0.0))


def _take_mixture(problems: list, f: str, value, *_):
    """Validate {"components": [spectrum...], "weights": [...]} into a `MixedTarget`."""
    if not isinstance(value, dict) or set(value) != {"components", "weights"}:
        return _fail(problems, f"{f}: expected {{'components': [...], 'weights': [...]}}")
    comps = value["components"]
    if not isinstance(comps, list) or not comps:
        return _fail(problems, f"{f}.components: expected a nonempty list of spectra")
    states = [_take_spectrum(problems, f"{f}.components[{i}]", c) for i, c in enumerate(comps)]
    weights = value["weights"]
    if not isinstance(weights, list) or not all(_is_num(w) for w in weights):
        return _fail(problems, f"{f}.weights: expected a list of numbers")
    if len(weights) != len(comps):
        return _fail(
            problems, f"{f}.weights: length {len(weights)} does not match {len(comps)} components"
        )
    if any(w <= 0 for w in weights):
        return _fail(problems, f"{f}.weights: weights must be strictly positive")
    total = _total(weights)
    if abs(total - 1.0) > 1e-9:
        return _fail(problems, f"{f}.weights: weights sum to {total:.6g}, expected 1")
    if any(state is None for state in states):
        return None
    return MixedTarget(tuple(states), tuple(float(w) / total for w in weights))


def _take_int_grid(problems: list, f: str, value, *_, increasing: bool = True):
    if not isinstance(value, list) or not value:
        return _fail(problems, f"{f}: expected a nonempty list of positive integers")
    if not all(_is_int(x) and x >= 1 for x in value):
        return _fail(problems, f"{f}: entries must be integers >= 1")
    if increasing and any(b <= a for a, b in zip(value, value[1:])):
        return _fail(problems, f"{f}: entries must be strictly increasing")
    return tuple(value)


def _take_m_schedule(problems: list, f: str, value, values: dict):
    """Resolve the schedule to (label, one M per n_grid entry).

    With an invalid n_grid only the shape is checked, and the M values are None.
    """
    if not isinstance(value, dict) or len(value) != 1 or next(iter(value)) not in ("a", "c", "list"):
        return _fail(
            problems, f"{f}: expected exactly one of {{'a': ...}}, {{'c': ...}}, {{'list': [...]}}"
        )
    key, val = next(iter(value.items()))
    n_grid = values.get("n_grid")
    if key == "list":
        lst = _take_int_grid(problems, f"{f}.list", val, increasing=False)
        if lst is not None and n_grid is not None and len(lst) != len(n_grid):
            return _fail(
                problems, f"{f}.list: length {len(lst)} does not match n_grid length {len(n_grid)}"
            )
        return None if lst is None else ("M=list", lst)
    if key == "a" and not (_is_num(val) and 0 < val <= 1):
        return _fail(problems, f"{f}.a: exponent must lie in (0, 1]")
    if key == "c" and not (_is_num(val) and val > 0):
        return _fail(problems, f"{f}.c: slope must be positive")
    schedule = RateSchedule("power" if key == "a" else "linear", float(val))
    try:
        m_values = None if n_grid is None else tuple(map(schedule.m_for, n_grid))
    except OverflowError as exc:
        return _fail(problems, f"{f}: {schedule.label} overflows ({exc})")
    return schedule.label, m_values


def _n_m_keys(config: SweepConfig) -> list[dict]:
    return [{"N": n, "M": m} for n, m in zip(config.n_grid, config.m_schedule[1])]


def _fom_sizes(config: SweepConfig, row: dict) -> tuple[tuple[str, int], ...]:
    """Source and target power support bounds, and the transforms and terms of each leg run."""
    source = power_support_bound(config.source.spectrum, row["N"])
    target = power_support_bound(config.target.spectrum, row["M"])
    sizes = (("support estimate", source), ("support estimate", target))
    methods = getattr(config, "methods", _RATES_METHODS)
    if "exact" in methods:  # the larger transform: the longer power's, over the shorter's lags
        longer, lags = max(source, target), min(source, target)
        sizes += (("autocorrelation transform", autocorrelation_size(longer, lags)),)
    if "mc" in methods:
        sizes += (("Monte Carlo sampling grid", sampling_points(source)),
                  ("Monte Carlo term count", config.mc_draws * len(config.target.spectrum)))
    return sizes


def _posterior_sizes(config: SweepConfig, row: dict) -> tuple[tuple[str, int], ...]:
    """The N-copy source support bound and the posterior grid (mixed-bound's default if None)."""
    support = power_support_bound(config.source.spectrum, row["N"])
    return (
        ("support estimate", support),
        ("posterior grid", config.grid_points or max(4097, 2 * support + 3)),
    )


def _fom_rows(config: SweepConfig, rows: list[dict]) -> None:
    methods = getattr(config, "methods", _RATES_METHODS)
    source, target = config.source, config.target
    for row in rows:
        n, m = row["N"], row["M"]
        posterior = None  # one N-copy source spectrum serves both the exact and the mc leg
        if "exact" in methods:
            posterior = PosteriorSpec.for_copies(source, n)
            row["f_exact"] = figure_of_merit_exact(posterior, target, m)
        if "closed" in methods:
            row["f_closed"] = figure_of_merit_closed(source.variance, n, target.variance, m)
        if "exact" in methods and "closed" in methods:
            row["gap"] = row["f_exact"] - row["f_closed"]
        if "mc" in methods:
            rng = np.random.default_rng(np.random.SeedSequence([config.seed, n, m]))
            posterior = posterior or PosteriorSpec.for_copies(source, n)
            est, err = figure_of_merit_mc(posterior, target, m, config.mc_draws, rng)
            row["f_mc"], row["f_mc_stderr"] = est, err


def _posterior_rows(config: SweepConfig, rows: list[dict]) -> None:
    for row in rows:
        spec = PosteriorSpec.for_copies(config.source, row["N"])
        row["tv_exact_gauss"] = posterior_gauss_distance(spec, config.grid_points)


def _zd_rows(config: SweepConfig, rows: list[dict]) -> None:
    laws = deviation_laws(config.probs, [row["N"] for row in rows])
    epsilon = contraction_rate(config.probs)
    for row, law, wrong in zip(rows, laws[:, 0].tolist(), laws[:, 1:].sum(axis=1).tolist()):
        row.update(success_prob=law, epsilon=epsilon, _wrong=wrong)  # the slope fit reads _wrong


def _bound_rows(config: SweepConfig, rows: list[dict]) -> None:
    for row in rows:
        # the classes first: a class-cap refusal costs no N-copy power
        dec = typical_decomposition(config.target, row["M"], config.epsilon, class_cap=config.class_cap)
        spec = PosteriorSpec.for_copies(config.source, row["N"])
        row["f_bound"] = figure_of_merit_mixed_bound(
            spec, dec, method=config.bound_method, grid_points=config.grid_points
        )
        row.update(delta_rho=dec.residual_mass, epsilon=dec.epsilon_used, n_classes=dec.n_classes)


def _oracle_rows(config: SweepConfig, rows: list[dict]) -> None:
    for row in rows:
        row["f_exact"] = exact_mixed_fidelity_small(config.target, row["M"], row["gamma"])
    # the classes after f_exact: a row refused by the class cap keeps it
    dec = typical_decomposition(config.target, rows[0]["M"], config.epsilon)
    for row in rows:  # one floor call per angle: an array of angles sums in another order
        row["f_bound"] = fidelity_mixed_lower_bound(dec, row["gamma"], method=config.bound_method)


def _clean(rows: list[dict]) -> bool:
    return not any(row["error"] for row in rows)


def _rates_metadata(config: SweepConfig, rows: list[dict]) -> dict:
    verdict = "indeterminate"
    if _clean(rows):
        verdict = rate_verdict([row["f_exact"] for row in rows], config.threshold)
    return {
        "schedule": config.m_schedule[0],
        "threshold": config.threshold,
        "verdict": verdict,
    }


def _posterior_metadata(config: SweepConfig, rows: list[dict]) -> dict:
    if len(rows) < 2 or not _clean(rows):
        return {}
    return {"tv_ratios": [a["tv_exact_gauss"] / b["tv_exact_gauss"] for a, b in zip(rows, rows[1:])]}


def _zd_metadata(config: SweepConfig, rows: list[dict]) -> dict:
    # the rows' epsilon, unless the first row failed before it
    meta = {"epsilon": rows[0]["epsilon"] if "epsilon" in rows[0] else contraction_rate(config.probs)}
    if len(rows) >= 2 and _clean(rows):
        try:
            fit = slope_fit([row["N"] for row in rows], [row["_wrong"] for row in rows], meta["epsilon"])
            meta["slope_fit"] = {key: getattr(fit, key) for key in ("slope", "intercept", "slope_theory")}
        except ValueError as exc:
            meta["slope_fit"] = {"error": str(exc)}
    return meta


@dataclass(frozen=True)
class Experiment:
    """One sweep experiment.

    ``keys`` holds (key, check, default) in validation order, with
    `_REQUIRED` for a mandatory key.  A check takes (problems, key, value,
    values validated so far), appends one message per problem and returns
    the validated value, or None on failure.  ``row_keys`` gives each row's
    key columns in grid order, and ``row`` fills in up to ``batch`` consecutive
    rows a call, through this module's globals so that the library can be
    traced or patched here.  ``metadata`` summarizes the rows for the JSON output.
    ``sizes`` gives (what, length) for each array a row will allocate, from
    its inputs alone: `_preflight` refuses a row with one above the cap, and
    their sum is its work in points, the unit of `POOL_POINTS`.  Rows without
    sizes count no work: a worker pool does not pay for them.
    """

    keys: tuple[tuple[str, Callable, object], ...]
    header: tuple[str, ...]
    row_keys: Callable[[SweepConfig], list[dict]]
    row: Callable[[SweepConfig, list[dict]], None]
    metadata: Callable[[SweepConfig, list[dict]], dict] = lambda config, rows: {}
    sizes: Callable[[SweepConfig, dict], tuple[tuple[str, int], ...]] = lambda config, row: ()
    batch: Callable[[SweepConfig], int] = lambda config: 1


_POSITIVE_INT = _check(lambda v: _is_int(v) and v >= 1, "a positive integer")
_GRID_POINTS = _check(lambda v: _is_int(v) and v >= 16, "an integer >= 16")
_EPSILON = _check(lambda v: _is_num(v) and 0 < v <= 2, "a number in (0, 2]", float)
_BOUND_METHOD = _check(lambda v: v in ("gauss", "exact"), "'gauss' or 'exact'")
_SEED = ("seed", _check(lambda v: _is_int(v) and 0 <= v < 2**64, "an integer in [0, 2^64)"), 0)
_SOURCE = ("source", _take_spectrum, _REQUIRED)
_TARGET = ("target", _take_spectrum, _REQUIRED)
_MIXTURE = ("target", _take_mixture, _REQUIRED)
_N_GRID = ("n_grid", _take_int_grid, _REQUIRED)
_M_SCHEDULE = ("m_schedule", _take_m_schedule, _REQUIRED)
_FFT_CAP = ("fft_cap", _POSITIVE_INT, DEFAULT_FFT_CAP)
_FOM_HEADER = ("N", "M", "f_exact", "f_closed", "gap")

EXPERIMENTS = {
    "u1-fom": Experiment(
        keys=(
            _SOURCE, _TARGET, _N_GRID, _M_SCHEDULE,
            ("methods", _check(
                # membership first: set() would raise on an unhashable entry
                lambda v: isinstance(v, list) and v and all(m in _METHODS for m in v)
                and len(set(v)) == len(v),
                "a nonempty subset of ['exact', 'closed', 'mc']",
                lambda v: tuple(m for m in _METHODS if m in v),
            ), ("exact", "closed")),
            ("mc_draws", _check(lambda v: _is_int(v) and v >= 100, "an integer >= 100"),
             DEFAULT_MC_DRAWS),
            _FFT_CAP,
        ),
        header=_FOM_HEADER, row_keys=_n_m_keys, row=_fom_rows, sizes=_fom_sizes,
    ),
    "u1-posterior": Experiment(
        keys=(_SOURCE, _N_GRID, ("grid_points", _GRID_POINTS, 8192)),
        header=("N", "tv_exact_gauss"),
        row_keys=lambda config: [{"N": n} for n in config.n_grid],
        row=_posterior_rows, metadata=_posterior_metadata, sizes=_posterior_sizes,
    ),
    "u1-rates": Experiment(
        keys=(
            _SOURCE, _TARGET, _N_GRID, _M_SCHEDULE,
            ("threshold", _check(lambda v: _is_num(v) and 0 < v < 1, "a number in (0, 1)", float),
             CONVERGENCE_THRESHOLD),
            _FFT_CAP,
        ),
        header=_FOM_HEADER, row_keys=_n_m_keys, row=_fom_rows, metadata=_rates_metadata,
        sizes=_fom_sizes,
    ),
    "zd": Experiment(
        keys=(("probs", _take_cyclic, _REQUIRED), _N_GRID),
        header=("d", "N", "success_prob", "epsilon"),
        row_keys=lambda config: [{"d": config.probs.d, "N": n} for n in config.n_grid],
        row=_zd_rows, metadata=_zd_metadata, batch=lambda config: block_rows(config.probs),
        # no sizes, so no work: a grid of under 2^20 / d points is one batch, which no pool splits
    ),
    "mixed-bound": Experiment(
        # None defers to the library: epsilon ((ln M)/M)^(1/4), grid_points max(4097, 2*span+3)
        keys=(
            _SOURCE, _MIXTURE, _N_GRID, _M_SCHEDULE, ("epsilon", _EPSILON, None),
            ("bound_method", _BOUND_METHOD, "gauss"), ("grid_points", _GRID_POINTS, None),
            ("class_cap", _POSITIVE_INT, DEFAULT_CLASS_CAP),
        ),
        header=("N", "M", "f_bound", "delta_rho", "epsilon", "n_classes"),
        row_keys=_n_m_keys, row=_bound_rows, sizes=_posterior_sizes,
        metadata=lambda config, rows: {"bound_method": config.bound_method},
    ),
    "mixed-oracle": Experiment(
        keys=(
            _MIXTURE,
            ("m_grid", _take_int_grid, _REQUIRED),
            ("gamma_grid", _check(
                lambda v: isinstance(v, list) and v and all(_is_num(g) for g in v),
                "a nonempty list of finite numbers",
                lambda v: tuple(float(g) for g in v),
            ), _REQUIRED),
            ("epsilon", _EPSILON, 2.0),
            ("bound_method", _BOUND_METHOD, "exact"),
        ),
        header=("M", "gamma", "f_exact", "f_bound"),
        row_keys=lambda config: [
            {"M": m, "gamma": g} for m in config.m_grid for g in config.gamma_grid
        ],
        row=_oracle_rows, batch=lambda config: len(config.gamma_grid),  # one M
        metadata=lambda config, rows: {"bound_method": config.bound_method, "epsilon": config.epsilon},
        # no sizes, so no work: 60 rank-2 rows at M = 1024-4096 on a 2-CPU VM took 12 ms, 26 in a pool
    ),
}


def parse_config(text: str, experiment: str) -> SweepConfig:
    """Parse and validate a JSON sweep config; raises with every problem found."""
    if experiment not in EXPERIMENTS:
        raise ConfigValidationError([f"experiment: unknown kind {experiment!r}"])
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ConfigValidationError([f"config: invalid JSON ({exc})"]) from exc
    if not isinstance(raw, dict):
        raise ConfigValidationError(["config: top level must be a JSON object"])

    keys = (_SEED, *EXPERIMENTS[experiment].keys)
    problems = [
        f"{key}: unknown key for experiment '{experiment}'"
        for key in sorted(set(raw) - {name for name, _, _ in keys})
    ]
    values: dict = {}
    for name, check, default in keys:
        if name in raw:
            values[name] = check(problems, name, raw[name], values)
        elif default is _REQUIRED:
            problems.append(f"{name}: missing")
        else:
            values[name] = default
    if problems:
        raise ConfigValidationError(problems)
    return SweepConfig(experiment=experiment, **values)


def result_header(experiment: str, methods: tuple[str, ...] = ()) -> tuple[str, ...]:
    """Fixed, documented column order for each experiment."""
    if experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}")
    cols = EXPERIMENTS[experiment].header
    if experiment == "u1-fom" and "mc" in methods:
        cols += ("f_mc", "f_mc_stderr")
    return cols + ("error",)


def _preflight(config: SweepConfig, row: dict) -> int:
    """A row's estimated work, the sum of its experiment's `sizes`.

    Raises `ResourceCapError` if the largest size exceeds the cap: the
    config's ``fft_cap``, or `DEFAULT_FFT_CAP` for an experiment without one.
    Raises `OverflowError` for a key beyond float range, which no row can compute.
    """
    for value in row.values():
        float(value)
    sizes = EXPERIMENTS[config.experiment].sizes(config, row)
    what, worst = max(sizes, key=lambda size: size[1], default=("", 0))
    cap = getattr(config, "fft_cap", DEFAULT_FFT_CAP)
    if worst > cap:
        name = "fft_cap" if hasattr(config, "fft_cap") else "size cap"
        at = ", ".join(f"{key}={value}" for key, value in row.items())
        raise ResourceCapError(f"{what} {worst} exceeds {name} {cap} at {at}")
    return sum(size for _, size in sizes)


def _attempt(row: dict, step: Callable, *args) -> bool:
    """Call ``step(*args)``; a failure lands in ``row``'s error cell instead of raising."""
    try:
        step(*args)
        return True
    # RuntimeError and its subclasses (RecursionError, NotImplementedError) mark a
    # computation that failed where no input check could foresee it
    except (
        PhaseconvError, ValueError, OverflowError, FloatingPointError, RuntimeError, MemoryError
    ) as exc:
        # a bare MemoryError has no message; an empty cell would read as success
        row.update(error=str(exc) or type(exc).__name__, _cap=isinstance(exc, ResourceCapError))
        return False


def _compute_rows(config: SweepConfig, keys: list[dict]) -> list[dict]:
    """Fill in one batch of sweep rows; failures are captured, never raised.

    A row `_preflight` refuses fails alone, having allocated nothing, and the
    rest run as one call.  If that call fails they run again one row a call: a
    failed row keeps its key columns and the values computed before the failure.
    """
    rows = [{**key, "error": None} for key in keys]
    ready = [i for i, key in enumerate(keys) if _attempt(rows[i], _preflight, config, key)]
    run, batch = EXPERIMENTS[config.experiment].row, [rows[i] for i in ready]
    if batch and not _attempt(batch[0], run, config, batch) and len(batch) > 1:
        for i in ready:
            rows[i] = {**keys[i], "error": None}
            _attempt(rows[i], run, config, [rows[i]])
    return rows


def _row_work(config: SweepConfig, key: dict) -> int:
    try:
        return _preflight(config, key)
    except (ResourceCapError, OverflowError):
        return 0  # refused, or an N or M beyond float range: the row fails at once


def run_sweep(config: SweepConfig, jobs: int = 1) -> SweepResult:
    """Run all rows of a sweep; deterministic given the config, any jobs value.

    A sweep whose estimated work reaches `POOL_POINTS` runs its batches in a
    pool of min(``jobs``, batches, CPU count) workers if that is two or more,
    in-process otherwise.  The decision reads the config alone, never the clock.
    """
    start = time.perf_counter()
    experiment = EXPERIMENTS[config.experiment]
    keys, size = experiment.row_keys(config), experiment.batch(config)
    batches = [keys[i : i + size] for i in range(0, len(keys), size)]
    workers = min(jobs, len(batches), os.cpu_count() or 1)
    works = [sum(_row_work(config, key) for key in batch) for batch in batches] if workers > 1 else []
    if works and sum(works) >= POOL_POINTS:
        # a task takes as many batches as fit in a quarter of a worker's share if each
        # is the costliest: like batches share tasks, a geometric grid's do not
        chunk = max(1, sum(works) // (4 * workers * max(1, *works)))
        # through the module, so that the first pool start binds the name
        with sys.modules[__name__].ProcessPoolExecutor(max_workers=workers) as pool:
            done = pool.map(partial(_compute_rows, config), batches, chunksize=chunk)
            rows = [row for batch in done for row in batch]
    else:
        rows = [row for batch in batches for row in _compute_rows(config, batch)]
    header = result_header(config.experiment, getattr(config, "methods", ()))
    result = SweepResult(config.experiment, header, rows, experiment.metadata(config, rows))
    result.metadata.update(
        {
            "experiment": config.experiment,
            "seed": config.seed,
            "schema_version": SCHEMA_VERSION,
            "versions": {
                "phaseconv": __version__,
                "numpy": np.__version__,
                "python": ".".join(map(str, sys.version_info[:3])),
            },
            "wall_time_s": time.perf_counter() - start,
        }
    )
    return result


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _round_floats(obj):
    """Clamp floats to 12 significant digits so JSON round-trips losslessly."""
    if isinstance(obj, float):
        return float(format(obj, ".12g"))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def emit(result: SweepResult, fmt: str = "csv") -> str:
    """Render a sweep result's header columns as CSV (rows only) or JSON (rows plus metadata)."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(result.header)
        for row in result.rows:
            writer.writerow([_fmt_cell(row.get(col)) for col in result.header])
        return buf.getvalue()
    if fmt == "json":
        doc = {
            "experiment": result.experiment,
            "schema_version": SCHEMA_VERSION,
            "metadata": _round_floats(result.metadata),
            "header": list(result.header),
            "rows": [
                {col: _round_floats(row.get(col)) for col in result.header} for row in result.rows
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")


def exit_code_for(rows: list[dict]) -> int:
    if any(row.get("_cap") for row in rows):
        return 3
    if any(row.get("error") for row in rows):
        return 2
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaseconv",
        description="Sweep runner for phase-asymmetry interconversion numerics.",
    )
    parser.add_argument("experiment", choices=tuple(EXPERIMENTS), help="the sweep to run")
    parser.add_argument("--config", required=True, help="path to a JSON sweep config")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--jobs", type=int, default=None,
                        help="maximum worker processes, at most the CPU count (default: CPU "
                        "count); a sweep starts them only if its estimated work reaches "
                        "cli.POOL_POINTS, and its output is the same either way")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:  # --help
            raise
        return 1  # argparse has printed the usage error
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        config = parse_config(text, args.experiment)
    except ConfigValidationError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    if jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 1

    result = run_sweep(config, jobs=jobs)
    if args.format == "json":  # only JSON output carries metadata
        result.metadata["config_sha256"] = hashlib.sha256(
            json.dumps(json.loads(text), sort_keys=True).encode()
        ).hexdigest()
    code = exit_code_for(result.rows)
    try:
        text_out = emit(result, args.format)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text_out)
        else:
            sys.stdout.write(text_out)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    for row in result.rows:
        if row.get("error"):
            print(f"row error: {row['error']}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
