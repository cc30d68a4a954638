"""Batch front-end: config-driven sweeps with CSV/JSON output.

Usage:
    phaseconv <experiment> --config <path> [--out <path>] [--format csv|json]
                                           [--seed <u64>] [--jobs <n>]

Experiments: u1-fom, u1-posterior, u1-rates, zd, mixed-bound, mixed-oracle.
The config is a JSON object; unknown keys are rejected and validation reports
every problem at once.  Sweep rows are independent, so failures land in an
``error`` column instead of aborting the run, and the row order never depends
on the parallelism degree.

Exit codes: 0 success, 1 validation or I/O error, 2 some rows failed,
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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import __version__
from .distributions import IntDistribution
from .errors import (
    CombinatorialBlowupError,
    ConfigValidationError,
    PhaseconvError,
    ResourceCapError,
)
from .mixed import (
    MixedTarget,
    exact_mixed_fidelity_small,
    fidelity_mixed_lower_bound,
    figure_of_merit_mixed_bound,
    typical_decomposition,
)
from .u1 import (
    CONVERGENCE_THRESHOLD,
    DEFAULT_FFT_CAP,
    NumberState,
    PosteriorSpec,
    RateSchedule,
    ensure_fft_cap,
    figure_of_merit_closed,
    figure_of_merit_exact,
    figure_of_merit_mc,
    posterior_gauss_distance,
)
from .zd import (
    CyclicCoeffs,
    contraction_rate,
    success_probability,
    success_slope_fit,
)

SCHEMA_VERSION = 1
EXPERIMENTS = ("u1-fom", "u1-posterior", "u1-rates", "zd", "mixed-bound", "mixed-oracle")
DEFAULT_MC_DRAWS = 4096
DEFAULT_CLASS_CAP = 10**6
DEFAULT_DIM_CAP = 4096
_METHODS = ("exact", "closed", "mc")

_ALLOWED_KEYS = {
    "u1-fom": {"source", "target", "n_grid", "m_schedule", "methods", "mc_draws", "seed", "fft_cap"},
    "u1-posterior": {"source", "n_grid", "grid_points", "seed"},
    "u1-rates": {"source", "target", "n_grid", "m_schedule", "threshold", "seed", "fft_cap"},
    "zd": {"probs", "d", "n_grid", "seed"},
    "mixed-bound": {
        "source", "target", "n_grid", "m_schedule", "epsilon", "bound_method",
        "grid_points", "class_cap", "seed",
    },
    "mixed-oracle": {"target", "m_grid", "gamma_grid", "epsilon", "bound_method", "dim_cap", "seed"},
}


@dataclass(frozen=True)
class SweepConfig:
    """Validated sweep inputs, primitives only so worker processes can unpickle it."""

    experiment: str
    seed: int = 0
    source_probs: tuple[float, ...] | None = None
    source_offset: int = 0
    target_probs: tuple[float, ...] | None = None
    target_offset: int = 0
    components: tuple[tuple[tuple[float, ...], int], ...] | None = None
    weights: tuple[float, ...] | None = None
    n_grid: tuple[int, ...] = ()
    m_kind: str | None = None  # "power" | "linear" | "list"
    m_value: float | None = None
    m_list: tuple[int, ...] | None = None
    methods: tuple[str, ...] = ("exact", "closed")
    mc_draws: int = DEFAULT_MC_DRAWS
    fft_cap: int = DEFAULT_FFT_CAP
    grid_points: int | None = None
    threshold: float = CONVERGENCE_THRESHOLD
    zd_probs: tuple[float, ...] | None = None
    epsilon: float | None = None
    bound_method: str = "gauss"
    class_cap: int = DEFAULT_CLASS_CAP
    dim_cap: int = DEFAULT_DIM_CAP
    m_grid: tuple[int, ...] = ()
    gamma_grid: tuple[float, ...] = ()

    def source_state(self) -> NumberState:
        return _build_state(self.source_probs, self.source_offset)

    def target_state(self) -> NumberState:
        return _build_state(self.target_probs, self.target_offset)

    def mixed_target(self) -> MixedTarget:
        states = tuple(_build_state(p, off) for p, off in self.components)
        return MixedTarget(states, self.weights)

    def m_for(self, index: int, n: int) -> int:
        if self.m_kind == "list":
            return self.m_list[index]
        return RateSchedule(self.m_kind, self.m_value).m_for(n)


@dataclass
class SweepResult:
    experiment: str
    header: tuple[str, ...]
    rows: list[dict]
    metadata: dict = field(default_factory=dict)


def _build_state(probs, offset) -> NumberState:
    arr = np.asarray(probs, dtype=np.float64)
    return NumberState(IntDistribution.from_raw(int(offset), arr / arr.sum(), trim_threshold=0.0))


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _take_prob_list(problems: list, f: str, value, min_len: int = 1):
    if not isinstance(value, list) or len(value) < min_len:
        problems.append(f"{f}: expected a list of at least {min_len} probabilities")
        return None
    if not all(_is_num(x) for x in value):
        problems.append(f"{f}: entries must be finite numbers")
        return None
    if any(x < 0 for x in value):
        problems.append(f"{f}: entries must be nonnegative")
        return None
    total = math.fsum(value)
    if abs(total - 1.0) > 1e-9:
        problems.append(f"{f}: probabilities sum to {total:.6g}, expected 1")
        return None
    if max(value) == 0:
        problems.append(f"{f}: all entries are zero")
        return None
    return tuple(value)


def _take_spectrum(problems: list, f: str, value):
    """Validate a pure-state spectrum object {"probs": [...], "offset": int}."""
    if not isinstance(value, dict):
        problems.append(f"{f}: expected an object with 'probs' and optional 'offset'")
        return None
    unknown = set(value) - {"probs", "offset"}
    if unknown:
        problems.append(f"{f}: unknown keys {sorted(unknown)}")
    if "probs" not in value:
        problems.append(f"{f}.probs: missing")
        return None
    probs = _take_prob_list(problems, f + ".probs", value["probs"])
    offset = value.get("offset", 0)
    if not _is_int(offset) or offset < 0:
        problems.append(f"{f}.offset: expected a nonnegative integer")
        return None
    if probs is None:
        return None
    arr = np.array(probs)
    nz = np.flatnonzero(arr)
    if np.any(arr[nz[0]: nz[-1] + 1] == 0):
        problems.append(f"{f}.probs: interior zeros make the spectrum gapped")
        return None
    return probs, offset


def _take_int_grid(problems: list, f: str, value, *, increasing: bool = True):
    if not isinstance(value, list) or not value:
        problems.append(f"{f}: expected a nonempty list of positive integers")
        return None
    if not all(_is_int(x) and x >= 1 for x in value):
        problems.append(f"{f}: entries must be integers >= 1")
        return None
    if increasing and any(b <= a for a, b in zip(value, value[1:])):
        problems.append(f"{f}: entries must be strictly increasing")
        return None
    return tuple(value)


def _take_m_schedule(problems: list, value, n_len: int | None):
    """Validate the schedule shape; the list-length check needs a valid n_grid."""
    if not isinstance(value, dict) or len(value) != 1 or next(iter(value)) not in ("a", "c", "list"):
        problems.append("m_schedule: expected exactly one of {'a': ...}, {'c': ...}, {'list': [...]}")
        return None
    key, val = next(iter(value.items()))
    if key == "a":
        if not _is_num(val) or not (0 < val <= 1):
            problems.append("m_schedule.a: exponent must lie in (0, 1]")
            return None
        return ("power", float(val), None)
    if key == "c":
        if not _is_num(val) or val <= 0:
            problems.append("m_schedule.c: slope must be positive")
            return None
        return ("linear", float(val), None)
    lst = _take_int_grid(problems, "m_schedule.list", val, increasing=False)
    if lst is None:
        return None
    if n_len is not None and len(lst) != n_len:
        problems.append(f"m_schedule.list: length {len(lst)} does not match n_grid length {n_len}")
        return None
    return ("list", None, lst)


def parse_config(text: str, experiment: str) -> SweepConfig:
    """Parse and validate a JSON sweep config; raises with every problem found."""
    if experiment not in EXPERIMENTS:
        raise ConfigValidationError([f"experiment: unknown kind {experiment!r}"])
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigValidationError([f"config: invalid JSON ({exc})"]) from exc
    if not isinstance(raw, dict):
        raise ConfigValidationError(["config: top level must be a JSON object"])

    problems: list[str] = []
    unknown = set(raw) - _ALLOWED_KEYS[experiment]
    for key in sorted(unknown):
        problems.append(f"{key}: unknown key for experiment '{experiment}'")

    fields: dict = {"experiment": experiment}

    seed = raw.get("seed", 0)
    if not _is_int(seed) or not (0 <= seed < 2**64):
        problems.append("seed: expected an integer in [0, 2^64)")
    else:
        fields["seed"] = seed

    def grab_source():
        if "source" not in raw:
            problems.append("source: missing")
        else:
            spec = _take_spectrum(problems, "source", raw["source"])
            if spec:
                fields["source_probs"], fields["source_offset"] = spec

    def grab_target_pure():
        if "target" not in raw:
            problems.append("target: missing")
        else:
            spec = _take_spectrum(problems, "target", raw["target"])
            if spec:
                fields["target_probs"], fields["target_offset"] = spec

    def grab_target_mixed():
        val = raw.get("target")
        if not isinstance(val, dict) or set(val) != {"components", "weights"}:
            problems.append("target: expected {'components': [...], 'weights': [...]}")
            return
        comps = val["components"]
        if not isinstance(comps, list) or not comps:
            problems.append("target.components: expected a nonempty list of spectra")
            return
        parsed = []
        for i, comp in enumerate(comps):
            spec = _take_spectrum(problems, f"target.components[{i}]", comp)
            if spec:
                parsed.append(spec)
        weights = val["weights"]
        ok = isinstance(weights, list) and all(_is_num(w) for w in weights)
        if not ok:
            problems.append("target.weights: expected a list of numbers")
            return
        if len(weights) != len(comps):
            problems.append(
                f"target.weights: length {len(weights)} does not match {len(comps)} components"
            )
            return
        if any(w <= 0 for w in weights):
            problems.append("target.weights: weights must be strictly positive")
            return
        total = math.fsum(weights)
        if abs(total - 1.0) > 1e-9:
            problems.append(f"target.weights: weights sum to {total:.6g}, expected 1")
            return
        if len(parsed) == len(comps):
            fields["components"] = tuple(parsed)
            fields["weights"] = tuple(float(w) / total for w in weights)

    def grab_n_grid():
        if "n_grid" not in raw:
            problems.append("n_grid: missing")
        else:
            grid = _take_int_grid(problems, "n_grid", raw["n_grid"])
            if grid:
                fields["n_grid"] = grid

    def grab_m_schedule():
        if "m_schedule" not in raw:
            problems.append("m_schedule: missing")
        else:
            n_len = len(fields["n_grid"]) if "n_grid" in fields else None
            sched = _take_m_schedule(problems, raw["m_schedule"], n_len)
            if sched:
                fields["m_kind"], fields["m_value"], fields["m_list"] = sched

    def grab_cap(key: str, default: int):
        val = raw.get(key, default)
        if not _is_int(val) or val < 1:
            problems.append(f"{key}: expected a positive integer")
        else:
            fields[key] = val

    def grab_optional_grid_points():
        val = raw.get("grid_points")
        if val is not None:
            if not _is_int(val) or val < 16:
                problems.append("grid_points: expected an integer >= 16")
            else:
                fields["grid_points"] = val

    def grab_epsilon():
        val = raw.get("epsilon")
        if val is not None:
            if not _is_num(val) or not (0 < val <= 2):
                problems.append("epsilon: expected a number in (0, 2]")
            else:
                fields["epsilon"] = float(val)

    def grab_bound_method(default: str):
        val = raw.get("bound_method", default)
        if val not in ("gauss", "exact"):
            problems.append("bound_method: expected 'gauss' or 'exact'")
        else:
            fields["bound_method"] = val

    if experiment == "u1-fom":
        grab_source()
        grab_target_pure()
        grab_n_grid()
        grab_m_schedule()
        methods = raw.get("methods", ["exact", "closed"])
        if (
            not isinstance(methods, list)
            or not methods
            or len(set(methods)) != len(methods)
            or not set(methods) <= set(_METHODS)
        ):
            problems.append("methods: expected a nonempty subset of ['exact', 'closed', 'mc']")
        else:
            fields["methods"] = tuple(m for m in _METHODS if m in methods)
        draws = raw.get("mc_draws", DEFAULT_MC_DRAWS)
        if not _is_int(draws) or draws < 100:
            problems.append("mc_draws: expected an integer >= 100")
        else:
            fields["mc_draws"] = draws
        grab_cap("fft_cap", DEFAULT_FFT_CAP)
    elif experiment == "u1-posterior":
        grab_source()
        grab_n_grid()
        grab_optional_grid_points()
    elif experiment == "u1-rates":
        grab_source()
        grab_target_pure()
        grab_n_grid()
        grab_m_schedule()
        thr = raw.get("threshold", CONVERGENCE_THRESHOLD)
        if not _is_num(thr) or not (0 < thr < 1):
            problems.append("threshold: expected a number in (0, 1)")
        else:
            fields["threshold"] = float(thr)
        grab_cap("fft_cap", DEFAULT_FFT_CAP)
    elif experiment == "zd":
        probs = None
        if "probs" not in raw:
            problems.append("probs: missing")
        else:
            probs = _take_prob_list(problems, "probs", raw["probs"], min_len=2)
            if probs:
                fields["zd_probs"] = probs
        if "d" in raw:
            if not _is_int(raw["d"]) or raw["d"] < 2:
                problems.append("d: expected an integer >= 2")
            elif probs and raw["d"] != len(probs):
                problems.append(f"d: {raw['d']} does not match len(probs) = {len(probs)}")
        grab_n_grid()
    elif experiment == "mixed-bound":
        grab_source()
        grab_target_mixed()
        grab_n_grid()
        grab_m_schedule()
        grab_epsilon()
        grab_bound_method("gauss")
        grab_optional_grid_points()
        grab_cap("class_cap", DEFAULT_CLASS_CAP)
    elif experiment == "mixed-oracle":
        grab_target_mixed()
        grid = None
        if "m_grid" not in raw:
            problems.append("m_grid: missing")
        else:
            grid = _take_int_grid(problems, "m_grid", raw["m_grid"])
            if grid:
                fields["m_grid"] = grid
        gammas = raw.get("gamma_grid")
        if not isinstance(gammas, list) or not gammas or not all(_is_num(g) for g in gammas):
            problems.append("gamma_grid: expected a nonempty list of finite numbers")
        else:
            fields["gamma_grid"] = tuple(float(g) for g in gammas)
        grab_epsilon()
        grab_bound_method("exact")
        grab_cap("dim_cap", DEFAULT_DIM_CAP)

    if problems:
        raise ConfigValidationError(problems)
    return SweepConfig(**fields)


def result_header(experiment: str, methods: tuple[str, ...] = ()) -> tuple[str, ...]:
    """Fixed, documented column order for each experiment."""
    if experiment in ("u1-fom", "u1-rates"):
        cols = ["N", "M", "f_exact", "f_closed", "gap"]
        if experiment == "u1-fom" and "mc" in methods:
            cols += ["f_mc", "f_mc_stderr"]
    elif experiment == "u1-posterior":
        cols = ["N", "tv_exact_gauss"]
    elif experiment == "zd":
        cols = ["d", "N", "success_prob", "epsilon"]
    elif experiment == "mixed-bound":
        cols = ["N", "M", "f_bound", "delta_rho", "epsilon", "n_classes"]
    elif experiment == "mixed-oracle":
        cols = ["M", "gamma", "f_exact", "f_bound"]
    else:
        raise ValueError(f"unknown experiment {experiment!r}")
    return tuple(cols + ["error"])


def _row_keys(config: SweepConfig) -> list[tuple]:
    exp = config.experiment
    if exp in ("u1-fom", "u1-rates", "mixed-bound"):
        return [(n, config.m_for(i, n)) for i, n in enumerate(config.n_grid)]
    if exp in ("u1-posterior", "zd"):
        return [(n,) for n in config.n_grid]
    if exp == "mixed-oracle":
        return [(m, g) for m in config.m_grid for g in config.gamma_grid]
    raise ValueError(f"unknown experiment {exp!r}")


def _compute_row(config: SweepConfig, key: tuple) -> dict:
    """Evaluate one sweep row; failures are captured, never raised."""
    exp = config.experiment
    row: dict = {}
    try:
        if exp == "u1-fom":
            n, m = key
            row = {"N": n, "M": m}
            source, target = config.source_state(), config.target_state()
            ensure_fft_cap(source, n, target, m, config.fft_cap)
            if "exact" in config.methods:
                row["f_exact"] = figure_of_merit_exact(source, n, target, m)
            if "closed" in config.methods:
                row["f_closed"] = figure_of_merit_closed(
                    source.variance, n, target.variance, m
                )
            if "exact" in config.methods and "closed" in config.methods:
                row["gap"] = row["f_exact"] - row["f_closed"]
            if "mc" in config.methods:
                rng = np.random.default_rng(np.random.SeedSequence([config.seed, n, m]))
                est, err = figure_of_merit_mc(source, n, target, m, config.mc_draws, rng)
                row["f_mc"], row["f_mc_stderr"] = est, err
        elif exp == "u1-rates":
            n, m = key
            row = {"N": n, "M": m}
            source, target = config.source_state(), config.target_state()
            ensure_fft_cap(source, n, target, m, config.fft_cap)
            row["f_exact"] = figure_of_merit_exact(source, n, target, m)
            row["f_closed"] = figure_of_merit_closed(source.variance, n, target.variance, m)
            row["gap"] = row["f_exact"] - row["f_closed"]
        elif exp == "u1-posterior":
            (n,) = key
            row = {"N": n}
            spec = PosteriorSpec.for_copies(config.source_state(), n)
            row["tv_exact_gauss"] = posterior_gauss_distance(
                spec, config.grid_points or 8192
            )
        elif exp == "zd":
            (n,) = key
            source = CyclicCoeffs(np.array(config.zd_probs))
            row = {"d": source.d, "N": n}
            row["success_prob"] = success_probability(source, n)
            row["epsilon"] = contraction_rate(source)
        elif exp == "mixed-bound":
            n, m = key
            row = {"N": n, "M": m}
            res = figure_of_merit_mixed_bound(
                config.source_state(),
                n,
                config.mixed_target(),
                m,
                epsilon=config.epsilon,
                method=config.bound_method,
                grid_points=config.grid_points,
                class_cap=config.class_cap,
            )
            row["f_bound"] = res.f_bound
            row["delta_rho"] = res.decomposition.residual_mass
            row["epsilon"] = res.decomposition.epsilon_used
            row["n_classes"] = res.decomposition.n_classes
        elif exp == "mixed-oracle":
            m, gamma = key
            row = {"M": m, "gamma": gamma}
            target = config.mixed_target()
            row["f_exact"] = exact_mixed_fidelity_small(
                target, m, gamma, dim_cap=config.dim_cap
            )
            eps = config.epsilon if config.epsilon is not None else 2.0
            row["f_bound"] = fidelity_mixed_lower_bound(
                target, m, gamma, epsilon=eps, method=config.bound_method,
                class_cap=config.class_cap,
            )
        row["error"] = None
    except (ResourceCapError, CombinatorialBlowupError) as exc:
        row["error"] = str(exc)
        row["_cap"] = True
    # RuntimeError is what the dense oracle's multiplicativity guard raises
    except (
        PhaseconvError, ValueError, OverflowError, FloatingPointError, RuntimeError, MemoryError
    ) as exc:
        # a bare MemoryError has no message; an empty cell would read as success
        row["error"] = str(exc) or type(exc).__name__
    return row


def _attach_metadata(config: SweepConfig, result: SweepResult) -> None:
    rows, meta = result.rows, result.metadata
    clean = [r for r in rows if not r["error"]]
    exp = config.experiment
    if exp == "u1-rates":
        meta["schedule"] = RateSchedule(config.m_kind, config.m_value).label \
            if config.m_kind != "list" else "M=list"
        meta["threshold"] = config.threshold
        if len(clean) == len(rows) and rows:
            increasing = all(
                b["f_exact"] > a["f_exact"] for a, b in zip(clean, clean[1:])
            )
            converged = increasing and clean[-1]["f_exact"] > config.threshold
            meta["verdict"] = "converges" if converged else "plateaus"
        else:
            meta["verdict"] = "indeterminate"
    elif exp == "u1-posterior":
        if len(clean) == len(rows) and len(rows) >= 2:
            meta["tv_ratios"] = [
                a["tv_exact_gauss"] / b["tv_exact_gauss"] for a, b in zip(clean, clean[1:])
            ]
    elif exp == "zd":
        source = CyclicCoeffs(np.array(config.zd_probs))
        meta["epsilon"] = contraction_rate(source)
        if len(clean) == len(rows) and len(rows) >= 2:
            try:
                fit = success_slope_fit(source, [r["N"] for r in clean])
                meta["slope_fit"] = {
                    "slope": fit.slope,
                    "intercept": fit.intercept,
                    "slope_theory": fit.slope_theory,
                }
            except ValueError as exc:
                meta["slope_fit"] = {"error": str(exc)}
    elif exp == "mixed-bound":
        meta["bound_method"] = config.bound_method
    elif exp == "mixed-oracle":
        meta["bound_method"] = config.bound_method
        meta["epsilon"] = config.epsilon if config.epsilon is not None else 2.0


def run_sweep(config: SweepConfig, jobs: int = 1) -> SweepResult:
    """Run all rows of a sweep; deterministic given (config, seed), any jobs value."""
    start = time.perf_counter()
    keys = _row_keys(config)
    worker = partial(_compute_row, config)
    if jobs > 1 and len(keys) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(keys))) as pool:
            rows = list(pool.map(worker, keys))
    else:
        rows = [worker(k) for k in keys]
    result = SweepResult(
        config.experiment, result_header(config.experiment, config.methods), rows
    )
    _attach_metadata(config, result)
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
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
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
    """Render a sweep result as CSV (rows only) or JSON (rows plus metadata)."""
    rows = [{k: v for k, v in row.items() if not k.startswith("_")} for row in result.rows]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(result.header)
        for row in rows:
            writer.writerow([_fmt_cell(row.get(col)) for col in result.header])
        return buf.getvalue()
    if fmt == "json":
        doc = {
            "experiment": result.experiment,
            "schema_version": SCHEMA_VERSION,
            "metadata": _round_floats(result.metadata),
            "header": list(result.header),
            "rows": [
                {col: _round_floats(row.get(col)) for col in result.header} for row in rows
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaseconv",
        description="Sweep runner for phase-asymmetry interconversion numerics.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for exp in EXPERIMENTS:
        p = sub.add_parser(exp, help=f"run a {exp} sweep")
        p.add_argument("--config", required=True, help="path to a JSON sweep config")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
        p.add_argument("--jobs", type=int, default=None,
                       help="parallel workers (default: CPU count)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        config = parse_config(text, args.experiment)
    except ConfigValidationError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1
    if args.seed is not None:
        if not (0 <= args.seed < 2**64):
            print("error: --seed must lie in [0, 2^64)", file=sys.stderr)
            return 1
        config = replace(config, seed=args.seed)
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    if jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 1

    result = run_sweep(config, jobs=jobs)
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
