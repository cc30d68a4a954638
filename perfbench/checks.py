"""Independent checks of sweep outputs, computed apart from phaseconv.

Every check rebuilds the quantity it checks from the sweep's config with
NumPy and the standard library only; none reads phaseconv's code or a stored
copy of an earlier output.  Each check raises `CheckFailed` on a mismatch.

- Figure of merit: N- and M-copy spectra are rebuilt (binomial shapes in log
  space from ``math.lgamma``, other spectra by direct convolution) and the
  posterior-averaged fidelity is integrated by the midpoint rule on more than
  2 * (span_N + span_M) angles, where that rule is exact.  ``f_closed`` and
  ``gap`` are recomputed from their formulas.
- Monte Carlo: ``f_mc`` lies within 4 standard errors of that value.
- Posterior distance: ``tv_exact_gauss`` lies in [0, 1], decreases with N,
  and at the two smallest N equals a direct-sum recomputation.
- Typical set: ``n_classes``, ``delta_rho`` and ``epsilon`` come from a
  vectorized count of the compositions in the L1 ball and a multinomial sum.
- Gauss bound: (1 - delta) * sum post(gamma) exp(-M s2_max gamma^2) 2 pi / G,
  with s2_max the variance of the largest-variance class.
- Exact bound: class fidelities from prod_j |phi_j(gamma)|^(2 k_j).
- Oracle: f_bound <= f_exact + 1e-10, and f_exact(M) = f_exact(1)^M.
- Z_d: success probability by brute-force cyclic convolution.
- Output identity: outputs at --jobs 1 and --jobs 2 agree byte for byte
  (JSON after dropping ``wall_time_s``).

``python3 perfbench/checks.py`` runs `self_test`, which feeds every check a
perturbed copy of real outputs and expects a rejection.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi
FOM_TOL = 1e-9          # absolute, on figures of merit in [0, 1]
BOUND_RTOL = 1e-8       # relative, on certified bounds
# absolute, on posterior distances: phaseconv drops N-copy masses below 1e-15
# before taking square roots, which moves each amplitude sum by ~sqrt(1e-15)
TV_ATOL = 1e-7
MC_SIGMAS = 4.0
TAIL = 1e-30            # spectrum mass dropped at the tails, far below every tolerance


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------- spectra

def _variance(probs) -> float:
    p = np.asarray(probs, dtype=np.float64)
    n = np.arange(p.size)
    mean = float(n @ p)
    return float(((n - mean) ** 2) @ p)


def binomial_power(trials: int, q: float, copies: int) -> tuple[int, np.ndarray]:
    """Binomial(copies * trials, q) in log space, cut 13 standard deviations out."""
    total = trials * copies
    sd = math.sqrt(total * q * (1.0 - q))
    lo = max(0, math.floor(total * q - 13.0 * sd))
    hi = min(total, math.ceil(total * q + 13.0 * sd))
    head = math.lgamma(total + 1)
    lq, lr = math.log(q), math.log1p(-q)
    logp = [
        head - math.lgamma(k + 1) - math.lgamma(total - k + 1) + k * lq + (total - k) * lr
        for k in range(lo, hi + 1)
    ]
    return lo, np.exp(np.array(logp))


def _trim(offset: int, values: np.ndarray) -> tuple[int, np.ndarray]:
    keep = np.flatnonzero(values > TAIL)
    return offset + int(keep[0]), values[keep[0]: keep[-1] + 1]


def direct_power(probs, copies: int) -> tuple[int, np.ndarray]:
    """N-fold convolution power by direct convolution and repeated squaring."""
    acc, acc_off = np.array([1.0]), 0
    base, base_off = np.asarray(probs, dtype=np.float64), 0
    while copies:
        if copies & 1:
            acc_off, acc = _trim(acc_off + base_off, np.convolve(acc, base))
        copies >>= 1
        if copies:
            base_off, base = _trim(2 * base_off, np.convolve(base, base))
    return acc_off, acc


def ncopy(spectrum: dict, copies: int) -> tuple[int, np.ndarray]:
    if spectrum["kind"] == "binomial":
        return binomial_power(spectrum["trials"], spectrum["q"], copies)
    return direct_power(spectrum["probs"], copies)


def midpoints(points: int) -> np.ndarray:
    return -math.pi + TWO_PI * (np.arange(points) + 0.5) / points


def _abs2_on_midpoints(values: np.ndarray, points: int) -> np.ndarray:
    """|sum_j v_j exp(i (offset + j) gamma_g)|^2 on the midpoint grid, by one FFT.

    The offset only adds a unit-modulus factor, so it drops out of |.|^2.
    """
    j = np.arange(values.size)
    s = points * np.fft.ifft(values * np.exp(1j * j * (math.pi / points - math.pi)), points)
    return s.real**2 + s.imag**2


def _abs2_direct(offset: int, values: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    s = np.exp(1j * np.outer(gamma, offset + np.arange(values.size))) @ values
    return s.real**2 + s.imag**2


def fom_reference(source: dict, n: int, target: dict, m: int) -> float:
    """Figure of merit by the midpoint rule on 2 * (span_N + span_M) + 3 angles."""
    _, p = ncopy(source, n)
    _, q = ncopy(target, m)
    points = 2 * (p.size - 1 + q.size - 1) + 3
    amp = _abs2_on_midpoints(np.sqrt(p / p.sum()), points)
    fid = _abs2_on_midpoints(q / q.sum(), points)
    return float(amp @ fid) / points


def posterior_density(source: dict, n: int, gamma: np.ndarray) -> np.ndarray:
    """Exact N-copy posterior density by a direct phase sum."""
    off, p = ncopy(source, n)
    return _abs2_direct(off, np.sqrt(p / p.sum()), gamma) / TWO_PI


# ---------------------------------------------------------------- outputs

def read_rows(path: Path, fmt: str) -> list[dict]:
    """Output rows, numbers as floats and empty cells as None."""
    text = path.read_text()
    if fmt == "json":
        return json.loads(text)["rows"]
    return [
        {k: (v or None) if k == "error" or v == "" else float(v) for k, v in raw.items()}
        for raw in csv.DictReader(io.StringIO(text))
    ]


def normalized(path: Path, fmt: str) -> bytes:
    """Output bytes without ``wall_time_s``, the one field phaseconv lets differ between runs."""
    data = path.read_bytes()
    if fmt != "json":
        return data
    doc = json.loads(data)
    doc["metadata"].pop("wall_time_s", None)
    return json.dumps(doc, sort_keys=True).encode()


def check_identity(a: Path, b: Path, fmt: str) -> None:
    _require(normalized(a, fmt) == normalized(b, fmt),
             f"{a.name}: outputs differ between {a.parent.name} and {b.parent.name}")


# ---------------------------------------------------------------- checks

def check_fom(sweep: dict, rows: list[dict]) -> None:
    src, tgt = sweep["spectra"]["source"], sweep["spectra"]["target"]
    var_s, var_t = _variance(src["probs"]), _variance(tgt["probs"])
    for row in rows:
        n, m = int(row["N"]), int(row["M"])
        at = f"{sweep['name']} N={n} M={m}"
        closed = 1.0 / math.sqrt(1.0 + m * var_t / (2.0 * n * var_s))
        _require(abs(row["f_closed"] - closed) <= 1e-11, f"{at}: f_closed {row['f_closed']} != {closed}")
        _require(abs(row["gap"] - (row["f_exact"] - row["f_closed"])) <= 1e-11,
                 f"{at}: gap is not f_exact - f_closed")
        ref = fom_reference(src, n, tgt, m)
        _require(abs(row["f_exact"] - ref) <= FOM_TOL, f"{at}: f_exact {row['f_exact']} != quadrature {ref}")
        if row.get("f_mc") is not None:
            sigmas = abs(row["f_mc"] - ref) / row["f_mc_stderr"]
            _require(sigmas <= MC_SIGMAS, f"{at}: f_mc {row['f_mc']} is {sigmas:.1f} standard errors from {ref}")


def tv_reference(source: dict, n: int, points: int) -> float:
    gamma = midpoints(points)
    exact = posterior_density(source, n, gamma)
    v = n * _variance(source["probs"])
    gauss = math.sqrt(2.0 * v / math.pi) * np.exp(-2.0 * v * gamma * gamma)
    return float(0.5 * np.abs(exact - gauss).sum() * TWO_PI / points)


def check_posterior(sweep: dict, rows: list[dict]) -> None:
    name, tv = sweep["name"], [row["tv_exact_gauss"] for row in rows]
    _require(all(0.0 <= t <= 1.0 for t in tv), f"{name}: distance outside [0, 1]: {tv}")
    _require(all(b < a for a, b in zip(tv, tv[1:])), f"{name}: distance does not decrease with N: {tv}")
    points = sweep["config"].get("grid_points", 8192)
    for row in rows[:2]:
        n = int(row["N"])
        ref = tv_reference(sweep["spectra"]["source"], n, points)
        _require(abs(row["tv_exact_gauss"] - ref) <= TV_ATOL,
                 f"{name} N={n}: tv_exact_gauss {row['tv_exact_gauss']} != direct {ref}")


def typical_classes(weights, m: int, eps: float) -> tuple[np.ndarray, float]:
    """Compositions k of m with ||k - m t||_1 <= eps m (rank >= 2), and the residual mass."""
    t = np.asarray(weights, dtype=np.float64)
    axes = np.meshgrid(*[np.arange(m + 1)] * (t.size - 1), indexing="ij")
    free = np.stack(axes, -1).reshape(-1, t.size - 1)
    free = free[free.sum(axis=1) <= m]
    counts = np.column_stack([free, m - free.sum(axis=1)])
    counts = counts[np.abs(counts - m * t).sum(axis=1) <= eps * m + 1e-9]
    lg = np.array([math.lgamma(k + 1) for k in range(m + 1)])
    log_w = lg[m] - lg[counts].sum(axis=1) + counts @ np.log(t)
    return counts, max(0.0, 1.0 - math.fsum(np.exp(log_w)))


def check_mixed_bound(sweep: dict, rows: list[dict]) -> None:
    cfg, spectra = sweep["config"], sweep["spectra"]
    comps = spectra["components"]
    points = cfg["grid_points"]
    gamma = midpoints(points)
    exact = cfg.get("bound_method", "gauss") == "exact"
    if exact:  # |phi_j(gamma)| of each single-copy component, by a direct sum
        phis = [np.abs(np.exp(1j * np.outer(gamma, np.arange(len(c["probs"])))) @ c["probs"]) for c in comps]
    variances = np.array([_variance(c["probs"]) for c in comps])
    for row in rows:
        n, m = int(row["N"]), int(row["M"])
        at = f"{sweep['name']} N={n} M={m}"
        eps = cfg.get("epsilon") or (math.log(m) / m) ** 0.25
        _require(abs(row["epsilon"] - eps) <= 1e-11 * eps, f"{at}: epsilon {row['epsilon']} != {eps}")
        counts, delta = typical_classes(cfg["target"]["weights"], m, eps)
        _require(int(row["n_classes"]) == len(counts), f"{at}: n_classes {row['n_classes']} != {len(counts)}")
        _require(abs(row["delta_rho"] - delta) <= 1e-10 + 1e-6 * delta,
                 f"{at}: delta_rho {row['delta_rho']} != {delta}")
        if exact:
            fids = [np.prod([phi ** (2 * k) for phi, k in zip(phis, ks)], axis=0) for ks in counts]
            floor = np.min(fids, axis=0)
        else:
            s2_max = float(np.max(counts @ variances) / m)
            floor = np.exp(-m * s2_max * gamma * gamma)
        post = posterior_density(spectra["source"], n, gamma)
        ref = (1.0 - delta) * float(post @ floor) * TWO_PI / points
        _require(abs(row["f_bound"] - ref) <= BOUND_RTOL * ref, f"{at}: f_bound {row['f_bound']} != {ref}")


def check_oracle(sweep: dict, rows: list[dict]) -> None:
    single = {row["gamma"]: row["f_exact"] for row in rows if int(row["M"]) == 1}
    for row in rows:
        m, f_exact, f_bound = int(row["M"]), row["f_exact"], row["f_bound"]
        at = f"{sweep['name']} M={m} gamma={row['gamma']}"
        _require(0.0 <= f_exact <= 1.0 + 1e-12, f"{at}: f_exact {f_exact} outside [0, 1]")
        _require(f_bound <= f_exact + 1e-10, f"{at}: f_bound {f_bound} > f_exact {f_exact}")
        if row["gamma"] in single:
            power = single[row["gamma"]] ** m
            _require(abs(f_exact - power) <= 1e-8, f"{at}: f_exact {f_exact} != F_1^M {power}")


def check_zd(sweep: dict, rows: list[dict]) -> None:
    p = np.asarray(sweep["config"]["probs"], dtype=np.float64)
    d = p.size
    dft = [sum(p[j] * complex(math.cos(TWO_PI * j * k / d), math.sin(TWO_PI * j * k / d)) for j in range(d))
           for k in range(1, d)]
    eps = max(abs(z) for z in dft)
    for row in rows:
        n = int(row["N"])
        c = np.zeros(d)
        c[0] = 1.0
        for _ in range(n):
            c = sum(c[i] * np.roll(p, i) for i in range(d))
        success = float(np.sqrt(c).sum() ** 2 / d)
        at = f"{sweep['name']} N={n}"
        _require(int(row["d"]) == d, f"{at}: dimension d {row['d']} != {d}")
        _require(abs(row["success_prob"] - success) <= 1e-10,
                 f"{at}: success_prob {row['success_prob']} != {success}")
        _require(abs(row["epsilon"] - eps) <= 1e-10, f"{at}: epsilon {row['epsilon']} != {eps}")


CHECKS = {
    "u1-fom": check_fom,
    "u1-rates": check_fom,
    "u1-posterior": check_posterior,
    "mixed-bound": check_mixed_bound,
    "mixed-oracle": check_oracle,
    "zd": check_zd,
}


def check_sweep(sweep: dict, rows: list[dict]) -> None:
    """Check the rows that did not fail; failed rows are counted, not checked."""
    CHECKS[sweep["experiment"]](sweep, [row for row in rows if not row.get("error")])


# ---------------------------------------------------------------- self-test

def _self_test_plan() -> list[dict]:
    from workloads import binomial_spectrum, mixture_config, spectrum_config, sweep

    fair = binomial_spectrum(1, 0.5)
    bit = binomial_spectrum(1, 0.3)
    tri = {"probs": [0.25, 0.5, 0.25], "kind": "direct"}
    rank2, rank3 = [fair, tri], [fair, tri, bit]
    mix2 = mixture_config(rank2, [0.6, 0.4])
    return [
        sweep("fom", "u1-fom", {
            "source": spectrum_config(tri), "target": spectrum_config(fair), "n_grid": [200, 800],
            "m_schedule": {"a": 0.5}, "methods": ["exact", "closed", "mc"], "seed": 3,
        }, {"source": tri, "target": fair}),
        sweep("posterior", "u1-posterior", {
            "source": spectrum_config(bit), "n_grid": [64, 256, 1024], "grid_points": 1024,
        }, {"source": bit}),
        sweep("gauss", "mixed-bound", {
            "source": spectrum_config(fair), "target": mixture_config(rank3, [0.3, 0.3, 0.4]),
            "n_grid": [100, 200], "m_schedule": {"list": [16, 32]}, "grid_points": 513,
        }, {"source": fair, "components": rank3}),
        sweep("exact", "mixed-bound", {
            "source": spectrum_config(bit), "target": mix2, "n_grid": [100, 200],
            "m_schedule": {"list": [8, 16]}, "bound_method": "exact", "grid_points": 513,
        }, {"source": bit, "components": rank2}),
        sweep("oracle", "mixed-oracle", {"target": mix2, "m_grid": [1, 2], "gamma_grid": [0.2, 0.6]},
              {"components": rank2}),
        sweep("zd", "zd", {"probs": [0.5, 0.3, 0.2], "n_grid": [1, 2, 5]}, {}),
    ]


def _perturbations():
    """(sweep, corruption applied to its rows in place, text the rejection must contain).

    Each corruption keeps the other checked relations intact, so the check
    it targets is the one that must reject it.
    """
    def shift(index, **deltas):
        def corrupt(rows):
            for key, delta in deltas.items():
                rows[index][key] += delta
        return corrupt

    def scale(index, key, factor):
        def corrupt(rows):
            rows[index][key] *= factor
        return corrupt

    def swap_tv(rows):
        rows[1]["tv_exact_gauss"], rows[2]["tv_exact_gauss"] = rows[2]["tv_exact_gauss"], rows[1]["tv_exact_gauss"]

    def bound_above_exact(rows):
        rows[-1]["f_bound"] = rows[-1]["f_exact"] + 1e-6

    def mc_off(rows):
        rows[1]["f_mc"] += 5 * rows[1]["f_mc_stderr"]

    def set_value(index, key, value):
        def corrupt(rows):
            rows[index][key] = value
        return corrupt

    return [
        ("fom", shift(0, f_exact=1e-7, gap=1e-7), "!= quadrature"),
        ("fom", shift(0, f_closed=1e-9, gap=-1e-9), "f_closed"),
        ("fom", shift(0, gap=1e-9), "gap is not"),
        ("fom", mc_off, "standard errors"),
        ("posterior", shift(0, tv_exact_gauss=1e-6), "!= direct"),
        ("posterior", swap_tv, "does not decrease"),
        ("posterior", set_value(-1, "tv_exact_gauss", -1e-3), "outside [0, 1]"),
        ("gauss", shift(0, n_classes=1), "n_classes"),
        ("gauss", shift(0, delta_rho=1e-6), "delta_rho"),
        ("gauss", shift(0, epsilon=1e-9), "epsilon"),
        ("gauss", scale(1, "f_bound", 1 - 1e-6), "f_bound"),
        ("exact", scale(1, "f_bound", 1 + 1e-6), "f_bound"),
        ("oracle", bound_above_exact, "> f_exact"),
        ("oracle", scale(-1, "f_exact", 1 - 1e-6), "F_1^M"),
        ("oracle", set_value(-1, "f_exact", 1.5), "outside [0, 1]"),
        ("zd", shift(2, success_prob=-1e-7), "success_prob"),
        ("zd", shift(0, epsilon=1e-7), "epsilon"),
        ("zd", shift(1, d=1), "dimension d"),
    ]


def self_test(workdir: Path) -> int:
    """Check tiny real outputs, then expect every perturbed copy to be rejected.

    Returns the number of perturbations rejected; raises `CheckFailed` when a
    check accepts a corrupted output, rejects it for another reason, or
    rejects a correct one.
    """
    from phaseconv import cli

    plan = _self_test_plan()
    outputs, json_outputs = {}, []
    for jobs in (1, 2):
        out_dir = workdir / f"selftest-jobs{jobs}"
        out_dir.mkdir(parents=True, exist_ok=True)
        for sweep in plan:
            config = out_dir / f"{sweep['name']}.json"
            config.write_text(json.dumps(sweep["config"]))
            formats = ("csv", "json") if sweep["name"] == "zd" else ("csv",)
            for fmt in formats:
                out = out_dir / f"{sweep['name']}.out.{fmt}"
                argv = [sweep["experiment"], "--config", str(config), "--out", str(out),
                        "--format", fmt, "--jobs", str(jobs)]
                code = cli.main(argv)
                _require(code == 0, f"self-test sweep {sweep['name']} exited {code}")
                (outputs.setdefault(sweep["name"], []) if fmt == "csv" else json_outputs).append(out)
    by_name = {sweep["name"]: sweep for sweep in plan}
    rows = {name: read_rows(paths[0], "csv") for name, paths in outputs.items()}
    for name, sweep in by_name.items():
        check_sweep(sweep, rows[name])
        check_identity(*outputs[name], "csv")
    # the JSON outputs differ in wall_time_s, which the identity check drops
    check_sweep(by_name["zd"], read_rows(json_outputs[0], "json"))
    check_identity(*json_outputs, "json")

    rejected = 0
    for name, corrupt, expected in _perturbations():
        bad = copy.deepcopy(rows[name])
        corrupt(bad)
        try:
            check_sweep(by_name[name], bad)
        except CheckFailed as exc:
            _require(expected in str(exc), f"self-test: a {name} corruption aimed at '{expected}' "
                                           f"was rejected as: {exc}")
            rejected += 1
            continue
        raise CheckFailed(f"self-test: a {name} corruption aimed at '{expected}' was accepted")
    a, b = outputs["zd"]
    b.write_bytes(b.read_bytes().replace(b"0.", b"1.", 1))
    a_json, b_json = json_outputs
    doc = json.loads(b_json.read_text())
    doc["rows"][0]["success_prob"] += 1e-9
    b_json.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for first, second, fmt in ((a, b, "csv"), (a_json, b_json, "json")):
        try:
            check_identity(first, second, fmt)
        except CheckFailed:
            rejected += 1
            continue
        raise CheckFailed(f"self-test: the identity check accepted a changed {fmt} output")
    return rejected


if __name__ == "__main__":
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here), str(here.parent / "src")]
    with tempfile.TemporaryDirectory(dir=here) as tmp:
        count = self_test(Path(tmp))
    print(f"self-test: {count} perturbed outputs rejected; every check passed on the real outputs")
