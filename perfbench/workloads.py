"""Seeded sweep plans for the three benchmark workloads.

A plan is a list of sweeps.  Each sweep names a CLI experiment, carries the
JSON config the CLI reads, the output format, and a ``spectra`` record saying
how each spectrum in the config was generated.  The independent checks use
that record to rebuild N-copy spectra without the program's code: binomial
shapes have a closed form, every other spectrum is convolved directly.

The seed picks spectrum shapes, mixture weights, Monte Carlo seeds and angle
grids.  It leaves the work per run alone: copy numbers, grid points and
spectrum variances are fixed, and where the seed picks a spectrum length
(cli-small's u1-rates sources, its Z_d sizes) the copy numbers scale with it
or the cost is negligible.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

WORKLOADS = ("u1-sampling", "mixed-bound", "cli-small")

# Times each timed child process runs a workload's sweeps.  The short
# cli-small sweeps repeat so that child start-up is a small part of a round.
REPEATS = {"u1-sampling": 1, "mixed-bound": 1, "cli-small": 3}

# phaseconv's default fft_cap; the largest u1-rates row of cli-small asks for
# 90% of it, so the pre-flight size estimate runs close to the cap
FFT_CAP = 1 << 23


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(workload.encode()), seed])


def binomial_spectrum(trials: int, q: float) -> dict:
    """Spectrum of Binomial(trials, q); its N-copy power is Binomial(N*trials, q)."""
    probs = [math.comb(trials, k) * q**k * (1.0 - q) ** (trials - k) for k in range(trials + 1)]
    total = math.fsum(probs)
    return {"probs": [p / total for p in probs], "kind": "binomial", "trials": trials, "q": q}


def three_level(rng: np.random.Generator) -> dict:
    """Spectrum on {0, 1, 2} with a random mean in [0.9, 1.1] and variance 0.5.

    Fixing the variance fixes the width of every N-copy spectrum, so the
    trimmed supports, and with them the cost of each row, do not move with
    the seed.
    """
    mean = float(rng.uniform(0.9, 1.1))
    c = (0.5 + mean * mean - mean) / 2.0
    b = mean - 2.0 * c
    return {"probs": [1.0 - b - c, b, c], "kind": "direct"}


def spectrum_config(spectrum: dict) -> dict:
    """The config form of a generated spectrum: probabilities only."""
    return {"probs": spectrum["probs"]}


def mixture_config(spectra: list[dict], weights: list[float]) -> dict:
    total = math.fsum(weights)
    return {"components": [spectrum_config(s) for s in spectra], "weights": [w / total for w in weights]}


def sweep(name, experiment, config, spectra, fmt="csv"):
    return {"name": name, "experiment": experiment, "config": config, "spectra": spectra, "format": fmt}


def _seed64(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def u1_sampling(rng: np.random.Generator) -> list[dict]:
    """Dense phase sums: posterior sampling, Monte Carlo fidelities, posterior distances."""
    fair = binomial_spectrum(1, 0.5)
    tri = three_level(rng)
    methods = ["exact", "closed", "mc"]
    return [
        sweep("fom-fair", "u1-fom", {
            "source": spectrum_config(fair), "target": spectrum_config(fair),
            "n_grid": [1000, 2000, 4000, 8000, 16000, 32000], "m_schedule": {"a": 0.6},
            "methods": methods, "seed": _seed64(rng),
        }, {"source": fair, "target": fair}),
        sweep("fom-3level", "u1-fom", {
            "source": spectrum_config(tri), "target": spectrum_config(fair),
            "n_grid": [500, 1000, 2000, 4000, 8000], "m_schedule": {"a": 0.6},
            "methods": methods, "seed": _seed64(rng),
        }, {"source": tri, "target": fair}),
        sweep("posterior-fair", "u1-posterior", {
            "source": spectrum_config(fair), "n_grid": [1024, 2048, 4096, 8192, 16384], "grid_points": 8192,
        }, {"source": fair}),
        sweep("posterior-3level", "u1-posterior", {
            "source": spectrum_config(tri), "n_grid": [512, 1024, 2048, 4096, 8192], "grid_points": 8192,
        }, {"source": tri}),
    ]


def _near_third(rng: np.random.Generator) -> list[float]:
    # every weight stays above half the widest epsilon (0.44 at M=128), so the
    # typical set never touches the simplex boundary and its size is set by M
    return [1.0 / 3.0 + float(x) for x in rng.uniform(-0.04, 0.04, 3)]


def mixed_bound(rng: np.random.Generator) -> list[dict]:
    """Type-class enumeration, per-class fidelity stacks and the dense Uhlmann oracle."""
    fair = binomial_spectrum(1, 0.5)
    tri = three_level(rng)
    bit = binomial_spectrum(1, float(rng.uniform(0.3, 0.7)))
    rank3 = [fair, tri, bit]
    rank2 = [fair, three_level(rng)]
    w2 = 0.5 + float(rng.uniform(-0.1, 0.1))
    gammas = sorted(float(g) for g in rng.uniform(0.05, 1.0, 3))
    # 4097 angles is what phaseconv picks by default for N <= 2047; the configs
    # name it so that the checks integrate on the same grid
    return [
        sweep("gauss-rank3", "mixed-bound", {
            "source": spectrum_config(fair), "target": mixture_config(rank3, _near_third(rng)),
            "n_grid": [500, 1000, 2000], "m_schedule": {"list": [128, 256, 512]},
            "bound_method": "gauss", "grid_points": 4097,
        }, {"source": fair, "components": rank3}),
        sweep("exact-rank2", "mixed-bound", {
            "source": spectrum_config(fair), "target": mixture_config(rank2, [w2, 1.0 - w2]),
            "n_grid": [500, 1000, 2000], "m_schedule": {"list": [32, 64, 128]},
            "bound_method": "exact", "grid_points": 4097,
        }, {"source": fair, "components": rank2}),
        # At --jobs 2 this grid takes anywhere from 0.2 s to 4.7 s, because each
        # forked worker runs OpenBLAS's full thread pool on its dense
        # eigendecompositions.  It still runs at --jobs 2 for the output
        # identity check, but sweep_s_jobs2 leaves it out: no run length this
        # benchmark can afford makes its median steady.
        dict(sweep("oracle", "mixed-oracle", {
            "target": mixture_config(rank2, [w2, 1.0 - w2]), "m_grid": [1, 2, 3], "gamma_grid": gammas,
        }, {"components": rank2}), jobs2_timed=False),
    ]


def cli_small(rng: np.random.Generator, repeats: int = 10) -> list[dict]:
    """Many short sweeps: per-sweep CLI work and FFT convolution powers, pool start-up at --jobs 2.

    The posterior and mixed-bound grids are kept small so that dense phase
    sums stay a small share of this workload.
    """
    sweeps = []
    for i in range(repeats):
        bit = binomial_spectrum(1, float(rng.uniform(0.2, 0.8)))
        tri = three_level(rng)
        sweeps.append(sweep(f"fom-{i}", "u1-fom", {
            "source": spectrum_config(tri), "target": spectrum_config(bit),
            "n_grid": [100, 400, 1600, 3200], "m_schedule": {"a": 0.5},
        }, {"source": tri, "target": bit}, "json"))

        trials = int(rng.integers(12, 21))
        wide = binomial_spectrum(trials, float(rng.uniform(0.3, 0.7)))
        n_top = int(0.9 * FFT_CAP / trials)
        sweeps.append(sweep(f"rates-{i}", "u1-rates", {
            "source": spectrum_config(wide), "target": spectrum_config(bit),
            "n_grid": [n_top // 64, n_top // 8, n_top], "m_schedule": {"a": 0.5},
        }, {"source": wide, "target": bit}, "json"))

        sweeps.append(sweep(f"posterior-{i}", "u1-posterior", {
            "source": spectrum_config(bit), "n_grid": [16, 32, 64], "grid_points": 256,
        }, {"source": bit}, "json"))

        comps = [binomial_spectrum(1, 0.5), three_level(rng)]
        w = 0.5 + float(rng.uniform(-0.1, 0.1))
        sweeps.append(sweep(f"mixed-{i}", "mixed-bound", {
            "source": spectrum_config(bit), "target": mixture_config(comps, [w, 1.0 - w]),
            "n_grid": [25, 50, 100], "m_schedule": {"list": [16, 32, 64]}, "grid_points": 256,
        }, {"source": bit, "components": comps}, "json"))

        d = int(rng.integers(3, 7))
        raw = rng.uniform(0.5, 1.5, d)
        sweeps.append(sweep(f"zd-{i}", "zd", {
            "probs": [float(x) for x in raw / raw.sum()], "n_grid": list(range(1, 13)),
        }, {}, "json"))
    return sweeps


_PLANS = {"u1-sampling": u1_sampling, "mixed-bound": mixed_bound, "cli-small": cli_small}


def build(workload: str, seed: int) -> list[dict]:
    """The sweeps of ``workload`` for ``seed``; the same seed gives the same plan."""
    return _PLANS[workload](_rng(workload, seed))
