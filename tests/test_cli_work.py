"""The CLI does each piece of a sweep's work once: one N-copy source power per
`u1-fom` row, one moments pass per state, one typical decomposition per M of a
`mixed-oracle` grid, even when it fails, one outcome-law call per block of a
`zd` grid, and each batch of rows handed to a worker pool once.  A batch's
rows equal what each row computes alone, bit for bit."""
import json
import math

import numpy as np
import pytest
from conftest import random_mixture

from phaseconv import cli, u1, zd
from phaseconv.cli import emit, parse_config, run_sweep
from phaseconv.mixed import (
    DEFAULT_CLASS_CAP,
    exact_mixed_fidelity_small,
    fidelity_mixed_lower_bound,
    typical_decomposition,
)

FAIR = {"probs": [0.5, 0.5]}
SKEWED = {"probs": [0.2, 0.5, 0.3], "offset": 2}


def test_fom_row_builds_the_source_power_once(monkeypatch):
    payload = {"source": SKEWED, "target": FAIR, "n_grid": [64, 1000, 4097],
               "m_schedule": {"a": 0.5}, "methods": ["exact", "closed", "mc"], "mc_draws": 200}
    config = parse_config(json.dumps(payload), "u1-fom")
    expected = []
    for n, m in zip(config.n_grid, config.m_schedule[1]):
        spec = u1.PosteriorSpec.for_copies(config.source, n)
        f_exact = u1.figure_of_merit_exact(spec, config.target, m)
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, n, m]))
        expected.append((f_exact, *u1.figure_of_merit_mc(spec, config.target, m, 200, rng)))

    powers = []
    power = u1.power_convolve
    monkeypatch.setattr(u1, "power_convolve", lambda p, n: powers.append(n) or power(p, n))
    rows = run_sweep(config).rows
    assert [(r["f_exact"], r["f_mc"], r["f_mc_stderr"]) for r in rows] == expected
    # one source power and one target power per row
    assert powers == [64, 8, 1000, 32, 4097, 65]


def counting(monkeypatch, module, name, key=lambda *args: args):
    """Record ``key`` of the arguments of every call of ``module.name``."""
    calls, fn = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: calls.append(key(*args)) or fn(*args, **kwargs))
    return calls


def test_each_state_takes_its_moments_once(monkeypatch):
    # the exact leg's posterior and the closed form read the source variance on every
    # row, the closed form the target variance
    calls = counting(monkeypatch, u1, "moments", key=lambda p: p)
    payload = {"source": SKEWED, "target": FAIR, "n_grid": [64, 1000, 4097],
               "m_schedule": {"a": 0.5}}
    config = parse_config(json.dumps(payload), "u1-fom")
    assert cli.exit_code_for(run_sweep(config).rows) == 0
    assert calls == [config.source.spectrum, config.target.spectrum]


def test_oracle_builds_one_decomposition_per_m(monkeypatch):
    calls = counting(monkeypatch, cli, "typical_decomposition", key=lambda target, m, eps: m)
    payload = {"target": {"components": [FAIR, SKEWED], "weights": [0.4, 0.6]},
               "m_grid": [2, 64, 1024], "gamma_grid": [math.pi, -0.5, 0.1, 1e-3]}
    result = run_sweep(parse_config(json.dumps(payload), "mixed-oracle"))
    assert cli.exit_code_for(result.rows) == 0 and len(result.rows) == 12
    assert calls == [2, 64, 1024]


def test_a_failed_oracle_batch_runs_once(monkeypatch):
    # 2,000,001 rank-2 classes exceed the cap: the batch's one call fails after every
    # row's f_exact, and each row gets its refusal without running alone
    calls = counting(monkeypatch, cli, "typical_decomposition", key=lambda target, m, eps: m)
    payload = {"target": {"components": [FAIR, SKEWED], "weights": [0.4, 0.6]},
               "m_grid": [2_000_000], "gamma_grid": [math.pi, -0.5, 0.1]}
    config = parse_config(json.dumps(payload), "mixed-oracle")
    rows = run_sweep(config).rows
    assert calls == [2_000_000]
    assert cli.exit_code_for(rows) == 3
    for row in rows:
        assert row["f_exact"] == exact_mixed_fidelity_small(config.target, 2_000_000, row["gamma"])
        assert "f_bound" not in row
        assert row["error"] == "about 2000001 type classes at M=2000000, rank 2; cap is 1000000"


def test_zd_takes_its_laws_once_per_block_and_none_in_the_metadata(monkeypatch):
    monkeypatch.setattr(zd, "_LAW_BLOCK", 30)  # 10 rows of d = 3 a block
    laws = counting(monkeypatch, cli, "deviation_laws", key=lambda source, n_grid: list(n_grid))
    rates = counting(monkeypatch, cli, "contraction_rate")
    # the library's own laws and rate, which a slope fit computed anew would call
    fits = counting(monkeypatch, zd, "deviation_laws") + counting(monkeypatch, zd, "contraction_rate")
    config = parse_config(json.dumps({"probs": [0.7, 0.2, 0.1], "n_grid": list(range(1, 26))}), "zd")
    result = run_sweep(config)
    assert "slope" in result.metadata["slope_fit"]
    assert laws == [list(range(1, 11)), list(range(11, 21)), list(range(21, 26))]
    assert len(rates) == 3 and fits == []


# the batches a pool receives: one per u1-rates row; with 24 entries a zd block, 8 rows
# of d = 3 a batch
BATCHES = {"u1-rates": 20, "zd": 5}


@pytest.mark.parametrize(
    "experiment, payload",
    [
        ("u1-rates", {"source": SKEWED, "target": FAIR, "n_grid": list(range(100, 2100, 100)),
                      "m_schedule": {"a": 0.5}}),
        ("zd", {"probs": [0.7, 0.2, 0.1], "n_grid": list(range(1, 41))}),
    ],
)
def test_pool_maps_each_row_once_and_matches_serial(monkeypatch, two_cpus, experiment, payload):
    tasks = []

    class RecordingPool(cli.ProcessPoolExecutor):
        def map(self, fn, batches, **kwargs):
            tasks.extend(batches)
            return super().map(fn, batches, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "POOL_POINTS", 0)
    monkeypatch.setattr(zd, "_LAW_BLOCK", 24)
    config = parse_config(json.dumps(payload), experiment)
    serial = emit(run_sweep(config, jobs=1))
    for jobs in (2, 4):
        assert emit(run_sweep(config, jobs=jobs)) == serial
    assert len(tasks) == 2 * BATCHES[experiment]
    assert [row["N"] for task in tasks for row in task] == 2 * list(config.n_grid)


@pytest.mark.parametrize("law_block", [zd._LAW_BLOCK, 1000], ids=["default-blocks", "small-blocks"])
def test_zd_batches_equal_single_rows(monkeypatch, law_block):
    monkeypatch.setattr(zd, "_LAW_BLOCK", law_block)
    rng = np.random.default_rng(2501)
    for trial in range(24):
        d = int(rng.integers(2, 301))
        probs = rng.dirichlet(np.full(d, rng.uniform(0.2, 5.0)))
        # half the grids reach 10^20, half stay where the wrong mass leaves a slope to fit
        top = 20.0 if trial % 2 else 1.6
        n_grid = sorted({int(10**x) for x in rng.uniform(0.0, top, 40)} | {10**20 if trial % 2 else 2})
        config = parse_config(json.dumps({"probs": probs.tolist(), "n_grid": n_grid}), "zd")
        result = run_sweep(config)
        source = config.probs
        assert [row["success_prob"] for row in result.rows] == [
            zd.success_probability(source, n) for n in n_grid
        ]
        assert {row["epsilon"] for row in result.rows} == {zd.contraction_rate(source)}
        try:
            fit = zd.success_slope_fit(source, n_grid)
            expected = {"slope": fit.slope, "intercept": fit.intercept, "slope_theory": fit.slope_theory}
        except ValueError as exc:
            expected = {"error": str(exc)}
        assert result.metadata["slope_fit"] == expected


ANGLES = [math.pi, -0.7, 1e-3, 0.3, 2.0, -math.pi / 3, 1e-7]


@pytest.mark.parametrize("method", ["exact", "gauss"])
def test_oracle_batches_equal_single_rows(method):
    rng = np.random.default_rng(1801)
    for _ in range(10):
        target = random_mixture(rng, max_rank=4, max_len=25, max_offset=40)
        # every composition is kept at epsilon 2: keep the M whose classes fit the cap
        m_grid = [m for m in (1, 2, 64, 1024)
                  if math.comb(m + target.rank - 1, target.rank - 1) <= DEFAULT_CLASS_CAP]
        payload = {
            "target": {
                "components": [{"probs": c.spectrum.probs.tolist(), "offset": c.spectrum.offset}
                               for c in target.components],
                "weights": list(target.weights),
            },
            "m_grid": m_grid, "gamma_grid": ANGLES, "bound_method": method,
        }
        config = parse_config(json.dumps(payload), "mixed-oracle")
        rows = run_sweep(config).rows
        assert cli.exit_code_for(rows) == 0
        expected = []
        for m in m_grid:
            dec = typical_decomposition(config.target, m, 2.0)
            expected += [(m, g, exact_mixed_fidelity_small(config.target, m, g),
                          fidelity_mixed_lower_bound(dec, g, method=method)) for g in ANGLES]
        assert [(r["M"], r["gamma"], r["f_exact"], r["f_bound"]) for r in rows] == expected
