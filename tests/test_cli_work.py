"""The CLI does each piece of a sweep's work once: one N-copy source power per
`u1-fom` row, and one copy of the config per worker process."""
import json
import pickle

import numpy as np
import pytest

from phaseconv import cli, u1
from phaseconv.cli import emit, parse_config, run_sweep

FAIR = {"probs": [0.5, 0.5]}
SKEWED = {"probs": [0.2, 0.5, 0.3], "offset": 2}


def test_fom_row_builds_the_source_power_once(monkeypatch):
    payload = {"source": SKEWED, "target": FAIR, "n_grid": [64, 1000, 4097],
               "m_schedule": {"a": 0.5}, "methods": ["exact", "closed", "mc"], "mc_draws": 200}
    config = parse_config(json.dumps(payload), "u1-fom")
    expected = []
    for n, m in zip(config.n_grid, config.m_schedule[1]):
        # each public function on its own builds its own N-copy power
        f_exact = u1.figure_of_merit_exact(config.source, n, config.target, m)
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, n, m]))
        expected.append((f_exact, *u1.figure_of_merit_mc(config.source, n, config.target, m, 200, rng)))

    powers = []
    power = u1.power_convolve
    monkeypatch.setattr(u1, "power_convolve", lambda p, n: powers.append(n) or power(p, n))
    rows = run_sweep(config).rows
    assert [(r["f_exact"], r["f_mc"], r["f_mc_stderr"]) for r in rows] == expected
    # one source power and one target power per row
    assert powers == [64, 8, 1000, 32, 4097, 65]


@pytest.mark.parametrize(
    "experiment, payload",
    [
        ("u1-rates", {"source": SKEWED, "target": FAIR, "n_grid": list(range(100, 2100, 100)),
                      "m_schedule": {"a": 0.5}}),
        ("zd", {"probs": [0.7, 0.2, 0.1], "n_grid": list(range(1, 41))}),
    ],
)
def test_pooled_tasks_carry_row_keys_only(monkeypatch, experiment, payload):
    tasks = []

    class RecordingPool(cli.ProcessPoolExecutor):
        def map(self, fn, rows, **kwargs):
            tasks.extend((fn, row) for row in rows)
            return super().map(fn, rows, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "POOL_POINTS", 0)
    config = parse_config(json.dumps(payload), experiment)
    serial = emit(run_sweep(config, jobs=1))
    for jobs in (2, 4):
        assert emit(run_sweep(config, jobs=jobs)) == serial
    assert len(tasks) == 2 * len(config.n_grid)
    config_bytes = len(pickle.dumps(config))
    assert all(len(pickle.dumps(task)) < config_bytes for task in tasks)
