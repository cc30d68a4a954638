"""The benchmark's tracing hooks still bind to the library's signatures.

`perfbench/tracing.py` reads some arguments by name: ``decomposition`` and
``gamma`` of `mixed.fidelity_mixed_lower_bound`, ``p`` and ``gamma`` of
`distributions.char_fn` and `distributions.amp_char_fn`.  A rename breaks only
traced benchmark runs, so these sweeps run under the tracer, loaded from its
file as it is.
"""
import importlib.util
import json
from pathlib import Path

import numpy as np

from phaseconv import distributions
from phaseconv.cli import main

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

FAIR = {"probs": [0.5, 0.5]}
MIXTURE = {
    "components": [{"probs": [0.5, 0.5]}, {"probs": [0.2, 0.5, 0.3], "offset": 1}],
    "weights": [0.4, 0.6],
}
SWEEPS = {
    "u1-fom": {"source": FAIR, "target": FAIR, "n_grid": [64, 256], "m_schedule": {"a": 0.5},
               "methods": ["exact", "closed", "mc"], "mc_draws": 200},
    "mixed-bound": {"source": FAIR, "target": MIXTURE, "n_grid": [64, 256],
                    "m_schedule": {"list": [8, 16]}, "bound_method": "exact"},
    "mixed-oracle": {"target": MIXTURE, "m_grid": [2, 8], "gamma_grid": [0.1, 0.5]},
}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_all(tmp_path, tag: str) -> dict:
    outputs = {}
    for experiment, payload in SWEEPS.items():
        config, out = tmp_path / f"{experiment}.json", tmp_path / f"{experiment}-{tag}.csv"
        config.write_text(json.dumps(payload))
        assert main([experiment, "--config", str(config), "--out", str(out), "--jobs", "1"]) == 0
        outputs[experiment] = out.read_bytes()
    return outputs


def test_traced_sweeps_count_work_and_keep_their_output(tmp_path):
    tracing = _load_tracing()
    untraced = _run_all(tmp_path, "plain")
    with tracing.installed(tracing.Tracer()) as tracer:
        traced = _run_all(tmp_path, "traced")
        # the phase-sum hooks bind ``p`` and ``gamma``; no sweep above calls them
        p = distributions.IntDistribution(0, np.array([0.5, 0.5]))
        distributions.char_fn(p, np.zeros(3))
        distributions.amp_char_fn(p, 0.2)
    assert traced == untraced
    assert tracer.calls["distributions.power_convolve"] > 0
    assert tracer.counts["mixed.fidelity_mixed_lower_bound.class_points"] > 0
    assert tracer.counts["distributions.phase_sum.terms"] == 3 * 2 + 2
    metrics = tracing.layer_metrics(tracer)
    assert metrics["cli.rows"] == 2 + 2 + 4
