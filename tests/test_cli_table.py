"""Checks that hold for every experiment in the CLI table, and the contents of failed rows."""
import csv
import json

import pytest

from phaseconv import ConfigValidationError, cli, zd
from phaseconv.cli import emit, exit_code_for, parse_config, run_sweep

FAIR = {"probs": [0.5, 0.5]}
MIXED_TARGET = {
    "components": [{"probs": [0.5, 0.5]}, {"probs": [0.2, 0.5, 0.3], "offset": 1}],
    "weights": [0.4, 0.6],
}

# one config per experiment holding exactly its required keys
MINIMAL = {
    "u1-fom": {"source": FAIR, "target": FAIR, "n_grid": [8, 16], "m_schedule": {"a": 0.5}},
    "u1-posterior": {"source": FAIR, "n_grid": [8, 16]},
    "u1-rates": {"source": FAIR, "target": FAIR, "n_grid": [8, 16], "m_schedule": {"c": 0.5}},
    "zd": {"probs": [0.7, 0.3], "n_grid": [2, 4]},
    "mixed-bound": {
        "source": FAIR, "target": MIXED_TARGET, "n_grid": [16, 32], "m_schedule": {"list": [4, 8]},
    },
    "mixed-oracle": {"target": MIXED_TARGET, "m_grid": [1, 2], "gamma_grid": [0.3]},
}


def test_every_experiment_has_a_minimal_config():
    assert set(MINIMAL) == set(cli.EXPERIMENTS)


@pytest.mark.parametrize("experiment", list(cli.EXPERIMENTS))
class TestEveryExperiment:
    def test_jobs_do_not_change_output(self, experiment):
        config = parse_config(json.dumps(MINIMAL[experiment]), experiment)
        serial, parallel = run_sweep(config, jobs=1), run_sweep(config, jobs=2)
        assert len(serial.rows) >= 2
        assert exit_code_for(serial.rows) == 0
        assert emit(serial) == emit(parallel)
        assert json.loads(emit(serial, "json"))["rows"] == json.loads(emit(parallel, "json"))["rows"]

    def test_pooled_rows_match_serial(self, experiment, monkeypatch, two_cpus):
        starts = []

        class CountingPool(cli.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                starts.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(cli, "POOL_POINTS", 0)
        monkeypatch.setattr(zd, "_LAW_BLOCK", 1)  # a zd batch of one row: two tasks to pool
        config = parse_config(json.dumps(MINIMAL[experiment]), experiment)
        serial, pooled = run_sweep(config, jobs=1), run_sweep(config, jobs=2)
        assert starts == [2]
        assert emit(serial) == emit(pooled)

    def test_each_required_key_reported_missing(self, experiment):
        for key in MINIMAL[experiment]:
            payload = {k: v for k, v in MINIMAL[experiment].items() if k != key}
            with pytest.raises(ConfigValidationError) as info:
                parse_config(json.dumps(payload), experiment)
            assert any(p.startswith(f"{key}:") for p in info.value.problems), info.value.problems

    def test_unknown_key_rejected(self, experiment):
        payload = {**MINIMAL[experiment], "colour": "blue"}
        with pytest.raises(ConfigValidationError) as info:
            parse_config(json.dumps(payload), experiment)
        assert info.value.problems == [f"colour: unknown key for experiment '{experiment}'"]


class TestFailedRows:
    def test_zero_variance_row_keeps_computed_values(self):
        # f_exact is computed before the closed form refuses a zero-variance source
        payload = {**MINIMAL["u1-fom"], "source": {"probs": [1.0], "offset": 2}}
        result = run_sweep(parse_config(json.dumps(payload), "u1-fom"))
        lines = list(csv.reader(emit(result).splitlines()))
        assert lines[0] == ["N", "M", "f_exact", "f_closed", "gap", "error"]
        for line, row in zip(lines[1:], result.rows):
            n, m, f_exact, f_closed, gap, error = line
            assert (int(n), int(m)) == (row["N"], row["M"])
            assert f_exact == format(row["f_exact"], ".12g")
            assert f_closed == gap == ""
            assert "variance" in error
        assert exit_code_for(result.rows) == 2

    def test_capped_row_keeps_key_columns(self):
        # N = 10^14 needs a 2^27-point autocorrelation transform, above the size cap
        payload = {**MINIMAL["u1-fom"], "n_grid": [50, 10**14]}
        result = run_sweep(parse_config(json.dumps(payload), "u1-fom"))
        capped = list(csv.reader(emit(result).splitlines()))[2]
        assert capped[:2] == ["100000000000000", "10000000"]
        assert capped[2:5] == ["", "", ""]
        assert "size cap" in capped[5]
        assert exit_code_for(result.rows) == 3


def test_unhashable_methods_entry_is_a_validation_problem():
    payload = {**MINIMAL["u1-fom"], "methods": [["exact"]]}
    with pytest.raises(ConfigValidationError) as info:
        parse_config(json.dumps(payload), "u1-fom")
    assert info.value.problems == ["methods: expected a nonempty subset of ['exact', 'closed', 'mc']"]


MC = {**MINIMAL["u1-fom"], "methods": ["mc"]}
# each experiment's optional keys: a config and two values of the key whose outputs differ
OPTIONAL_KEYS = {
    "u1-fom": {
        "methods": (MINIMAL["u1-fom"], ["exact"], ["closed"]),
        "mc_draws": (MC, 100, 200),
        "seed": (MC, 1, 2),
    },
    "u1-posterior": {"grid_points": (MINIMAL["u1-posterior"], 256, 512)},
    # f_exact rises to 0.893: the verdict is "converges", then "plateaus"
    "u1-rates": {"threshold": (MINIMAL["u1-rates"], 0.85, 0.95)},
    "zd": {},
    "mixed-bound": {
        "epsilon": (MINIMAL["mixed-bound"], 0.5, 2.0),
        "bound_method": (MINIMAL["mixed-bound"], "gauss", "exact"),
        # 256 and 512 points agree to 12 digits on this smooth integrand; 16 alias it
        "grid_points": (MINIMAL["mixed-bound"], 16, 256),
    },
    "mixed-oracle": {
        "epsilon": (MINIMAL["mixed-oracle"], 1.0, 2.0),
        "bound_method": (MINIMAL["mixed-oracle"], "gauss", "exact"),
    },
}


def test_every_optional_key_is_listed():
    assert {experiment: set(keys) for experiment, keys in OPTIONAL_KEYS.items()} == {
        experiment: {name for name, _, default in table.keys if default is not cli._REQUIRED}
        for experiment, table in cli.EXPERIMENTS.items()
    }


@pytest.mark.parametrize(
    "experiment, key", [(experiment, key) for experiment, keys in OPTIONAL_KEYS.items() for key in keys]
)
def test_every_optional_key_moves_an_output(experiment, key):
    base, *values = OPTIONAL_KEYS[experiment][key]
    outputs = []
    for value in values:
        result = run_sweep(parse_config(json.dumps({**base, key: value}), experiment))
        assert exit_code_for(result.rows) == 0
        doc = json.loads(emit(result, "json"))
        del doc["metadata"]["wall_time_s"]
        doc["metadata"].pop(key, None)  # the metadata's echo of the key moves nothing
        outputs.append(doc)
    assert outputs[0] != outputs[1]


def _main_on(tmp_path, experiment, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return cli.main([experiment, "--config", str(path)])


@pytest.mark.parametrize(
    "experiment, key",
    [("u1-fom", "fft_cap"), ("u1-rates", "fft_cap"), ("mixed-bound", "class_cap"),
     *((experiment, "seed") for experiment in cli.EXPERIMENTS if experiment != "u1-fom")],
)
def test_no_key_lifts_a_cap_and_only_u1_fom_takes_a_seed(tmp_path, capsys, experiment, key):
    assert _main_on(tmp_path, experiment, {**MINIMAL[experiment], key: 10**12}) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {key}: unknown key for experiment '{experiment}'\n"


@pytest.mark.parametrize("methods", [{}, {"methods": ["exact", "closed"]}], ids=["default", "exact-closed"])
# both: one line per key, in validation order
@pytest.mark.parametrize("keys", [{"seed": 1}, {"mc_draws": 200}, {"mc_draws": 200, "seed": 1}],
                         ids=["seed", "mc_draws", "both"])
def test_monte_carlo_keys_need_mc(tmp_path, capsys, methods, keys):
    assert _main_on(tmp_path, "u1-fom", {**MINIMAL["u1-fom"], **methods, **keys}) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "".join(
        f"config error: {key}: read only by the Monte Carlo leg; add 'mc' to methods\n" for key in keys
    )


def test_invalid_methods_is_the_one_problem_of_the_monte_carlo_keys(tmp_path, capsys):
    payload = {**MINIMAL["u1-fom"], "methods": ["exact", "nope"], "seed": 1, "mc_draws": 200}
    assert _main_on(tmp_path, "u1-fom", payload) == 1
    assert capsys.readouterr().err == (
        "config error: methods: expected a nonempty subset of ['exact', 'closed', 'mc']\n"
    )


def test_monte_carlo_keys_run_with_mc(tmp_path, capsys):
    assert _main_on(tmp_path, "u1-fom", {**MC, "seed": 1, "mc_draws": 200}) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "N,M,f_exact,f_closed,gap,f_mc,f_mc_stderr,error"
    assert captured.err == ""
