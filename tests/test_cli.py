import csv
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phaseconv import ConfigValidationError, cli, u1
from phaseconv.cli import (
    SweepResult,
    emit,
    exit_code_for,
    main,
    parse_config,
    result_header,
    run_sweep,
)
from phaseconv.distributions import power_support_bound

FOM_CONFIG = {
    "source": {"probs": [0.5, 0.5], "offset": 0},
    "target": {"probs": [0.5, 0.5], "offset": 0},
    "n_grid": [50, 100, 200],
    "m_schedule": {"a": 0.5},
    "seed": 11,
}
# u1-rates takes FOM_CONFIG's keys but the seed, which only u1-fom's Monte Carlo leg reads
RATES_CONFIG = {key: value for key, value in FOM_CONFIG.items() if key != "seed"}
# N = 10^14 needs a 2^27-point autocorrelation transform for any M, above the 2^23 size cap
HUGE_N = 10**14

MIXED_TARGET = {
    "components": [
        {"probs": [0.5, 0.5], "offset": 0},
        {"probs": [0.5, 0.5], "offset": 1},
    ],
    "weights": [0.5, 0.5],
}


# the grid keys of a mixed-oracle config whose target is under test
ORACLE_GRID = {"m_grid": [1], "gamma_grid": [0.1]}
FAIR_SPECTRUM = {"probs": [0.5, 0.5]}


def cfg(experiment, payload):
    return parse_config(json.dumps(payload), experiment)


@pytest.fixture
def pooled_n(monkeypatch):
    """The N of every row that a sweep hands to a worker pool, in its batches."""
    pooled = []

    class RecordingPool(cli.ProcessPoolExecutor):
        def map(self, fn, batches, **kwargs):
            pooled.extend(row["N"] for batch in batches for row in batch)
            return super().map(fn, batches, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    return pooled


@pytest.fixture
def no_pool(monkeypatch):
    """A `cli.ProcessPoolExecutor` stand-in that fails the test if a sweep starts a pool."""
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep started a worker pool")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", refuse)


class TestParseConfig:
    def test_minimal_fills_defaults(self):
        config = cfg("u1-fom", FOM_CONFIG)
        assert config.methods == ("exact", "closed")
        assert config.mc_draws == 4096
        assert config.seed == 11
        assert config.m_schedule == ("M=ceil(N^0.5)", (8, 10, 15))

    def test_schedule_resolves_copy_counts(self):
        config = cfg(
            "u1-fom", {**FOM_CONFIG, "n_grid": [400, 1600, 6400], "m_schedule": {"a": 0.5}}
        )
        assert config.m_schedule[1] == (20, 40, 80)

    def test_list_schedule(self):
        config = cfg("u1-fom", {**FOM_CONFIG, "m_schedule": {"list": [3, 5, 7]}})
        assert config.m_schedule == ("M=list", (3, 5, 7))

    def test_all_problems_reported(self):
        bad = {
            "source": {"probs": [0.5, 0.4]},
            "n_grid": [100, 50],
            "wat": 1,
            "m_schedule": {"a": 2},
        }
        with pytest.raises(ConfigValidationError) as info:
            cfg("u1-fom", bad)
        text = "\n".join(info.value.problems)
        assert "wat: unknown key" in text
        assert "source.probs" in text
        assert "target: missing" in text
        assert "n_grid" in text
        assert "m_schedule.a" in text
        assert len(info.value.problems) == 5

    def test_schedule_checked_even_when_grid_invalid(self):
        with pytest.raises(ConfigValidationError) as info:
            cfg("u1-fom", {**FOM_CONFIG, "n_grid": [5, 5], "m_schedule": {"list": [1]}})
        assert any("n_grid" in p for p in info.value.problems)
        # the list length cannot be cross-checked without a grid, but the
        # shape still gets validated
        config = {**FOM_CONFIG, "n_grid": [5, 5], "m_schedule": {"a": 0}}
        with pytest.raises(ConfigValidationError) as info:
            cfg("u1-fom", config)
        assert any("m_schedule.a" in p for p in info.value.problems)

    def test_schedule_length_mismatch(self):
        with pytest.raises(ConfigValidationError) as info:
            cfg("u1-fom", {**FOM_CONFIG, "m_schedule": {"list": [3, 5]}})
        assert any("does not match n_grid length" in p for p in info.value.problems)

    def test_invalid_json_and_shape(self):
        with pytest.raises(ConfigValidationError):
            parse_config("{nope", "u1-fom")
        with pytest.raises(ConfigValidationError):
            parse_config("[1, 2]", "u1-fom")
        with pytest.raises(ConfigValidationError):
            parse_config("{}", "not-an-experiment")

    def test_seed_range(self):
        with pytest.raises(ConfigValidationError):
            cfg("u1-fom", {**FOM_CONFIG, "seed": -1})
        with pytest.raises(ConfigValidationError):
            cfg("u1-fom", {**FOM_CONFIG, "seed": 2**64})

    def test_mixed_weights_validated(self):
        bad = dict(MIXED_TARGET, weights=[0.5, 0.6])
        payload = {"target": bad, "m_grid": [1, 2], "gamma_grid": [0.1]}
        with pytest.raises(ConfigValidationError) as info:
            cfg("mixed-oracle", payload)
        assert any("weights sum" in p for p in info.value.problems)

    def test_spectrum_rejects_unknown_nested_keys(self):
        payload = {**FOM_CONFIG, "source": {"probs": [0.5, 0.5], "offsett": 1}}
        with pytest.raises(ConfigValidationError):
            cfg("u1-fom", payload)


class TestHeaders:
    def test_fom_header_contract(self):
        head = result_header("u1-fom")
        assert head[:5] == ("N", "M", "f_exact", "f_closed", "gap")
        assert head[-1] == "error"

    def test_mc_columns_opt_in(self):
        head = result_header("u1-fom", methods=("exact", "closed", "mc"))
        assert "f_mc" in head and "f_mc_stderr" in head

    def test_all_experiments_have_error_column(self):
        for exp in ("u1-fom", "u1-posterior", "u1-rates", "zd", "mixed-bound", "mixed-oracle"):
            assert result_header(exp)[-1] == "error"

    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="^unknown experiment 'u1-nope'$"):
            result_header("u1-nope")


class TestRunSweep:
    @pytest.mark.parametrize("margin, pooled", [(0, [16, 32, 64]), (1, [])], ids=["reaches", "short"])
    def test_pool_once_estimated_work_reaches_budget(
        self, monkeypatch, two_cpus, pooled_n, margin, pooled
    ):
        # a u1-posterior row's sizes are the support bound of its N-copy power and its grid
        config = cfg("u1-posterior", {"source": FOM_CONFIG["source"], "n_grid": [16, 32, 64],
                                      "grid_points": 256})
        sizes = [cli.EXPERIMENTS["u1-posterior"].sizes(config, {"N": n}) for n in (16, 32, 64)]
        assert sizes == [(("support estimate", power_support_bound(config.source.spectrum, n)),
                          ("posterior grid", 256)) for n in (16, 32, 64)]
        work = sum(size for row in sizes for _, size in row)
        monkeypatch.setattr(cli, "POOL_POINTS", work + margin)
        result = run_sweep(config, jobs=2)
        assert [row["N"] for row in result.rows] == [16, 32, 64]
        assert exit_code_for(result.rows) == 0
        assert pooled_n == pooled

    def test_pooled_rows_chunk_by_the_costliest_row(self, monkeypatch, two_cpus):
        # like rows share a task; on a geometric grid the last rows hold most of
        # the work, so each row is a task of its own
        chunks = []

        class RecordingPool(cli.ProcessPoolExecutor):
            def map(self, fn, rows, **kwargs):
                chunks.append(kwargs["chunksize"])
                return super().map(fn, rows, **kwargs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli, "POOL_POINTS", 1)
        for n_grid in (list(range(1, 41)), [4**k for k in range(1, 13)]):
            config = cfg("u1-posterior", {"source": FOM_CONFIG["source"], "n_grid": n_grid,
                                          "grid_points": 256})
            assert exit_code_for(run_sweep(config, jobs=2).rows) == 0
        assert chunks[0] > 1 and chunks[1] == 1

    @pytest.mark.parametrize("cpus, workers", [(None, 1), (1, 1), (2, 2), (64, 3)])
    def test_pool_workers_at_most_the_cpu_count(self, monkeypatch, cpus, workers):
        # a stand-in pool that records its size and runs the rows in this process
        started = []

        class InProcessPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, rows, chunksize):
                return map(fn, rows)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(cli, "POOL_POINTS", 0)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        config = cfg("u1-posterior", {"source": FOM_CONFIG["source"], "n_grid": [16, 32, 64],
                                      "grid_points": 256})
        result = run_sweep(config, jobs=10**6)
        # one worker would run the rows one at a time, as in-process, plus the pool's start
        assert started == ([workers] if workers > 1 else [])
        assert result.rows == run_sweep(config, jobs=1).rows

    @pytest.mark.parametrize(
        "experiment, payload",
        [
            ("zd", {"probs": [0.7, 0.3], "n_grid": [2, 4, 6]}),
            ("mixed-oracle", {"target": MIXED_TARGET, "m_grid": [1, 2], "gamma_grid": [0.1, 0.2]}),
        ],
    )
    def test_rows_without_work_estimate_never_pool(
        self, monkeypatch, two_cpus, no_pool, experiment, payload
    ):
        monkeypatch.setattr(cli, "POOL_POINTS", 1)
        result = run_sweep(cfg(experiment, payload), jobs=2)
        assert exit_code_for(result.rows) == 0

    def test_rows_refused_or_beyond_float_range_count_no_work(self, monkeypatch, two_cpus, no_pool):
        fom = cli.EXPERIMENTS["u1-fom"]
        config = cfg("u1-fom", FOM_CONFIG)
        fits, refused = {"N": 50, "M": 8}, {"N": HUGE_N, "M": 10**7}
        assert max(size for _, size in fom.sizes(config, fits)) <= cli.SIZE_CAP
        assert cli._row_work(config, fits) == sum(size for _, size in fom.sizes(config, fits)) > 0
        assert max(size for _, size in fom.sizes(config, refused)) > cli.SIZE_CAP
        assert cli._row_work(config, refused) == 0
        monkeypatch.setattr(cli, "POOL_POINTS", 1)
        huge = {**FOM_CONFIG, "n_grid": [10**400, 10**401], "m_schedule": {"list": [5, 6]}}
        result = run_sweep(cfg("u1-fom", huge), jobs=2)
        assert all("float" in row["error"] for row in result.rows)

    def test_fom_rows(self):
        result = run_sweep(cfg("u1-fom", FOM_CONFIG))
        assert [row["M"] for row in result.rows] == [8, 10, 15]
        for row in result.rows:
            assert row["error"] is None
            assert 0.0 <= row["f_exact"] <= 1 + 1e-9
            # gap keeps its sign so the direction of the correction is visible
            assert row["gap"] == pytest.approx(row["f_exact"] - row["f_closed"], abs=1e-15)

    def test_deterministic_bytes(self):
        payload = {**FOM_CONFIG, "methods": ["exact", "closed", "mc"], "mc_draws": 500}
        first = emit(run_sweep(cfg("u1-fom", payload)))
        second = emit(run_sweep(cfg("u1-fom", payload)))
        assert first == second

    def test_parallel_matches_serial(self):
        payload = {**FOM_CONFIG, "methods": ["exact", "closed", "mc"], "mc_draws": 500}
        serial = run_sweep(cfg("u1-fom", payload), jobs=1)
        parallel = run_sweep(cfg("u1-fom", payload), jobs=4)
        assert emit(serial) == emit(parallel)

    def test_seed_moves_mc_only(self):
        payload = {**FOM_CONFIG, "methods": ["exact", "closed", "mc"], "mc_draws": 500}
        rows_a = run_sweep(cfg("u1-fom", payload)).rows
        rows_b = run_sweep(cfg("u1-fom", {**payload, "seed": 12})).rows
        assert [r["f_exact"] for r in rows_a] == [r["f_exact"] for r in rows_b]
        assert [r["f_mc"] for r in rows_a] != [r["f_mc"] for r in rows_b]

    def test_posterior_rows_decreasing(self):
        result = run_sweep(cfg("u1-posterior", {"source": {"probs": [0.5, 0.5]}, "n_grid": [64, 256]}))
        tvs = [row["tv_exact_gauss"] for row in result.rows]
        assert tvs[0] > tvs[1] > 0
        assert result.metadata["tv_ratios"][0] == pytest.approx(tvs[0] / tvs[1])

    def test_one_posterior_row_has_no_ratios(self):
        result = run_sweep(cfg("u1-posterior", {"source": {"probs": [0.5, 0.5]}, "n_grid": [64]}))
        assert result.rows[0]["error"] is None
        assert "tv_ratios" not in result.metadata

    def test_rates_metadata_verdict(self):
        payload = {
            "source": {"probs": [0.5, 0.5]},
            "target": {"probs": [0.5, 0.5]},
            "n_grid": [400, 1600, 6400],
            "m_schedule": {"a": 0.5},
        }
        result = run_sweep(cfg("u1-rates", payload))
        assert result.metadata["verdict"] == "converges"
        assert result.metadata["schedule"] == "M=ceil(N^0.5)"

    def test_zd_rows_and_metadata(self):
        result = run_sweep(cfg("zd", {"probs": [0.9, 0.1], "n_grid": [4, 8, 12, 16]}))
        probs = [row["success_prob"] for row in result.rows]
        assert all(b >= a for a, b in zip(probs, probs[1:]))
        assert all(row["epsilon"] == pytest.approx(0.8) for row in result.rows)
        fit = result.metadata["slope_fit"]
        assert fit["slope"] == pytest.approx(fit["slope_theory"], rel=0.08)

    def test_mixed_oracle_row_order(self):
        payload = {"target": MIXED_TARGET, "m_grid": [1, 2], "gamma_grid": [0.0, 0.5]}
        result = run_sweep(cfg("mixed-oracle", payload))
        assert [(r["M"], r["gamma"]) for r in result.rows] == [
            (1, 0.0), (1, 0.5), (2, 0.0), (2, 0.5),
        ]
        for row in result.rows:
            assert row["f_bound"] <= row["f_exact"] + 1e-10

    def test_mixed_bound_rows(self):
        payload = {
            "source": {"probs": [0.5, 0.5]},
            "target": MIXED_TARGET,
            "n_grid": [100, 400],
            "m_schedule": {"a": 0.5},
        }
        result = run_sweep(cfg("mixed-bound", payload))
        for row in result.rows:
            assert 0.0 <= row["f_bound"] <= 1 + 1e-9
            assert 0.0 <= row["delta_rho"] <= 1.0
        assert result.metadata["bound_method"] == "gauss"

    def test_row_error_reported_not_raised(self):
        payload = {**FOM_CONFIG, "source": {"probs": [1.0], "offset": 2}}
        result = run_sweep(cfg("u1-fom", payload))
        assert all("variance" in row["error"] for row in result.rows)
        assert exit_code_for(result.rows) == 2

    def test_resource_cap_flagged(self):
        payload = {**FOM_CONFIG, "n_grid": [50, HUGE_N]}
        result = run_sweep(cfg("u1-fom", payload))
        assert result.rows[0]["error"] is None
        assert "size cap" in result.rows[1]["error"]
        assert exit_code_for(result.rows) == 3


class TestEmit:
    def test_csv_shape(self):
        result = run_sweep(cfg("u1-fom", FOM_CONFIG))
        lines = emit(result).splitlines()
        assert lines[0] == "N,M,f_exact,f_closed,gap,error"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "50" and first[-1] == ""

    def test_csv_float_format(self):
        result = run_sweep(cfg("u1-fom", FOM_CONFIG))
        cell = emit(result).splitlines()[1].split(",")[2]
        assert cell == format(result.rows[0]["f_exact"], ".12g")

    def test_header_only_when_no_rows(self):
        empty = SweepResult("u1-fom", result_header("u1-fom"), [])
        assert emit(empty) == "N,M,f_exact,f_closed,gap,error\n"
        assert exit_code_for([]) == 0

    def test_json_roundtrip(self):
        result = run_sweep(cfg("u1-fom", FOM_CONFIG))
        doc = json.loads(emit(result, "json"))
        assert doc["experiment"] == "u1-fom"
        assert doc["metadata"]["schema_version"] == 1
        assert doc["metadata"]["seed"] == 11
        assert len(doc["rows"]) == 3
        for row, raw in zip(doc["rows"], result.rows):
            assert row["f_exact"] == float(format(raw["f_exact"], ".12g"))
            assert not any(k.startswith("_") for k in row)

    def test_unknown_format(self):
        result = SweepResult("u1-fom", result_header("u1-fom"), [])
        with pytest.raises(ValueError):
            emit(result, "yaml")


class TestMain:
    def write(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_csv_file_output(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(["u1-fom", "--config", self.write(tmp_path, FOM_CONFIG), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("N,M,f_exact,f_closed,gap")
        assert len(lines) == 4

    def test_json_includes_config_hash(self, tmp_path):
        out = tmp_path / "rows.json"
        config = self.write(tmp_path, FOM_CONFIG)
        assert main(["u1-fom", "--config", config, "--out", str(out), "--format", "json"]) == 0
        doc = json.loads(out.read_text())
        hash_one = doc["metadata"]["config_sha256"]
        assert len(hash_one) == 64
        assert main(["u1-fom", "--config", config, "--out", str(out), "--format", "json"]) == 0
        assert json.loads(out.read_text())["metadata"]["config_sha256"] == hash_one

    def test_validation_failure_exit_code(self, tmp_path, capsys):
        bad = self.write(tmp_path, {"n_grid": [10]})
        assert main(["u1-fom", "--config", bad]) == 1
        err = capsys.readouterr().err
        assert "source: missing" in err

    @pytest.mark.parametrize(
        "exc",
        [
            RuntimeError("multiplicativity violated: F_M=0.5 vs F_1^M=0.4"),
            FloatingPointError("overflow encountered in exp"),
            MemoryError(),
        ],
        ids=lambda exc: type(exc).__name__,
    )
    def test_unexpected_row_errors_contained(self, tmp_path, capsys, monkeypatch, exc):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "exact_mixed_fidelity_small", fail)
        payload = {"target": MIXED_TARGET, "m_grid": [1, 2], "gamma_grid": [0.3]}
        out = tmp_path / "rows.csv"
        args = ["mixed-oracle", "--config", self.write(tmp_path, payload), "--out", str(out)]
        assert main(args + ["--jobs", "1"]) == 2
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert all(line.endswith(str(exc) or type(exc).__name__) for line in lines[1:])
        assert "Traceback" not in capsys.readouterr().err

    def test_oracle_at_the_copy_numbers_of_the_bound(self, tmp_path, capsys):
        payload = {"target": MIXED_TARGET, "m_grid": [64, 256], "gamma_grid": [0.01, 0.1, 0.5]}
        assert main(["mixed-oracle", "--config", self.write(tmp_path, {**payload, "dim_cap": 9})]) == 1
        assert capsys.readouterr().err == (
            "config error: dim_cap: unknown key for experiment 'mixed-oracle'\n"
        )
        out = tmp_path / "rows.csv"
        args = ["mixed-oracle", "--config", self.write(tmp_path, payload), "--out", str(out)]
        assert main(args) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 6
        for row in rows:
            assert row["error"] == "" and float(row["f_bound"]) <= float(row["f_exact"]) + 1e-10

    def test_oracle_row_beyond_class_cap_keeps_f_exact(self, tmp_path):
        # the class-count estimate refuses the bound before any class is enumerated; the
        # refused M's batch runs again row by row, and the M = 2 batch is untouched
        payload = {"target": MIXED_TARGET, "m_grid": [2, 2_000_000], "gamma_grid": [0.001, -0.3]}
        out = tmp_path / "rows.csv"
        args = ["mixed-oracle", "--config", self.write(tmp_path, payload), "--out", str(out)]
        assert main(args) == 3
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [(row["M"], row["gamma"]) for row in rows] == [
            ("2", "0.001"), ("2", "-0.3"), ("2000000", "0.001"), ("2000000", "-0.3")
        ]
        for row in rows:
            # oracle: both components are fair bits, each with |phi(gamma)| = cos(gamma/2)
            m, gamma = int(row["M"]), float(row["gamma"])
            assert float(row["f_exact"]) == pytest.approx(math.cos(gamma / 2) ** (2 * m), rel=1e-8)
        assert all(row["f_bound"] != "" and row["error"] == "" for row in rows[:2])
        for row in rows[2:]:
            assert row["f_bound"] == ""
            assert row["error"] == "about 2000001 type classes at M=2000000, rank 2; cap is 1000000"

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["u1-fom", "--config", str(tmp_path / "nope.json")]) == 1

    def test_config_that_is_not_utf8_is_a_read_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"n_grid": [\xff]}')
        assert main(["zd", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: cannot read config: 'utf-8' codec can't decode byte 0xff in position 12: "
            "invalid start byte\n"
        )

    def test_json_nested_too_deep_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        assert main(["zd", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: config: invalid JSON (maximum recursion depth")
        assert len(captured.err.splitlines()) == 1

    def test_usage_errors_exit_1(self, tmp_path, capsys):
        config = self.write(tmp_path, FOM_CONFIG)
        for argv in (
            ["u1-fom"],
            ["u1-fom", "--config", config, "--jobs", "x"],
            ["u1-fom", "--config", config, "--format", "yaml"],
            ["u2-fom", "--config", config],
            # the seed comes from the config alone, so config_sha256 covers every input
            ["u1-fom", "--config", config, "--seed", "5"],
        ):
            assert main(argv) == 1, argv
            assert "usage:" in capsys.readouterr().err
        with pytest.raises(SystemExit) as info:
            main(["u1-fom", "--help"])
        assert info.value.code == 0

    @pytest.mark.parametrize(
        "schedule, n_grid",
        [({"c": 1e308}, [50, 100]), ({"a": 0.5}, [50, 10**400])],
        ids=["huge-slope", "huge-n"],
    )
    def test_schedule_overflow_is_a_config_error(self, tmp_path, capsys, schedule, n_grid):
        payload = {**RATES_CONFIG, "n_grid": n_grid, "m_schedule": schedule}
        assert main(["u1-rates", "--config", self.write(tmp_path, payload)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: m_schedule: ") and "overflows" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "experiment, payload, problem",
        [
            ("zd", {"probs": [10**400, 0.5], "n_grid": [2]}, "probs: entries must be finite numbers"),
            (
                "mixed-oracle",
                {"target": MIXED_TARGET, "m_grid": [1], "gamma_grid": [0.1, -10**400]},
                "gamma_grid: expected a nonempty list of finite numbers",
            ),
        ],
        ids=["zd-probs", "gamma-grid"],
    )
    def test_integer_beyond_float_range_is_a_config_error(
        self, tmp_path, capsys, experiment, payload, problem
    ):
        assert main([experiment, "--config", self.write(tmp_path, payload)]) == 1
        assert capsys.readouterr().err == f"config error: {problem}\n"

    @pytest.mark.parametrize(
        "experiment, payload, code, message",
        [
            ("u1-fom", {**FOM_CONFIG, "n_grid": [50, HUGE_N]}, 3,
             "autocorrelation transform 134217728 exceeds size cap 8388608 at N=100000000000000, "
             "M=10000000"),
            ("u1-rates", {**RATES_CONFIG, "n_grid": [400, HUGE_N]}, 3,
             "autocorrelation transform 134217728 exceeds size cap 8388608 at N=100000000000000, "
             "M=10000000"),
            # epsilon 2 keeps every class: all M + 1 of them at rank 2
            ("mixed-bound", {"source": FAIR_SPECTRUM, "target": MIXED_TARGET, "n_grid": [64],
                             "m_schedule": {"list": [2_000_000]}, "epsilon": 2.0}, 3,
             "about 2000001 type classes at M=2000000, rank 2; cap is 1000000"),
            ("mixed-oracle", {"target": MIXED_TARGET, "m_grid": [2_000_000], "gamma_grid": [0.001]},
             3, "about 2000001 type classes at M=2000000, rank 2; cap is 1000000"),
            ("u1-fom", {**FOM_CONFIG, "source": {"probs": [1.0], "offset": 2}, "n_grid": [50]}, 2,
             "source variance must be positive, got 0.0"),
            ("u1-posterior", {"source": {"probs": [1.0]}, "n_grid": [16]}, 2,
             "asymmetry-free source: Gaussian posterior model undefined"),
        ],
        ids=["u1-fom-fft-cap", "u1-rates-fft-cap", "mixed-bound-class-cap",
             "mixed-oracle-class-cap", "u1-fom-zero-variance", "u1-posterior-asymmetry-free"],
    )
    def test_capped_and_failed_rows_exit_codes(
        self, tmp_path, capsys, experiment, payload, code, message
    ):
        out = tmp_path / "rows.csv"
        args = [experiment, "--config", self.write(tmp_path, payload), "--out", str(out)]
        assert main(args) == code
        assert capsys.readouterr().err == f"row error: {message}\n"

    @pytest.mark.parametrize(
        "experiment, payload, message",
        [
            ("u1-posterior", {"source": FAIR_SPECTRUM, "n_grid": [10**14]},
             "support estimate 83942747 exceeds size cap 8388608 at N=100000000000000"),
            ("u1-posterior", {"source": FAIR_SPECTRUM, "n_grid": [16], "grid_points": 2**23 + 1},
             "posterior grid 8388609 exceeds size cap 8388608 at N=16"),
            ("mixed-bound", {"source": FAIR_SPECTRUM, "target": MIXED_TARGET, "n_grid": [10**14],
                             "m_schedule": {"list": [8]}},
             # its default grid, 2 * 83942747 + 3 points, is its largest array
             "posterior grid 167885497 exceeds size cap 8388608 at N=100000000000000, M=8"),
            ("u1-fom", {**FOM_CONFIG, "n_grid": [16], "m_schedule": {"list": [4]},
                        "methods": ["mc"], "mc_draws": 2**22 + 1},
             "Monte Carlo term count 8388610 exceeds size cap 8388608 at N=16, M=4"),
            # a source bound of 2^23 - 1: the sampling grid takes four times that
            ("u1-fom", {**FOM_CONFIG, "n_grid": [998650091439], "m_schedule": {"list": [1]},
                        "methods": ["mc"]},
             "Monte Carlo sampling grid 33554428 exceeds size cap 8388608 at N=998650091439, M=1"),
            # the same source and a 3-point target: 2^23 + 1 points need a 2^24 transform
            ("u1-fom", {**FOM_CONFIG, "n_grid": [998650091439], "m_schedule": {"list": [2]},
                        "methods": ["exact"]},
             "autocorrelation transform 16777216 exceeds size cap 8388608 at N=998650091439, M=2"),
        ],
        ids=["u1-posterior-n", "u1-posterior-grid", "mixed-bound-n", "u1-fom-mc-draws",
             "u1-fom-mc-grid", "u1-fom-exact-transform"],
    )
    def test_oversized_row_is_refused_by_its_estimate(
        self, tmp_path, capsys, monkeypatch, experiment, payload, message
    ):
        def allocate(*args, **kwargs):
            raise AssertionError("a refused row reached the library")

        for module, name in ((u1, "power_convolve"), (u1, "amp_char_grid"),
                             (u1, "sample_gamma"), (cli, "typical_decomposition")):
            monkeypatch.setattr(module, name, allocate)
        assert main([experiment, "--config", self.write(tmp_path, payload), "--jobs", "1"]) == 3
        assert capsys.readouterr().err == f"row error: {message}\n"

    @pytest.mark.parametrize(
        "experiment, payload, message",
        [
            ("u1-fom", {"source": FAIR_SPECTRUM, "target": FAIR_SPECTRUM, "n_grid": [HUGE_N],
                        "m_schedule": {"list": [4]}, "methods": ["exact"]},
             "autocorrelation transform 134217728 exceeds size cap 8388608 at N=100000000000000, M=4"),
            ("mixed-bound",
             {"source": FAIR_SPECTRUM, "n_grid": [64], "m_schedule": {"list": [4096]}, "epsilon": 2.0,
              "target": {"components": [{"probs": [0.5, 0.5]}, {"probs": [0.2, 0.5, 0.3]},
                                        {"probs": [0.1, 0.9]}, {"probs": [0.3, 0.7]}],
                         "weights": [0.25] * 4}},
             "about 8394753 type classes at M=4096, rank 4; cap is 1000000"),
        ],
        ids=["u1-fom-transform", "mixed-bound-classes"],
    )
    def test_cap_refuses_a_row_that_would_exhaust_memory(self, tmp_path, experiment, payload, message):
        # past its cap, either row would build a 2^27-point transform or an 85.5 GiB class
        # table; the child's 2 GB address space turns a cap that no longer fires into a
        # MemoryError instead of exhausting the machine
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
        args = [sys.executable, "-m", "phaseconv.cli", experiment,
                "--config", self.write(tmp_path, payload)]
        child = subprocess.run(args, capture_output=True, text=True, env=env, preexec_fn=limit,
                               timeout=60)
        assert (child.returncode, child.stderr) == (3, f"row error: {message}\n")

    def test_zd_slope_fit_error_in_metadata(self, tmp_path):
        # uniform probabilities reach the success probability 1 at once: no wrong mass to fit
        out = tmp_path / "rows.json"
        payload = {"probs": [0.25, 0.25, 0.25, 0.25], "n_grid": [2, 4]}
        args = ["zd", "--config", self.write(tmp_path, payload), "--out", str(out),
                "--format", "json"]
        assert main(args) == 0
        doc = json.loads(out.read_text())
        assert [row["error"] for row in doc["rows"]] == [None, None]
        assert doc["metadata"]["slope_fit"] == {
            "error": "wrong-outcome mass vanished on the grid; nothing to fit"
        }

    def test_partial_failure_exit_codes(self, tmp_path, capsys):
        degenerate = {**FOM_CONFIG, "source": {"probs": [1.0], "offset": 2}}
        assert main(["u1-fom", "--config", self.write(tmp_path, degenerate)]) == 2
        capped = {**FOM_CONFIG, "n_grid": [50, HUGE_N]}
        assert main(["u1-fom", "--config", self.write(tmp_path, capped)]) == 3
        # partial results still land on stdout alongside the failures
        out = capsys.readouterr().out
        assert "N,M,f_exact" in out

    def test_jobs_flag(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        config = self.write(tmp_path, FOM_CONFIG)
        main(["u1-fom", "--config", config, "--out", str(out_a), "--jobs", "1"])
        main(["u1-fom", "--config", config, "--out", str(out_b), "--jobs", "3"])
        assert out_a.read_text() == out_b.read_text()

    @pytest.mark.parametrize(
        "experiment, payload, problem",
        [
            ("zd", {"probs": [1e308, 1e308], "n_grid": [2]},
             "probs: probabilities sum to inf, expected 1"),
            ("zd", {"probs": [0, 0], "n_grid": [2]}, "probs: probabilities sum to 0, expected 1"),
            (
                "mixed-oracle",
                {"target": {**MIXED_TARGET, "weights": [1e308, 1e308]}, "m_grid": [1],
                 "gamma_grid": [0.1]},
                "target.weights: weights sum to inf, expected 1",
            ),
        ],
        ids=["zd-probs", "zd-all-zero", "mixture-weights"],
    )
    def test_overflowing_sum_is_a_config_error(self, tmp_path, capsys, experiment, payload, problem):
        assert main([experiment, "--config", self.write(tmp_path, payload)]) == 1
        assert capsys.readouterr().err == f"config error: {problem}\n"

    @pytest.mark.parametrize(
        "experiment, payload, problem",
        [
            ("zd", {"probs": [1.0], "n_grid": [2]}, "probs: expected a list of at least 2 probabilities"),
            ("u1-fom", {**FOM_CONFIG, "source": {"probs": 0.5}},
             "source.probs: expected a list of at least 1 probabilities"),
            ("zd", {"probs": [1.5, -0.5], "n_grid": [2]}, "probs: entries must be nonnegative"),
            ("u1-fom", {**FOM_CONFIG, "source": [0.5, 0.5]},
             "source: expected an object with 'probs' and optional 'offset'"),
            ("u1-fom", {**FOM_CONFIG, "source": {"offset": 0}}, "source.probs: missing"),
            ("u1-fom", {**FOM_CONFIG, "source": {"probs": [0.5, 0.5], "offset": -1}},
             "source.offset: expected a nonnegative integer"),
            ("u1-fom", {**FOM_CONFIG, "target": {"probs": [0.5, 0.0, 0.5]}},
             "target.probs: interior zeros make the spectrum gapped"),
            ("mixed-oracle", {**ORACLE_GRID, "target": {"components": MIXED_TARGET["components"]}},
             "target: expected {'components': [...], 'weights': [...]}"),
            ("mixed-oracle", {**ORACLE_GRID, "target": {"components": [], "weights": []}},
             "target.components: expected a nonempty list of spectra"),
            ("mixed-oracle", {**ORACLE_GRID, "target": {**MIXED_TARGET, "weights": ["half", 0.5]}},
             "target.weights: expected a list of numbers"),
            ("mixed-oracle", {**ORACLE_GRID, "target": {**MIXED_TARGET, "weights": [1.0]}},
             "target.weights: length 1 does not match 2 components"),
            ("mixed-oracle", {**ORACLE_GRID, "target": {**MIXED_TARGET, "weights": [1.0, 0.0]}},
             "target.weights: weights must be strictly positive"),
            ("mixed-oracle",
             {**ORACLE_GRID, "target": {**MIXED_TARGET, "components": [FAIR_SPECTRUM, {"probs": "x"}]}},
             "target.components[1].probs: expected a list of at least 1 probabilities"),
            ("zd", {"probs": [0.5, 0.5], "n_grid": [4, 0]}, "n_grid: entries must be integers >= 1"),
            ("u1-fom", {**FOM_CONFIG, "m_schedule": {"b": 0.5}},
             "m_schedule: expected exactly one of {'a': ...}, {'c': ...}, {'list': [...]}"),
            ("u1-fom", {**FOM_CONFIG, "m_schedule": {"c": 0}}, "m_schedule.c: slope must be positive"),
        ],
        ids=[
            "short-list", "probs-not-a-list", "negative-entry", "spectrum-not-an-object",
            "probs-missing", "negative-offset", "interior-zero", "mixture-shape",
            "no-components", "weights-not-numbers", "weight-count", "zero-weight",
            "invalid-component", "grid-entry", "schedule-shape", "zero-slope",
        ],
    )
    def test_invalid_field_is_a_config_error(self, tmp_path, capsys, experiment, payload, problem):
        assert main([experiment, "--config", self.write(tmp_path, payload)]) == 1
        assert capsys.readouterr().err == f"config error: {problem}\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--jobs", "0"], "error: --jobs must be >= 1"),
            (["--out", "{missing}/rows.csv"],
             "error: cannot write output: [Errno 2] No such file or directory: '{missing}/rows.csv'"),
        ],
        ids=["no-jobs", "unwritable-out"],
    )
    def test_bad_flag_value_is_an_error(self, tmp_path, capsys, flags, message):
        missing = str(tmp_path / "missing")
        flags = [flag.format(missing=missing) for flag in flags]
        assert main(["u1-fom", "--config", self.write(tmp_path, FOM_CONFIG), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err == message.format(missing=missing) + "\n"
        assert captured.out == ""

    def test_cheap_sweep_starts_no_pool(self, tmp_path, no_pool):
        out = tmp_path / "rows.csv"
        config = self.write(tmp_path, FOM_CONFIG)
        assert main(["u1-fom", "--config", config, "--out", str(out), "--jobs", "2"]) == 0
        assert len(out.read_text().splitlines()) == 4

    @pytest.mark.parametrize(
        "payload, code, pooled_error",
        [
            ({**FOM_CONFIG, "n_grid": [50, 100, HUGE_N]}, 3, "size cap"),
            ({**FOM_CONFIG, "source": {"probs": [1.0], "offset": 2}}, 2, "variance"),
        ],
        ids=["fft-cap", "failed-row"],
    )
    def test_pooled_rows_keep_errors_and_exit_code(
        self, tmp_path, capsys, monkeypatch, two_cpus, pooled_n, payload, code, pooled_error
    ):
        monkeypatch.setattr(cli, "POOL_POINTS", 0)
        config = self.write(tmp_path, payload)
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}.csv"
            assert main(["u1-fom", "--config", config, "--out", str(out), "--jobs", jobs]) == code
            outputs.append((out.read_text(), capsys.readouterr().err))
        assert pooled_n == payload["n_grid"]
        assert outputs[0] == outputs[1]
        csv_text, err = outputs[1]
        assert pooled_error in csv_text.splitlines()[-1]
        assert "row error: " in err
