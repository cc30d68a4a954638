"""`tools/same_outputs.py` flags every output difference except the wall time,
and its write mode runs the wide-input plan.

Its comparison runs on two small synthetic output directories, and its write
mode with a stand-in for `cli.main`; no git command and no sweep runs.
"""
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from phaseconv import cli
from phaseconv.mixed import DEFAULT_CLASS_CAP

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_outputs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def json_output(wall_time_s: float) -> str:
    doc = {"metadata": {"seed": 7, "versions": {"numpy": "2"}, "wall_time_s": wall_time_s},
           "rows": [{"N": 2, "success_prob": 0.952925342056}]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_outputs(directory: Path, csv_text: str, wall_time_s: float, code: int) -> Path:
    directory.mkdir()
    for name, text in {
        "zd-jobs1.csv": csv_text, "zd-jobs1.csv.exit": "0\n", "zd-jobs1.csv.stderr": "",
        "zd-jobs1.json": json_output(wall_time_s), "zd-jobs1.json.exit": f"{code}\n",
        "zd-jobs1.json.stderr": "",
    }.items():
        (directory / name).write_text(text)
    return directory


CSV = "d,N,success_prob\n3,2,0.952925342056\n"


def test_wall_time_alone_is_no_difference(tmp_path, tool):
    before = write_outputs(tmp_path / "before", CSV, 0.00190153400035, 0)
    after = write_outputs(tmp_path / "after", CSV, 0.25, 0)
    assert tool.differing_files(before, after) == []


def test_one_csv_byte_is_a_difference(tmp_path, tool):
    before = write_outputs(tmp_path / "before", CSV, 0.1, 0)
    after = write_outputs(tmp_path / "after", CSV.replace("056", "057"), 0.1, 0)
    assert tool.differing_files(before, after) == ["zd-jobs1.csv"]


def test_exit_code_is_a_difference(tmp_path, tool):
    before = write_outputs(tmp_path / "before", CSV, 0.1, 0)
    after = write_outputs(tmp_path / "after", CSV, 0.1, 2)
    assert tool.differing_files(before, after) == ["zd-jobs1.json.exit"]


def test_json_outside_the_wall_time_is_a_difference(tmp_path, tool):
    before = write_outputs(tmp_path / "before", CSV, 0.1, 0)
    after = write_outputs(tmp_path / "after", CSV, 0.1, 0)
    path = after / "zd-jobs1.json"
    path.write_text(path.read_text().replace('"seed": 7', '"seed": 8'))
    assert tool.differing_files(before, after) == ["zd-jobs1.json"]


def test_a_missing_output_is_a_difference(tmp_path, tool):
    before = write_outputs(tmp_path / "before", CSV, 0.1, 0)
    after = write_outputs(tmp_path / "after", CSV, 0.1, 0)
    (after / "zd-jobs1.csv.stderr").unlink()
    assert tool.differing_files(before, after) == ["zd-jobs1.csv.stderr"]


def test_write_mode_runs_the_wide_plan(tmp_path, tool, monkeypatch):
    runs = []

    def main(argv):
        runs.append(argv)
        Path(argv[argv.index("--out") + 1]).write_text("")
        return 0

    monkeypatch.setattr(sys, "path", list(sys.path))  # write mode prepends the package path
    monkeypatch.setattr(cli, "main", main)
    tool.write_outputs(ROOT / "src", tmp_path, [])  # no seed: no benchmark plan runs
    plan = tool.wide_plan()
    assert [argv[0] for argv in runs] == [sweep["experiment"] for sweep in plan for _ in range(4)]
    for sweep in plan:
        stem = f"wide-{sweep['name']}"
        assert json.loads((tmp_path / f"{stem}.config").read_text()) == sweep["config"]
        for name in (f"{stem}-jobs{jobs}.{fmt}" for fmt in ("csv", "json") for jobs in (1, 2)):
            assert (tmp_path / f"{name}.exit").read_text() == "0\n"


def test_the_wide_plan_is_wider_than_the_benchmark(tool):
    zd, *oracles = tool.wide_plan()
    assert len(zd["config"]["probs"]) == 64
    assert len(zd["config"]["n_grid"]) >= 90 and {10**20, 10**400} <= set(zd["config"]["n_grid"])
    classes = []
    for sweep in oracles:
        config = sweep["config"]
        assert len(config["gamma_grid"]) == 7 and math.pi in config["gamma_grid"]
        assert min(config["gamma_grid"]) < 0
        rank = len(config["target"]["components"])
        assert all(15 <= len(c["probs"]) <= 25 for c in config["target"]["components"])
        classes += [(rank, m, math.comb(m + rank - 1, rank - 1)) for m in config["m_grid"]]
    assert max(m for rank, m, _ in classes if rank == 4) == 64
    assert max(m for rank, m, count in classes if rank == 3 and count <= DEFAULT_CLASS_CAP) == 1024
    assert any(count > DEFAULT_CLASS_CAP for *_, count in classes)


def test_a_line_lost_by_two_files_is_one_changed_line(tmp_path, tool):
    before, after = tmp_path / "before", tmp_path / "after"
    before.mkdir()
    after.mkdir()
    for name, wall_time_s in (("a.json", 0.1), ("b.json", 0.2)):
        (before / name).write_text(json_output(wall_time_s))
        (after / name).write_text(json_output(0.3).replace('    "seed": 7,\n', ""))
    names = tool.differing_files(before, after)
    assert names == ["a.json", "b.json"]
    assert tool.changed_lines(before, after, names) == [('-    "seed": 7,', 2)]
