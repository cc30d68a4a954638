"""`tools/same_outputs.py` flags every output difference except the wall time.

Only its comparison runs here, on two small synthetic output directories; no
git command and no sweep runs.
"""
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"


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
