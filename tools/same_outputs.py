"""Check that the working tree writes the same sweep outputs as another revision.

    python3 tools/same_outputs.py --parent REV [--seeds 1 7 1801]

REV's ``src`` is extracted with ``git archive`` into a temporary directory,
which is removed afterwards whatever happens.  For each tree a
child process runs every sweep of the benchmark plans
(``perfbench/workloads.py``'s ``build``) for each workload and seed, and of
the fixed `wide_plan`, through ``phaseconv.cli.main``, in ``--format csv``
and ``json`` and at ``--jobs 1`` and ``2``.  Both trees run the working
tree's plans.  The outputs are compared byte for byte, JSON without the
value of ``metadata.wall_time_s``, and so are the exit codes and stderr.
Exits 1 and names the files on any difference, 0 otherwise.  After the names
come the distinct removed (``-``) and added (``+``) lines of those files, each
with the number of files it is in, most frequent first.

Each child runs ``same_outputs.py --write SRC OUT SEED...``, which writes the
outputs of the package under SRC into the directory OUT.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import difflib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
_WALL_TIME = re.compile(rb'("wall_time_s": )[^,\n}]*')
ANGLES = [math.pi, -2.0, -0.3, 1e-7, 1e-3, 0.5, 2.5]
SHOWN_LINES = 20


def _probs(rng, size: int) -> list[float]:
    probs = rng.uniform(0.05, 1.0, size)
    return (probs / probs.sum()).tolist()


def _mixture(rng, sizes: list[int]) -> dict:
    components = [{"probs": _probs(rng, size), "offset": int(rng.integers(0, 40))} for size in sizes]
    return {"components": components, "weights": _probs(rng, len(sizes))}


def wide_plan() -> list[dict]:
    """Sweeps on inputs wider than the benchmark's, where rows share a batch.

    A summation-order change shows on them that the benchmark's narrow grids
    (zd at d <= 6, oracle rank 2 with components of at most 3 entries at
    M <= 3) may hide: a zd grid at d = 64 over 99 N up to 10^20 and one
    10^400 row, which fails, and mixed-oracle targets of rank 4 and 3 with
    15-25-entry components at M up to 64 and 1024, 7 angles each; the rank-3
    grid ends at an M whose 2,100,225 classes exceed the class cap.
    """
    rng = np.random.default_rng(25)
    n_grid = sorted({int(10**x) for x in np.linspace(0.0, 20.0, 100)}) + [10**400]
    rank3 = {"target": _mixture(rng, [25, 15, 20]), "m_grid": [1, 2, 64, 1024, 2048],
             "gamma_grid": ANGLES}
    return [
        {"name": "zd-d64", "experiment": "zd", "config": {"probs": _probs(rng, 64), "n_grid": n_grid}},
        {"name": "oracle-rank4", "experiment": "mixed-oracle",
         "config": {"target": _mixture(rng, [15, 25, 18, 22]), "m_grid": [1, 2, 8, 64],
                    "gamma_grid": ANGLES}},
        {"name": "oracle-rank3", "experiment": "mixed-oracle", "config": rank3},
        {"name": "oracle-rank3-gauss", "experiment": "mixed-oracle",
         "config": {**rank3, "bound_method": "gauss"}},
    ]


def write_outputs(src: Path, out: Path, seeds: list[int]) -> None:
    """Run every planned sweep against the package under ``src``; one file per output.

    Beside each output file NAME (``.csv`` or ``.json``), ``NAME.exit`` holds
    the exit code and ``NAME.stderr`` what `main` wrote to stderr.
    """
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import workloads
    from phaseconv import cli

    out.mkdir(parents=True, exist_ok=True)
    plans = [(f"{workload}-{seed}", workloads.build(workload, seed))
             for workload in workloads.WORKLOADS for seed in seeds]
    for prefix, sweeps in plans + [("wide", wide_plan())]:
        for sweep in sweeps:
            stem = f"{prefix}-{sweep['name']}"
            config = out / f"{stem}.config"
            config.write_text(json.dumps(sweep["config"]))
            for fmt in ("csv", "json"):
                for jobs in ("1", "2"):
                    name = f"{stem}-jobs{jobs}.{fmt}"
                    argv = [sweep["experiment"], "--config", str(config),
                            "--out", str(out / name), "--format", fmt, "--jobs", jobs]
                    err = io.StringIO()
                    with contextlib.redirect_stderr(err):
                        code = cli.main(argv)
                    (out / f"{name}.exit").write_text(f"{code}\n")
                    (out / f"{name}.stderr").write_text(err.getvalue())


def _comparable(path: Path) -> bytes:
    data = path.read_bytes()
    return _WALL_TIME.sub(rb"\1null", data) if path.suffix == ".json" else data


def differing_files(a: Path, b: Path) -> list[str]:
    """Names of the files that differ between two output directories, or exist in one only."""
    names = {p.name for p in a.iterdir()} | {p.name for p in b.iterdir()}
    return sorted(
        name for name in names
        if not ((a / name).exists() and (b / name).exists())
        or _comparable(a / name) != _comparable(b / name)
    )


def changed_lines(a: Path, b: Path, names: list[str]) -> list[tuple[str, int]]:
    """Each distinct line the named files lose (``-``) or gain (``+``) from ``a`` to ``b``.

    Each comes with the number of files it is in, most frequent first.  Lines
    compare as the files do, without the wall time; a file on one side only
    loses or gains all its lines.
    """
    def read(path: Path) -> list[str]:
        return _comparable(path).decode(errors="replace").splitlines() if path.exists() else []

    counts = collections.Counter()
    for name in names:
        before, after = read(a / name), read(b / name)
        lines = set()
        for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(None, before, after, False).get_opcodes():
            if tag != "equal":
                lines.update(["-" + line for line in before[i1:i2]] + ["+" + line for line in after[j1:j2]])
        counts.update(lines)
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))


def _outputs_of(src: Path, out: Path, seeds: list[int]) -> None:
    args = [sys.executable, __file__, "--write", str(src), str(out), *map(str, seeds)]
    subprocess.run(args, check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7, 1801])
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "parent"
        tree.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.parent, "src"],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
        _outputs_of(tree / "src", Path(tmp) / "before", args.seeds)
        _outputs_of(ROOT / "src", Path(tmp) / "after", args.seeds)
        diffs = differing_files(Path(tmp) / "before", Path(tmp) / "after")
        lines = changed_lines(Path(tmp) / "before", Path(tmp) / "after", diffs)
        total = sum(1 for p in (Path(tmp) / "after").iterdir() if p.suffix in (".csv", ".json"))
    for name in diffs:
        print(f"differs: {name}")
    for line, count in lines[:SHOWN_LINES]:
        print(f"{count} files: {line}")
    if len(lines) > SHOWN_LINES:
        print(f"… {len(lines) - SHOWN_LINES} more")
    print(f"{total} outputs, {len(diffs)} differing files against {args.parent}")
    return 1 if diffs else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--write"]:
        write_outputs(Path(sys.argv[2]), Path(sys.argv[3]), [int(s) for s in sys.argv[4:]])
        sys.exit(0)
    sys.exit(main())
