"""One pass over a workload's sweeps through ``phaseconv.cli.main``.

Run as a child process by ``run.py`` so that each pass starts from a fresh
interpreter and its peak resident memory can be read on its own:

    python3 perfbench/passes.py sweep <workdir> <jobs> <tag> <repeats>
    python3 perfbench/passes.py setup <workdir>

``sweep`` runs every sweep of ``<workdir>/plan.json`` with ``--jobs <jobs>``,
``<repeats>`` times over, writes the outputs under ``<workdir>/<tag>/`` and
the per-sweep wall times to ``<workdir>/<tag>/times.json``.  ``setup``
imports ``phaseconv.cli``, validates every config and exits; its parent
times it from process start.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_pass(cli, plan: list[dict], workdir: Path, jobs: int, tag: str, repeats: int = 1) -> dict:
    """Run every sweep ``repeats`` times; a wall time covers config text in to output written.

    Every repeat must write the same output as the first one.
    """
    from checks import CheckFailed, normalized

    out_dir = workdir / tag
    out_dir.mkdir(exist_ok=True)
    times = {sweep["name"]: [] for sweep in plan}
    codes, first = {}, {}
    for _ in range(repeats):
        for sweep in plan:
            name, fmt = sweep["name"], sweep["format"]
            out = out_dir / f"{name}.{fmt}"
            argv = [
                sweep["experiment"], "--config", str(workdir / "configs" / f"{name}.json"),
                "--out", str(out), "--format", fmt, "--jobs", str(jobs),
            ]
            start = time.perf_counter()
            codes[name] = cli.main(argv)
            times[name].append(time.perf_counter() - start)
            data = normalized(out, fmt)
            if first.setdefault(name, data) != data:
                raise CheckFailed(f"{name}: a repeat at --jobs {jobs} wrote a different output")
    return {"times": times, "codes": codes}


def main(argv: list[str]) -> int:
    mode, workdir = argv[0], Path(argv[1])
    plan = json.loads((workdir / "plan.json").read_text())
    sys.path.insert(0, str(SRC))
    from phaseconv import cli

    if mode == "setup":
        for sweep in plan:
            text = (workdir / "configs" / f"{sweep['name']}.json").read_text()
            cli.parse_config(text, sweep["experiment"])
        return 0
    jobs, tag, repeats = int(argv[2]), argv[3], int(argv[4])
    result = run_pass(cli, plan, workdir, jobs, tag, repeats)
    (workdir / tag / "times.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
