"""End-to-end and per-layer benchmark of phaseconv sweeps.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; it needs only NumPy and the standard library
and imports phaseconv from ``src/``.  Every sweep goes through
``phaseconv.cli.main``: JSON config in, CSV or JSON out.

``--trace 0`` runs as many rounds as the first round's length lets fit in
``--seconds``.  A round runs one pass of the workload's sweeps at ``--jobs 1``
and one at ``--jobs 2``, each in a fresh child process that runs the sweeps
``workloads.REPEATS`` times; before each pass, three more children only
import ``phaseconv.cli`` and validate the configs (set-up time).  It
reports, over rounds:

- sweep_s        sum over sweeps of the median wall time at --jobs 1
- sweep_s_jobs2  the same at --jobs 2
- setup_s        median time from a fresh interpreter to validated configs
- peak_rss_mb    median peak resident memory of the --jobs 1 child

``--trace 1`` runs the rounds in this process instead: an untraced
--jobs 1 pass, a traced --jobs 1 pass for the numeric layers and a traced
--jobs 2 pass for pool starts and ``cli.run_sweep``'s own time.  It reports
the per-layer medians (see ``tracing.layer_metrics``) and ``trace.overhead_s``.

Either way the outputs are checked against independent computations
(``checks.py``), the checks' self-test runs first, and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Details go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import checks
import passes
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PASSES = HERE / "passes.py"
CHILD_TIMEOUT_S = 150.0
# set-up is short and noisy, so each pass is preceded by several set-up children
SETUPS_PER_PASS = 3

END_TO_END_UNITS = {"sweep_s": "s", "sweep_s_jobs2": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _write_plan(plan: list[dict], workdir: Path) -> None:
    (workdir / "configs").mkdir(parents=True)
    for sweep in plan:
        (workdir / "configs" / f"{sweep['name']}.json").write_text(json.dumps(sweep["config"]))
    (workdir / "plan.json").write_text(json.dumps(plan))


def _child(args: list[str], workdir: Path, log: str):
    """Run passes.py in a fresh interpreter; return (wall seconds, rusage).

    The wait blocks, so the parent takes no CPU from the child; a timer kills
    a child that outlives ``CHILD_TIMEOUT_S``.
    """
    with open(workdir / f"{log}.stderr", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(PASSES), *args],
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (workdir / f"{log}.stderr").read_text()[-2000:]
        raise BenchError(f"child {' '.join(args)} exited {proc.returncode}:\n{tail}")
    return wall, usage


def _pass_rows(plan, pass_dir: Path, codes: dict):
    """Rows per sweep of one pass; rejects exit codes that no failed row explains."""
    rows, attempted, failed = {}, 0, 0
    for sweep in plan:
        name = sweep["name"]
        if codes[name] not in (0, 2, 3):
            raise BenchError(f"{name}: the CLI exited {codes[name]}")
        rows[name] = checks.read_rows(pass_dir / f"{name}.{sweep['format']}", sweep["format"])
        errors = sum(1 for row in rows[name] if row.get("error"))
        if (errors > 0) != (codes[name] != 0):
            raise BenchError(f"{name}: exit code {codes[name]} with {errors} failed rows")
        attempted += len(rows[name])
        failed += errors
    return rows, attempted, failed


class Outputs:
    """Holds every pass to the first pass's bytes; `check` then checks those once.

    ``attempted`` and ``failed`` count the rows of that first pass, one pass
    of the plan: every other pass wrote the same bytes, so the counts are
    fixed for a workload whatever the run's length or the host's speed.
    """

    def __init__(self, plan):
        self.plan = plan
        self.reference: tuple[Path, dict] | None = None
        self.attempted = 0
        self.failed = 0

    def add(self, pass_dir: Path, codes: dict) -> None:
        rows, attempted, failed = _pass_rows(self.plan, pass_dir, codes)
        if self.reference is None:
            self.reference = (pass_dir, rows)
            self.attempted, self.failed = attempted, failed
            return
        for sweep in self.plan:
            name = f"{sweep['name']}.{sweep['format']}"
            checks.check_identity(self.reference[0] / name, pass_dir / name, sweep["format"])
        shutil.rmtree(pass_dir)

    def check(self) -> None:
        for sweep in self.plan:
            checks.check_sweep(sweep, self.reference[1][sweep["name"]])


def _sum_of_medians(results: list[dict], names) -> float:
    """Sum over ``names`` of each sweep's median over every timed repeat."""
    return sum(statistics.median(t for r in results for t in r["times"][name]) for name in names)


def _planned_rounds(seconds: float, first_round_s: float) -> int:
    """Rounds to run in all, fixed by the first so that a run ends close to ``seconds``."""
    return max(1, round(seconds / first_round_s))


def timed_run(plan, workdir: Path, seconds: float, repeats: int) -> dict:
    outputs = Outputs(plan)
    setups, rss, by_jobs = [], [], {1: [], 2: []}
    start = time.perf_counter()
    rounds, planned = 0, 1
    while rounds < planned:
        for jobs in (1, 2):
            setups += [_child(["setup", str(workdir)], workdir, "setup")[0] for _ in range(SETUPS_PER_PASS)]
            tag = f"r{rounds}-jobs{jobs}"
            _, usage = _child(["sweep", str(workdir), str(jobs), tag, str(repeats)], workdir, tag)
            result = json.loads((workdir / tag / "times.json").read_text())
            by_jobs[jobs].append(result)
            if jobs == 1:
                rss.append(usage.ru_maxrss / 1024.0)
            outputs.add(workdir / tag, result["codes"])
        rounds += 1
        if rounds == 1:
            planned = _planned_rounds(seconds, time.perf_counter() - start)
    outputs.check()
    timed_at_jobs2 = [s["name"] for s in plan if s.get("jobs2_timed", True)]
    metrics = {
        "sweep_s": _sum_of_medians(by_jobs[1], [s["name"] for s in plan]),
        "sweep_s_jobs2": _sum_of_medians(by_jobs[2], timed_at_jobs2),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }
    detail = {"rounds": rounds, "setups_s": setups, "peak_rss_mb": rss,
              **{f"times_jobs{j}": [p["times"] for p in by_jobs[j]] for j in (1, 2)}}
    return {"attempted": outputs.attempted, "failed": outputs.failed,
            "metrics": {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, "detail": detail}


def _layer_unit(name: str) -> str:
    if name == "cli.emit.bytes":
        return "B"
    return "s" if name.endswith("_s") else "count"


def _pass_total(result: dict) -> float:
    return sum(t for times in result["times"].values() for t in times)


def traced_run(plan, workdir: Path, seconds: float) -> dict:
    from phaseconv import cli

    # the program's precision warnings would otherwise flood this process's stderr
    warnings.simplefilter("ignore", RuntimeWarning)
    outputs = Outputs(plan)
    per_round, plain, traced = [], [], []
    start = time.perf_counter()
    rounds, planned = 0, 1
    while rounds < planned:
        tag = f"r{rounds}-plain"
        result = passes.run_pass(cli, plan, workdir, 1, tag)
        plain.append(_pass_total(result))
        outputs.add(workdir / tag, result["codes"])

        layers = {}
        for jobs in (1, 2):
            tracer = tracing.Tracer()
            tag = f"r{rounds}-traced{jobs}"
            with tracing.installed(tracer):
                result = passes.run_pass(cli, plan, workdir, jobs, tag)
            outputs.add(workdir / tag, result["codes"])
            layers[jobs] = tracing.layer_metrics(tracer)
            if jobs == 1:
                traced.append(_pass_total(result))
        # pool starts and run_sweep's time outside row work exist only at --jobs 2
        for name in ("cli.pool.starts", "cli.run_sweep.self_s"):
            layers[1][name] = layers[2][name]
        per_round.append(layers[1])
        rounds += 1
        if rounds == 1:
            planned = _planned_rounds(seconds, time.perf_counter() - start)
    outputs.check()

    metrics = {}
    for name in per_round[0]:
        # work counts repeat exactly; emitted bytes vary with the digits of wall_time_s
        values, unit = [r[name] for r in per_round], _layer_unit(name)
        if unit == "count" and len(set(values)) != 1:
            raise BenchError(f"count {name} differs between rounds: {values}")
        metrics[name] = (values[0] if unit == "count" else statistics.median(values), unit)
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    detail = {"rounds": rounds, "plain_sweep_s": plain, "traced_sweep_s": traced, "per_round": per_round}
    return {"attempted": outputs.attempted, "failed": outputs.failed, "metrics": metrics, "detail": detail}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    plan = workloads.build(workload, seed)
    workdir = OUT / f"run-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        _write_plan(plan, workdir)
        checks.self_test(workdir / "selftest")
        if trace:
            body = traced_run(plan, workdir, seconds)
        else:
            body = timed_run(plan, workdir, seconds, workloads.REPEATS[workload])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    name = f"{'trace' if trace else 'result'}-{workload}-seed{seed}.json"
    record = {"workload": workload, "seed": seed, "seconds": seconds, **body,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in body["metrics"].items()}}
    (OUT / name).write_text(json.dumps(record, indent=1))
    return record


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None) -> int:
    if not (ROOT / "src" / "phaseconv" / "cli.py").is_file():
        print(f"error: no phaseconv sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    args = _parse_args(argv)
    OUT.mkdir(exist_ok=True)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        try:
            record = run_workload(workload, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        except checks.CheckFailed as exc:
            print(f"error: {workload}: output check failed: {exc}", file=sys.stderr)
            return 1
        print(f"{workload} (seed {args.seed}, {record['detail']['rounds']} rounds): "
              f"{record['attempted']} rows attempted, {record['failed']} failed")
        for name, m in record["metrics"].items():
            print(f"  {name:50s} {m['value']:>16.6g} {m['unit']}")
        total["attempted"] += record["attempted"]
        total["failed"] += record["failed"]
        prefix = "" if len(names) == 1 else f"{workload}."
        total["metrics"].update({prefix + k: v for k, v in record["metrics"].items()})
    print(f"environment: {json.dumps(_environment())}")
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
