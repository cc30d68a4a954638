"""What a fresh interpreter loads: the worker-pool stack waits for the first pool start."""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import phaseconv

SRC = str(Path(phaseconv.__file__).resolve().parent.parent)
PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


def run_fresh(code: str) -> None:
    """Run ``code`` in a new interpreter that imports phaseconv and perfbench from this tree."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((SRC, PERFBENCH))}
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_imports_load_no_pool_stack_until_read():
    run_fresh("""
        import sys

        import phaseconv
        assert not {"argparse", "csv", "concurrent.futures"} & set(sys.modules)

        from phaseconv import cli
        assert not {"concurrent.futures", "multiprocessing"} & set(sys.modules)

        import concurrent.futures
        assert cli.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor
    """)


# a small u1-rates sweep that pools at --jobs 2 on any host
RATES_SWEEP = """
        import json
        import os
        import sys

        from phaseconv import cli

        cli.POOL_POINTS = 0
        os.cpu_count = lambda: 2
        fair = {"probs": [0.5, 0.5]}
        config = cli.parse_config(json.dumps({
            "source": fair, "target": fair, "n_grid": [16, 32, 64], "m_schedule": {"a": 0.5},
        }), "u1-rates")
    """


def test_first_pool_start_loads_the_pool_stack():
    # no test patches or subclasses cli.ProcessPoolExecutor here, so the sweep
    # itself must bind it through the module
    run_fresh(RATES_SWEEP + """
        assert "concurrent.futures" not in sys.modules
        pooled = cli.emit(cli.run_sweep(config, jobs=2))
        assert "concurrent.futures.process" in sys.modules
        assert pooled == cli.emit(cli.run_sweep(config, jobs=1))
    """)


def test_tracer_counts_a_pool_bound_on_first_read():
    # perfbench's tracer reads the unbound name and patches the module global
    # it binds; the sweep must then start the tracer's pool
    run_fresh(RATES_SWEEP + """
        import concurrent.futures

        import tracing

        with tracing.installed(tracing.Tracer()) as tracer:
            cli.run_sweep(config, jobs=2)
        assert tracer.counts["cli.pool.starts"] == 1
        assert cli.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor
    """)
