"""Time what a worker pool buys on the sweeps of the README's ``--jobs`` table.

    python3 tools/pool_timing.py [--src DIR] [--runs 8]

Runs each sweep through ``phaseconv.cli.run_sweep`` in one process,
in-process (``jobs=1``) and in a pool of two (``jobs=2``), ``--runs`` times
each, alternating which side goes first, after one untimed run of each.  A
sweep marked "pool forced" runs with ``cli.POOL_POINTS`` at 0, so that it
pools though its estimate lies below the threshold.  Prints each sweep's
estimate (the sum of its rows' sizes) and, per side, the median wall time
with its quartiles, and checks that both sides emit the same CSV.  The
package is imported from DIR (default: this tree's ``src``), so the same
script times another revision's copy.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAIR = {"probs": [0.5, 0.5]}

# (label, experiment, config, pool forced)
SWEEPS = (
    ("u1-posterior, 500 rows, N = 3000..6992 step 8", "u1-posterior",
     {"source": FAIR, "n_grid": list(range(3000, 7000, 8)), "grid_points": 8192}, False),
    ("u1-posterior, 250 rows, N = 3000..4992 step 8", "u1-posterior",
     {"source": FAIR, "n_grid": list(range(3000, 5000, 8)), "grid_points": 8192}, False),
    ("u1-fom with mc, 60 rows, N = 64..3840 step 64, pool forced", "u1-fom",
     {"source": FAIR, "target": {"probs": [0.2, 0.5, 0.3], "offset": 2},
      "n_grid": list(range(64, 3841, 64)), "m_schedule": {"a": 0.5},
      "methods": ["exact", "closed", "mc"]}, True),
    ("u1-posterior, 12 rows, N = 4^5..4^16, pool forced", "u1-posterior",
     {"source": FAIR, "n_grid": [4**k for k in range(5, 17)], "grid_points": 8192}, True),
)


def _quartiles(times: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return f"{median:.3f} s [{q1:.3f}, {q3:.3f}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the phaseconv package to time")
    parser.add_argument("--runs", type=int, default=8, help="timed runs per side")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src))
    from phaseconv import cli

    same = True
    for label, experiment, payload, forced in SWEEPS:
        config = cli.parse_config(json.dumps(payload), experiment)
        estimate = sum(cli._row_work(config, key)
                       for key in cli.EXPERIMENTS[experiment].row_keys(config))
        threshold = cli.POOL_POINTS
        if forced:
            cli.POOL_POINTS = 0
        times = {1: [], 2: []}
        outputs = {jobs: cli.emit(cli.run_sweep(config, jobs=jobs)) for jobs in times}
        for run in range(args.runs):
            for jobs in ((1, 2) if run % 2 == 0 else (2, 1)):
                start = time.perf_counter()
                cli.run_sweep(config, jobs=jobs)
                times[jobs].append(time.perf_counter() - start)
        cli.POOL_POINTS = threshold
        same = same and outputs[1] == outputs[2]
        print(f"{label}: estimate {estimate:,}; in-process {_quartiles(times[1])}, "
              f"pool of two {_quartiles(times[2])}; "
              f"{'same' if outputs[1] == outputs[2] else 'DIFFERENT'} CSV")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
