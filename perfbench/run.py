"""The repository's benchmark: three batch workloads, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload campaign_cold --seed 1 --seconds 10 --trace 0

Each run is one process running one workload (``workloads.py``)
against the checkout's own ``src/``, at ``jobs=1``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones from a traced run of the
same inputs.  See ``README.md`` in this directory.
"""

import time

# setup_s counts from here: imports and the workload's set-up
STARTED = time.time()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS = ("campaign_cold", "campaign_warm", "reduce_bisect")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SOURCE}", file=sys.stderr)
        return 2
    if args.workload == "campaign_cold" and shutil.which("gcc") is None:
        print("perfbench: campaign_cold checks need gcc on PATH", file=sys.stderr)
        return 2

    # the checkout's own code, never an installed copy
    sys.path[:0] = [SOURCE, HERE]
    import workloads

    result = workloads.run(
        args.workload, args.seed, args.seconds, args.trace == 1, STARTED
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
