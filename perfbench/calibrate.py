"""Measure the seed pools the workloads draw from, into ``pools.json``.

Usage, from the root of a checkout (about a quarter of an hour on two
CPUs)::

    python3 perfbench/calibrate.py [WORKLOAD ...]

Named workloads are measured again and the other pools are kept.

Each candidate seed is measured in a fresh process, two at a time: the
CPU seconds of the workload's own operation on a fresh job directory,
the store bytes it leaves, and the process's peak resident memory when
the operation ends.  CPU seconds, because a seed measured beside
another one on a two-CPU host waits for memory and cache, and its wall
time says more about its neighbour than about itself.  Then the
workload's output checks run on the seed (``campaign_cold`` seeds on
every compiler spec), and every failure is printed.  Only cost keeps a
seed out of the drawn pool: an operation longer than
:data:`MAX_SECONDS` would set a run's length alone.  A seed whose
checks fail belongs among the fixed seeds, which every run counts, so
the share of failed operations stays the same from run to run and a
fix moves it; while a drawn seed fails, no ``pools.json`` is written.
Rerun it when a change to the program moves the relative cost of seeds
enough that runs of different workload seeds stop carrying the same
work.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from repro.core.corpus import default_specs, run_campaign  # noqa: E402
from repro.core.markers import instrument_program  # noqa: E402
from repro.core.resilience import CheckpointJournal  # noqa: E402
from repro.generator import generate_program  # noqa: E402
from repro.store import ArtifactStore  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from workloads import SMALL_CONFIG, WARM_CONFIG, Job  # noqa: E402

#: candidate seeds (the fixed ones among them), fixed seeds and draw
#: size per workload
PLAN = {
    "campaign_cold": (range(0, 100), (11, 22, 49), 2),
    "campaign_warm": (range(400, 520), (), 16),
    "reduce_bisect": (range(0, 300), (2, 7), 2),
}
#: per workload: generator configuration, cost names, and how a draw
#: combines each cost (summed over its seeds, or their maximum)
DESCRIPTIONS = {
    "campaign_cold": (
        "default generator configuration",
        ["CPU seconds to analyze the seed cold", "store bytes", "peak MB"],
        ["sum", "sum", "max"],
    ),
    "campaign_warm": (
        "bench_store_warm.py's small configuration",
        [
            "CPU seconds to replay the seed", "CPU seconds to analyze it cold",
            "store bytes", "peak MB",
        ],
        ["sum", "sum", "sum", "max"],
    ),
    # small programs: the fixed seed 2 sets the peak memory
    "reduce_bisect": (
        "the service tests' small configuration",
        ["CPU seconds to reduce and bisect its findings", "store bytes"],
        ["sum", "sum"],
    ),
}
#: the most CPU seconds a drawn seed's operation may take (small-config
#: seed 266's finding takes about 440 s to reduce)
MAX_SECONDS = 20.0


class TooLong(BaseException):
    """Raised when an operation passes :data:`MAX_SECONDS`.  Not an
    :class:`Exception`, so the reducer's oracle cannot swallow it."""


def _too_long(signum, frame):
    raise TooLong


def measure(task: tuple[str, int]) -> tuple[str, int, list | None, list[str]]:
    """``(workload, seed, costs or None, check failures)`` of one seed;
    ``None`` costs mean the seed offers no operation."""
    name, seed = task
    limit = 0.0 if seed in PLAN[name][1] else MAX_SECONDS
    work = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=_scratch())
    tempfile.tempdir = os.path.join(work, "tmp")
    os.makedirs(tempfile.tempdir)
    os.environ["TMPDIR"] = tempfile.tempdir
    signal.signal(signal.SIGVTALRM, _too_long)
    try:
        return (name, seed, *globals()[f"_{name}"](seed, work, limit))
    except TooLong:
        return name, seed, None, [f"takes more than {MAX_SECONDS} CPU seconds"]
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _cpu(limit: float, fn, *args, **kwargs):
    """``fn``'s result and the CPU seconds it took; past ``limit``
    seconds (0: none) it raises :class:`TooLong`."""
    signal.setitimer(signal.ITIMER_VIRTUAL, limit)
    started = time.process_time()
    try:
        return fn(*args, **kwargs), time.process_time() - started
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)


def _peak_mb() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, 2)


def _campaign_cold(seed: int, work: str, limit: float):
    job = Job(os.path.join(work, "job"), journal=True)
    (result, _), elapsed = _cpu(limit, job.run, seed, None)
    job.close()
    costs = [round(elapsed, 3), os.path.getsize(job.store_path), _peak_mb()]
    journal = CheckpointJournal(job.journal)
    journal.close()
    report = journal.get(seed)
    if report is None or report.outcome is None:
        return costs, ["the journal holds no analysis of the seed"]
    out = checks.seed_outputs(report.outcome, result)
    ref = checks.seed_reference(report.outcome, default_specs())
    return costs, checks.seed_failures(out, ref)


def _campaign_warm(seed: int, work: str, limit: float):
    job = Job(os.path.join(work, "job"), journal=False)
    cold_run, elapsed = _cpu(limit, job.run, seed, WARM_CONFIG)
    times = []
    for _ in range(5):
        metrics = workloads.MetricsRegistry()
        (result, events), spent = _cpu(
            limit, workloads.service_seed, seed, WARM_CONFIG, store=job.store,
            metrics=metrics, events_log=job.events_log, ledger=job.ledger,
        )
        times.append(spent)
        replayed = metrics.counter("store.seeds_skipped").value == 1
    job.close()
    costs = [
        round(statistics.median(times), 5), round(elapsed, 3),
        os.path.getsize(job.store_path), _peak_mb(),
    ]
    replay = checks.Replay(seed, result, events, replayed)
    failures = checks.warm_round_failures([seed], {seed: cold_run}, [replay])[seed]
    return costs, failures


def _reduce_bisect(seed: int, work: str, limit: float):
    path = os.path.join(work, "store.sqlite")
    store = ArtifactStore(path)
    result = run_campaign(
        n_programs=1, seed_base=seed, generator_config=SMALL_CONFIG,
        metrics=workloads.MetricsRegistry(), store=store,
    )
    findings = result.findings if seed in PLAN["reduce_bisect"][1] else result.findings[:1]
    if not findings:
        store.close()
        return None, []
    program = instrument_program(generate_program(seed, SMALL_CONFIG)).program
    memo: dict[str, bool] = {}
    elapsed = 0.0
    done = []
    for finding in findings:
        pairing = workloads._pairing(finding, program)
        (outcome, bisection), spent = _cpu(
            limit, _reduce_and_bisect, finding, program, pairing, memo
        )
        elapsed += spent
        done.append((pairing, outcome, bisection))
    store.record_oracle_entries(memo)
    store.close()
    costs = [round(elapsed, 3), os.path.getsize(path)]
    failures = []
    for pairing, outcome, bisection in done:
        reduced = outcome[1].program if outcome is not None else None
        failures += checks.reduction_failures(program, reduced, pairing, bisection)
    return costs, failures


def _reduce_and_bisect(finding, program, pairing, memo):
    outcome = workloads.reduce_finding(finding, program, memo=memo)
    bisection = None
    if outcome is not None and pairing is not None and finding["kind"] == "cross-level":
        bisection = workloads.bisect.bisect_marker_regression(
            outcome[1].program, pairing.marker,
            pairing.keeper.family, pairing.keeper.level,
        )
    return outcome, bisection


def _scratch() -> str:
    path = os.path.join(workloads.SCRATCH, "calibrate")
    os.makedirs(path, exist_ok=True)
    return path


def main(names: list[str]) -> int:
    unknown = set(names) - set(PLAN)
    if unknown:
        print(f"unknown workloads: {sorted(unknown)}", file=sys.stderr)
        return 2
    names = names or list(PLAN)
    path = os.path.join(HERE, "pools.json")
    with open(path) as handle:
        pools = json.load(handle)
    for name in names:
        config, costs, balance = DESCRIPTIONS[name]
        pools[name] = {
            "config": config, "costs": costs, "balance": balance,
            "draw": PLAN[name][2], "fixed": {}, "seeds": {},
        }
    tasks = [(name, seed) for name in names for seed in PLAN[name][0]]
    failing = []
    context = get_context("spawn")
    with ProcessPoolExecutor(2, mp_context=context, max_tasks_per_child=1) as pool:
        for name, seed, costs, failures in pool.map(measure, tasks):
            fixed = seed in PLAN[name][1]
            for failure in failures:
                print(f"{name} seed {seed}: {failure}", file=sys.stderr)
            if failures and not fixed and costs is not None:
                failing.append(f"{name} seed {seed}")
            if costs is not None:
                pools[name]["fixed" if fixed else "seeds"][str(seed)] = costs
    shutil.rmtree(_scratch(), ignore_errors=True)
    if failing:
        print(
            f"pools.json not written: {', '.join(failing)} fail their checks;"
            " make each a fixed seed in PLAN so every run counts it",
            file=sys.stderr,
        )
        return 1
    with open(path, "w") as handle:
        handle.write(_dump({name: pools[name] for name in PLAN}))
    return 0


def _dump(pools: dict) -> str:
    """JSON with one seed per line."""
    lines = ["{"]
    for i, (name, pool) in enumerate(pools.items()):
        lines.append(f'  "{name}": {{')
        for key in ("config", "costs", "balance", "draw"):
            lines.append(f'    "{key}": {json.dumps(pool[key])},')
        for key in ("fixed", "seeds"):
            entries = [f'      "{s}": {json.dumps(c)}' for s, c in pool[key].items()]
            body = ",\n".join(entries)
            tail = "," if key == "fixed" else ""
            lines.append(f'    "{key}": {{\n{body}\n    }}{tail}' if entries else f'    "{key}": {{}}{tail}')
        lines.append("  }" + ("," if i < len(pools) - 1 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
