"""The benchmark's workloads: set-up, timed phase, output checks.

``run.py`` calls :func:`run` once per process.  ``started`` is the
wall-clock time at which ``run.py`` started, so ``setup_s`` counts
imports and the workload's own set-up.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import resource
import shutil
import sqlite3
import sys
import tempfile
import time
from dataclasses import astuple
from statistics import fmean, median, quantiles

from repro.compilers import CompilerSpec, IncrementalEngine
from repro.core import bisect
from repro.core.corpus import default_specs, run_campaign
from repro.core.markers import instrument_program
from repro.core.reduction import (
    MissedMarkerPredicate,
    reduce_finding,
    reduction_targets,
)
from repro.core.resilience import CheckpointJournal
from repro.generator import GeneratorConfig, generate_program
from repro.observability import (
    EventBus,
    JsonlEventWriter,
    MetricsRegistry,
    RunLedger,
    Tracer,
    current_tracer,
    use_tracer,
    write_spans_jsonl,
)
from repro.store import ArtifactStore

import checks
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
#: a run writes only here, inside the checkout
SCRATCH = os.path.join(os.path.dirname(HERE), ".perfbench")

#: the service tests' small configuration (tests/service)
SMALL_CONFIG = GeneratorConfig(
    min_globals=2, max_globals=4, min_functions=1, max_functions=2,
    max_depth=2, min_block_stmts=1, max_block_stmts=3, max_loop_trip=5,
)
#: ``benchmarks/bench_store_warm.py``'s small configuration
WARM_CONFIG = GeneratorConfig(
    min_globals=1, max_globals=3, min_functions=2, max_functions=3,
    max_depth=3, min_block_stmts=1, max_block_stmts=4, max_expr_depth=2,
)

#: a drawn set's combined costs stay within this share of their targets
BALANCE = 0.03
#: specs recompiled on a fixed seed besides its drawn one: llvmlike-O3's
#: IR of default-config seed 22 fails verify_module (unswitch), so that
#: seed counts as a failed operation in every run until the fault is fixed
RECOMPILED = {22: (("llvmlike", "O3"),)}


# -- inputs ------------------------------------------------------------------


def draw(workload: str, seed: int) -> tuple[list[int], list[int]]:
    """The seeds ``workload`` draws with workload seed ``seed``, and the
    seeds it always runs.

    The drawn seeds are a seeded random sample of the workload's pool
    (``pools.json``), kept only when each of its costs, combined with
    the fixed seeds', lies within :data:`BALANCE` of its target.  A
    summed cost (CPU seconds, store bytes) targets the pool mean's
    share of a round; a maximum (peak memory, which the largest seed
    sets) targets the pool's 90th percentile.  Every run then carries
    about the same work while the programs differ from seed to seed.
    """
    with open(os.path.join(HERE, "pools.json")) as handle:
        pool = json.load(handle)[workload]
    costs = {int(s): c for s, c in pool["seeds"].items()}
    fixed = list(pool["fixed"].values())
    seeds = sorted(costs)
    k = pool["draw"]

    def combine(how: str, values: list[float]) -> float:
        return sum(values) if how == "sum" else max(values)

    targets = []
    for i, how in enumerate(pool["balance"]):
        column = [costs[s][i] for s in seeds]
        typical = (
            [fmean(column)] * k if how == "sum" else [quantiles(column, n=10)[-1]]
        )
        targets.append(combine(how, typical + [c[i] for c in fixed]))
    rng = random.Random(f"{workload}/{seed}")
    for _ in range(100_000):
        pick = rng.sample(seeds, k)
        chosen = [costs[s] for s in pick] + fixed
        if all(
            abs(combine(how, [c[i] for c in chosen]) - target) <= BALANCE * target
            for i, (how, target) in enumerate(zip(pool["balance"], targets))
        ):
            return sorted(pick), sorted(map(int, pool["fixed"]))
    raise RuntimeError(f"no balanced draw for {workload} seed {seed}")


def service_seed(seed, config, *, store, metrics, events_log, ledger, journal=None):
    """Analyze one seed the way a service job runs a block of seeds:
    one ``run_campaign`` with the job's store, journal, event log and
    metrics, then a run-ledger record.  Returns the result and the
    seed's events."""
    bus = EventBus()
    events: list = []
    bus.subscribe(events.append)
    bus.subscribe(events_log)
    started = time.perf_counter()
    result = run_campaign(
        n_programs=1, seed_base=seed, generator_config=config,
        metrics=metrics, checkpoint=journal, events=bus, store=store,
    )
    ledger.record_run(
        result, n_programs=1, seed_base=seed, generator_config=config,
        metrics=metrics, wall_time=time.perf_counter() - started,
        store_used=True,
    )
    return result, events


class Job:
    """A fresh service-style job directory: store, event log, ledger
    and (optionally) checkpoint journal."""

    def __init__(self, path: str, journal: bool) -> None:
        os.makedirs(path)
        self.store_path = os.path.join(path, "store.sqlite")
        self.store = ArtifactStore(self.store_path)
        self.journal = os.path.join(path, "journal.jsonl") if journal else None
        self.events_log = JsonlEventWriter(os.path.join(path, "events.jsonl"))
        self.ledger = RunLedger(os.path.join(path, "ledger.sqlite"))
        self.metrics = MetricsRegistry()

    def run(self, seed: int, config: GeneratorConfig | None):
        return service_seed(
            seed, config, store=self.store, metrics=self.metrics,
            events_log=self.events_log, ledger=self.ledger,
            journal=self.journal,
        )

    def close(self) -> None:
        self.store.close()
        self.events_log.close()
        self.ledger.close()


# -- the three workloads -----------------------------------------------------


class Workload:
    """Set-up, one round of operations, and the checks of its outputs.

    ``failures`` maps each attempted operation (in order) to the
    reasons its outputs are wrong; ``self_test`` corrupts one output
    per check and returns the checks that failed to notice.
    """

    def __init__(self, seed: int, work: str) -> None:
        self.seed = seed
        self.work = work
        self.rounds: list = []
        self.invariants: list[str] = []

    def store_path(self) -> str:
        raise NotImplementedError

    def after_round(self) -> None:
        """Runs after each round, outside the timed intervals."""

    def counters(self) -> dict[str, float]:
        return {}


class CampaignCold(Workload):
    """One op is one default-config seed analyzed cold, service-style."""

    def setup(self) -> None:
        drawn, fixed = draw("campaign_cold", self.seed)
        self.seeds = sorted(drawn + fixed)

    def round(self, index: int):
        job = Job(os.path.join(self.work, f"round-{index}"), journal=True)
        try:
            results = {seed: job.run(seed, None)[0] for seed in self.seeds}
        finally:
            job.close()
        self.rounds.append((job, results))
        return len(results)

    def store_path(self) -> str:
        return self.rounds[-1][0].store_path

    def counters(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for job, _ in self.rounds:
            for name in ("compile.pass_execs_saved", "compile.memo_hits"):
                totals[name] = (
                    totals.get(name, 0) + job.metrics.counter(name).value
                )
        return totals

    def failures(self) -> list[list[str]]:
        first_job, first = self.rounds[0]
        journal = CheckpointJournal(first_job.journal)
        journal.close()
        rng = random.Random(f"campaign_cold-sample/{self.seed}")
        specs = default_specs()
        self.outputs = {}
        per_seed = {}
        for seed in self.seeds:
            report = journal.get(seed)
            if report is None or report.outcome is None:
                per_seed[seed] = ["the journal holds no analysis of the seed"]
                continue
            outcome = report.outcome
            sampled = {rng.choice(specs)}
            sampled.update(
                CompilerSpec(family, level)
                for family, level in RECOMPILED.get(seed, ())
            )
            out = checks.seed_outputs(outcome, first[seed])
            ref = checks.seed_reference(outcome, sorted(sampled, key=str))
            self.outputs[seed] = (out, ref)
            per_seed[seed] = checks.seed_failures(out, ref)
        failed = []
        for _, results in self.rounds:
            for seed in self.seeds:
                reasons = list(per_seed[seed])
                if results[seed] != first[seed]:
                    reasons.append("result differs from the first round")
                failed.append(reasons)
        return failed

    def self_test(self) -> list[str]:
        out, ref = self.outputs[min(self.outputs)]
        if not checks.seed_failures(checks.flip_alive(out), ref):
            return ["campaign_cold check accepts a flipped alive marker"]
        return []

    def check_level_counts(self, collector: "LevelCounts") -> None:
        """The per-(family, level) counts derived from the traced layer
        calls must equal the campaign results'."""
        expected: dict = {}
        for _, results in self.rounds:
            for result in results.values():
                for key, stats in result.by_level.items():
                    row = expected.setdefault(key, [0, 0, 0])
                    row[0] += stats.dead_total
                    row[1] += stats.missed
                    row[2] += stats.primary_missed
        derived = collector.totals()
        if derived != expected:
            self.invariants.append(
                f"traced level counts {derived} != campaign {expected}"
            )


class LevelCounts:
    """Hook deriving (dead, missed, primary-missed) per (family, level)
    from the values the wrapped layer calls return."""

    def __init__(self) -> None:
        self.seeds: list[dict] = []

    def __call__(self, name, args, kwargs, result) -> None:
        # a seed's analysis starts at its ground truth and ends with
        # the primary searches of the campaign merge
        if name == "interp.truth":
            self.seeds.append(
                {"truth": result, "alive": {}, "primary": {}, "config": None}
            )
        if not self.seeds:
            return
        current = self.seeds[-1]
        if name == "compilers.compile" and isinstance(args[0], IncrementalEngine):
            current["config"] = astuple(args[1])
        elif name == "backend.scan" and current["config"] is not None:
            current["alive"][current["config"]] = result
            current["config"] = None
        elif name == "primary.search":
            current["primary"][frozenset(args[2])] = result

    def totals(self) -> dict:
        totals: dict = {}
        for current in self.seeds:
            truth = current["truth"]
            markers = truth.all_markers
            for spec in default_specs():
                alive = current["alive"][astuple(spec.config())] & markers
                primary = current["primary"][markers - alive]
                row = totals.setdefault((spec.family, spec.level), [0, 0, 0])
                row[0] += len(truth.dead)
                row[1] += len(truth.dead & alive)
                row[2] += len(primary)
        return totals


class CampaignWarm(Workload):
    """One op is one small-config seed replayed from a warm store."""

    def setup(self) -> None:
        drawn, fixed = draw("campaign_warm", self.seed)
        self.seeds = sorted(drawn + fixed)
        self.job = Job(os.path.join(self.work, "job"), journal=False)
        self.cold = {seed: self.job.run(seed, WARM_CONFIG) for seed in self.seeds}
        self.failed: list[list[str]] = []

    def round(self, index: int):
        metrics = MetricsRegistry()
        skipped = metrics.counter("store.seeds_skipped")
        compiled = metrics.counter("campaign.compilations")
        replays = []
        for seed in self.seeds:
            before = (skipped.value, compiled.value)
            result, events = service_seed(
                seed, WARM_CONFIG, store=self.job.store, metrics=metrics,
                events_log=self.job.events_log, ledger=self.job.ledger,
            )
            replayed = (skipped.value, compiled.value) == (
                before[0] + 1, before[1]
            )
            replays.append(checks.Replay(seed, result, events, replayed))
        self.last = replays
        return len(replays)

    def after_round(self) -> None:
        """Checked between rounds, outside the timed intervals, so a
        long run holds one round in memory."""
        failures = checks.warm_round_failures(self.seeds, self.cold, self.last)
        self.failed.extend(failures[seed] for seed in self.seeds)

    def store_path(self) -> str:
        return self.job.store_path

    def failures(self) -> list[list[str]]:
        self.job.close()
        return self.failed

    def self_test(self) -> list[str]:
        dropped = self.last[1:]
        if not any(checks.warm_round_failures(self.seeds, self.cold, dropped).values()):
            return ["campaign_warm check accepts a dropped replayed seed"]
        return []


class ReduceBisect(Workload):
    """One op is one finding reduced to fixpoint, then bisected when
    it is cross-level."""

    def setup(self) -> None:
        drawn, fixed = draw("reduce_bisect", self.seed)
        self.store_file = os.path.join(self.work, "store.sqlite")
        store = ArtifactStore(self.store_file)
        metrics = MetricsRegistry()
        self.ops = []
        for seed in drawn + fixed:
            result = run_campaign(
                n_programs=1, seed_base=seed, generator_config=SMALL_CONFIG,
                metrics=metrics, store=store,
            )
            findings = result.findings[:1] if seed in drawn else result.findings
            program = instrument_program(
                generate_program(seed, SMALL_CONFIG)
            ).program
            for finding in findings:
                self.ops.append((finding, program, _pairing(finding, program)))
        store.close()

    def round(self, index: int):
        store = ArtifactStore(self.store_file)
        memo: dict[str, bool] = {}
        tracer = current_tracer()
        done = []
        try:
            for finding, program, pairing in self.ops:
                with tracer.span(layers.REDUCE_OP):
                    outcome = reduce_finding(finding, program, memo=memo)
                bisection = None
                if (
                    outcome is not None
                    and pairing is not None
                    and finding["kind"] == "cross-level"
                ):
                    # through the module, so a traced run sees the call
                    bisection = bisect.bisect_marker_regression(
                        outcome[1].program, pairing.marker,
                        pairing.keeper.family, pairing.keeper.level,
                    )
                done.append((outcome, bisection))
            store.record_oracle_entries(memo)
        finally:
            store.close()
        self.rounds.append(done)
        return len(done)

    def store_path(self) -> str:
        return self.store_file

    def counters(self) -> dict[str, float]:
        calls = hits = wasted = 0
        for done in self.rounds:
            for outcome, _ in done:
                if outcome is not None:
                    calls += outcome[1].oracle_calls
                    hits += outcome[1].oracle_cache_hits
                    wasted += outcome[1].speculative_wasted
        return {
            "reduction.oracle_calls": calls,
            "reduction.memo_hit_ratio": hits / (hits + calls) if calls else 0.0,
            "reduction.speculative_wasted": wasted,
        }

    def failures(self) -> list[list[str]]:
        failed = []
        first = self.rounds[0]
        for done in self.rounds:
            for (finding, program, pairing), (outcome, bisection), ref in zip(
                self.ops, done, first
            ):
                reduced = outcome[1].program if outcome is not None else None
                reasons = checks.reduction_failures(
                    program, reduced, pairing, bisection
                )
                if done is not first and _summary(outcome, bisection) != _summary(*ref):
                    reasons.append("reduction differs from the first round")
                failed.append(reasons)
        return failed

    def self_test(self) -> list[str]:
        missing = []
        for (finding, program, pairing), (outcome, bisection) in zip(
            self.ops, self.rounds[0]
        ):
            if outcome is None:
                continue
            reduced = outcome[1].program
            alive = checks.marker_made_alive(reduced, pairing.marker)
            if not checks.reduction_failures(program, alive, pairing, None):
                missing.append("reduce check accepts a live marker")
            if bisection is not None and not checks.reduction_failures(
                program, reduced, pairing, checks.off_by_one(bisection)
            ):
                missing.append("bisect check accepts an off-by-one bisection")
        return missing


def _pairing(finding: dict, program) -> checks.Pairing | None:
    """The first (marker, keeper, witness) under which the finding's
    program is interesting — the pairing ``reduce_finding`` reduces
    under."""
    for marker, keeper, witness in reduction_targets(finding, "O3", None):
        if MissedMarkerPredicate(marker, keeper, witness)(program):
            return checks.Pairing(marker, keeper, witness)
    return None


def _summary(outcome, bisection):
    if outcome is None:
        return None
    return outcome[0], bisection.first_bad if bisection is not None else None


WORKLOADS = {
    "campaign_cold": CampaignCold,
    "campaign_warm": CampaignWarm,
    "reduce_bisect": ReduceBisect,
}


# -- the run -----------------------------------------------------------------


def store_sizes(path: str) -> dict[str, float]:
    con = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        memo = con.execute(
            "SELECT COALESCE(SUM(LENGTH(module_fp) + LENGTH(config_fp)"
            " + LENGTH(eliminated)), 0) FROM compile_memo"
        ).fetchone()[0]
        reports = con.execute(
            "SELECT COALESCE(SUM(LENGTH(report)), 0) FROM seed_analyses"
        ).fetchone()[0]
    finally:
        con.close()
    return {"store.compile_memo_mb": memo / 1e6, "store.reports_mb": reports / 1e6}


def run(name: str, seed: int, seconds: float, trace: bool, started: float) -> dict:
    work = os.path.join(SCRATCH, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    # executable_check and gcc write their temporaries inside the checkout
    tempfile.tempdir = os.path.join(work, "tmp")
    os.environ["TMPDIR"] = tempfile.tempdir

    workload = WORKLOADS[name](seed, work)
    workload.setup()
    setup_s = time.time() - started

    tracer = Tracer() if trace else None
    installed = layers.install(tracer) if trace else None
    collector = None
    if trace and name == "campaign_cold":
        collector = LevelCounts()
        installed.hooks.append(collector)
    attempted = 0
    round_s: list[float] = []
    with use_tracer(tracer) if trace else contextlib.nullcontext():
        try:
            while sum(round_s) < seconds or not round_s:
                begin = time.perf_counter()
                attempted += workload.round(len(round_s))
                round_s.append(time.perf_counter() - begin)
                workload.after_round()
        finally:
            if installed is not None:
                installed.uninstall()
    # every round runs the same operations, and the median round
    # shrugs off the bursts in which a shared host runs slower
    ops_per_s = attempted / len(round_s) / median(round_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    failures = workload.failures()
    if len(failures) != attempted:
        workload.invariants.append(
            f"{len(failures)} checked operations of {attempted} attempted"
        )
    if collector is not None:
        workload.check_level_counts(collector)
    problems = workload.self_test() + workload.invariants
    store_mb = os.path.getsize(workload.store_path()) / 1e6
    failed = sum(1 for reasons in failures if reasons)
    for index, reasons in enumerate(failures):
        for reason in reasons:
            print(f"op {index}: {reason}", file=sys.stderr)
    for problem in problems:
        print(f"check: {problem}", file=sys.stderr)

    if trace:
        write_spans_jsonl(tracer.spans, os.path.join(work, "trace.jsonl"))
        counters = workload.counters()
        counters.update(store_sizes(workload.store_path()))
        values = layers.layer_metrics(tracer.spans, counters)
        metrics = {key: {"value": value, "unit": _unit(key)} for key, value in values.items()}
        print(
            f"traced ops_per_s {ops_per_s:.4f} over {sum(round_s):.2f} s",
            file=sys.stderr,
        )
    else:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "op/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "store_mb": {"value": store_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    with open(os.path.join(work, "result.json"), "w") as handle:
        json.dump(result, handle, indent=1)
    return result


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"

