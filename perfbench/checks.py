"""Output checks, computed apart from the code paths they judge.

Each ``*_failures`` function returns a list of reasons (empty when the
output is right).  Each workload's ``self_test`` feeds its check an
output corrupted by the functions at the end of this file and expects
a complaint, so no check passes by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.compilers import CompilerSpec, compile_minic
from repro.core.bisect import BisectionResult
from repro.core.corpus import default_specs
from repro.core.primary import primary_missed_markers
from repro.core.reduction import count_statements
from repro.frontend.typecheck import check_program
from repro.interp import StepLimitExceeded, run_program
from repro.ir import run_module, verify_module
from repro.ir.interp import IRInterpreterError
from repro.ir.verify import VerificationError
from repro.lang import ast_nodes as ast
from repro.observability import strip_timestamps
from repro.realworld import executable_check

PREFIX = "DCEMarker"


# -- campaign_cold -----------------------------------------------------------


@dataclass
class SeedOutputs:
    """What a cold campaign recorded for one seed."""

    seed: int
    markers: frozenset[str]
    truth_alive: frozenset[str]
    #: alive markers per spec string
    spec_alive: dict[str, frozenset[str]]
    #: ``(dead_total, missed, primary_missed)`` per (family, level),
    #: as the campaign result counted them
    by_level: dict[tuple[str, str], tuple[int, int, int]]


@dataclass
class SeedReference:
    """The same seed judged by other means."""

    ast_alive: frozenset[str]
    gcc_alive: frozenset[str] | str
    #: primary set per spec string, from the campaign's own eliminated sets
    primary: dict[str, frozenset[str]]
    #: per sampled spec: (alive markers, IR verifier error or "",
    #: semantic mismatches of ``run_module`` against the AST interpreter)
    recompiled: dict[str, tuple[frozenset[str], str, list[str]]] = field(
        default_factory=dict
    )


def seed_outputs(outcome, result) -> SeedOutputs:
    analysis = outcome.analysis
    truth = analysis.ground_truth
    return SeedOutputs(
        seed=outcome.seed,
        markers=analysis.instrumented.marker_names,
        truth_alive=truth.alive,
        spec_alive={
            name: out.alive for name, out in analysis.outcomes.items()
        },
        by_level={
            key: (stats.dead_total, stats.missed, stats.primary_missed)
            for key, stats in result.by_level.items()
        },
    )


def seed_reference(outcome, sampled: list[CompilerSpec]) -> SeedReference:
    """Judge one seed with the AST interpreter, the host gcc, the
    primary analysis on the campaign's eliminated sets, and
    non-incremental recompiles of the ``sampled`` specs."""
    analysis = outcome.analysis
    instrumented = analysis.instrumented
    program = instrumented.program
    info = check_program(program)
    markers = instrumented.marker_names
    reference = run_program(program, info=info, backend="ast")
    try:
        gcc_alive: frozenset[str] | str = executable_check(instrumented)
    except (RuntimeError, OSError) as error:
        gcc_alive = f"gcc: {error}"
    primary = {
        name: primary_missed_markers(
            instrumented, analysis.ground_truth, out.eliminated
        )
        for name, out in analysis.outcomes.items()
    }
    ref = SeedReference(
        frozenset(reference.marker_hits) & markers, gcc_alive, primary
    )
    for spec in sampled:
        compiled = compile_minic(program, spec, info=info)
        try:
            verify_module(compiled.module)
            verified = ""
        except VerificationError as error:
            verified = str(error).splitlines()[0]
        try:
            got = run_module(compiled.module)
        except (IRInterpreterError, StepLimitExceeded) as error:
            mismatches = [f"a run that raised {error}"]
        else:
            mismatches = [
                what
                for what, ours, theirs in (
                    ("exit code", got.exit_code, reference.exit_code),
                    ("checksum", got.checksum, reference.checksum),
                    ("marker hits", got.marker_hits, reference.marker_hits),
                    ("call trace", got.call_trace, reference.call_trace),
                )
                if ours != theirs
            ]
        ref.recompiled[str(spec)] = (
            compiled.alive_markers(PREFIX) & markers, verified, mismatches
        )
    return ref


def seed_failures(out: SeedOutputs, ref: SeedReference) -> list[str]:
    failures = []
    if out.truth_alive != ref.ast_alive:
        failures.append("alive set differs from the AST interpreter's")
    if isinstance(ref.gcc_alive, str):
        failures.append(ref.gcc_alive)
    elif out.truth_alive != ref.gcc_alive:
        failures.append(
            "alive set differs from gcc -O0's: only ours "
            f"{sorted(out.truth_alive - ref.gcc_alive)}, only gcc "
            f"{sorted(ref.gcc_alive - out.truth_alive)}"
        )
    dead = out.markers - out.truth_alive
    for spec in default_specs():
        name = str(spec)
        alive = out.spec_alive.get(name)
        if alive is None:
            failures.append(f"{name}: no outcome")
            continue
        if out.truth_alive - alive:
            failures.append(f"{name} eliminated executed markers")
        missed = dead & alive
        primary = ref.primary.get(name, frozenset())
        if not primary <= missed:
            failures.append(f"{name}: primary set is not within the missed set")
        counted = out.by_level.get((spec.family, spec.level))
        if counted != (len(dead), len(missed), len(primary)):
            failures.append(f"{name}: campaign counts {counted} disagree")
    for name, (alive, verified, mismatches) in ref.recompiled.items():
        if alive != out.spec_alive.get(name):
            failures.append(f"{name}: non-incremental compile keeps other markers")
        if verified:
            failures.append(f"{name}: IR fails verification: {verified}")
        if mismatches:
            failures.append(f"{name}: run_module differs in {mismatches}")
    return failures


# -- campaign_warm -----------------------------------------------------------


@dataclass
class Replay:
    """One seed of one warm rerun."""

    seed: int
    result: object
    events: list
    #: the store replayed the seed and nothing was compiled
    replayed: bool


def warm_round_failures(
    seeds: list[int], cold: dict[int, tuple[object, list]], replays: list[Replay]
) -> dict[int, list[str]]:
    """Failures per seed of one rerun against the cold run's results
    and timestamp-stripped event streams."""
    got = {replay.seed: replay for replay in replays}
    failures: dict[int, list[str]] = {}
    for seed in seeds:
        reasons = []
        replay = got.get(seed)
        if replay is None:
            reasons.append("seed missing from the rerun")
        else:
            result, events = cold[seed]
            if not replay.replayed:
                reasons.append("seed was not replayed from the store")
            if replay.result != result:
                reasons.append("result differs from the cold run")
            if strip_timestamps(replay.events) != strip_timestamps(events):
                reasons.append("event stream differs from the cold run")
        failures[seed] = reasons
    return failures


# -- reduce_bisect -----------------------------------------------------------


@dataclass(frozen=True)
class Pairing:
    """The (marker, keeper, witness) a finding reduces under."""

    marker: str
    keeper: CompilerSpec
    witness: CompilerSpec | None


def reduction_failures(
    before: ast.Program,
    reduced: ast.Program | None,
    pairing: Pairing | None,
    bisection: BisectionResult | None,
) -> list[str]:
    if pairing is None or reduced is None:
        return ["reduce_finding found no interesting pairing"]
    failures = []
    if count_statements(reduced) > count_statements(before):
        failures.append("reduced program has more statements than its input")
    info = check_program(reduced)
    hits = run_program(reduced, info=info, backend="ast").marker_hits
    if pairing.marker in hits:
        failures.append(f"{pairing.marker} runs in the reduced program")
    if pairing.marker not in _alive(reduced, pairing.keeper):
        failures.append(f"{pairing.keeper} eliminates {pairing.marker}")
    if pairing.witness is not None and pairing.marker in _alive(
        reduced, pairing.witness
    ):
        failures.append(f"{pairing.witness} keeps {pairing.marker}")
    if bisection is not None:
        spec = pairing.keeper
        good = CompilerSpec(spec.family, spec.level, bisection.first_bad - 1)
        bad = CompilerSpec(spec.family, spec.level, bisection.first_bad)
        if pairing.marker in _alive(reduced, good):
            failures.append(f"{good} already keeps {pairing.marker}")
        if pairing.marker not in _alive(reduced, bad):
            failures.append(f"{bad} eliminates {pairing.marker}")
    return failures


def _alive(program: ast.Program, spec: CompilerSpec) -> frozenset[str]:
    return compile_minic(program, spec).alive_markers(PREFIX)


# -- self-test ---------------------------------------------------------------


def flip_alive(out: SeedOutputs) -> SeedOutputs:
    """The seed's outputs with one marker's liveness flipped."""
    marker = min(out.markers)
    return replace(out, truth_alive=out.truth_alive ^ {marker})


def marker_made_alive(program: ast.Program, marker: str) -> ast.Program:
    """A copy of ``program`` whose ``main`` calls ``marker`` first."""
    copy = ast.clone_program(program)
    main = next(f for f in copy.functions() if f.name == "main")
    main.body.stmts.insert(0, ast.ExprStmt(ast.Call(marker, [])))
    return copy


def off_by_one(bisection: BisectionResult) -> BisectionResult:
    return replace(bisection, first_bad=bisection.first_bad + 1)
