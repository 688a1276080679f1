"""Command-line interface: run the paper's experiments from a shell.

``python -m repro`` (or the ``repro-mc`` console script) checks a property
family on a system of the requested size with the requested engine, printing
a small results table::

    $ python -m repro --engine bdd --size 10
    M_10 via engine=bdd (direct symbolic encoding)
      states      : 10240
      transitions : 61430
      ...

``--system`` picks the process family: the Section 5 token ``ring`` (the
default, checked against the paper's properties and invariants), the
lock-based ``mutex`` protocol, or the saturating ripple ``counter``.  The
engine choices come from :data:`repro.mc.registry.ENGINE_NAMES`
(``docs/ENGINES.md`` is the when-to-use-which guide).  With ``--engine bdd``
the system is encoded *directly* as binary decision diagrams (the explicit
global state graph is never built), so sizes well beyond the explicit
engines' range remain tractable; with the explicit engines the global graph
is built first, exactly like the library's programmatic path.  The SAT
engines also start from the direct encoding but never run a reachability
fixpoint: ``--engine bmc`` unrolls it into an incremental solver and proves
invariants by k-induction (or refutes them with a depth-minimal
counterexample within ``--bound``), while ``--engine ic3`` proves them
*unboundedly* by property-directed reachability, reporting a re-verified
inductive-invariant certificate (``--bound`` then caps the frame count, a
divergence safety net rather than a proof parameter).  Properties outside a
SAT engine's fragment are reported as skipped.  ``--engine portfolio``
races the other engines per property in supervised worker processes —
first conclusive verdict wins, crashed or hung workers are restarted, and
``--workers`` caps the pool (see ``docs/RESILIENCE.md``).  ``--timeout``
and ``--memory-limit`` attach a resource budget that every engine observes
at its cooperative checkpoints; ``--buggy`` builds the seeded-bug system
variants.  ``--fairness`` switches
every check to the fairness-constrained semantics and adds the
fairness-dependent liveness family.  ``--experiments`` instead replays the
full E1–E13 experiment suite and prints one summary line per experiment.

The process exits non-zero when a checked property is violated (or an
experiment's headline claim fails to reproduce), so the command doubles as a
CI smoke check.

Observability (see ``docs/OBSERVABILITY.md``): ``--trace FILE`` records a
Chrome/Perfetto trace-event JSON of the run's nested spans (load it at
``ui.perfetto.dev``), ``--metrics FILE`` dumps the metrics registry as JSONL
(one labeled series per line), ``--progress`` prints rate-limited heartbeat
lines from the engines' outer loops, and ``--profile`` emits exactly one
JSON document on stderr summarising phases, engine statistics, and the
metrics snapshot.  For ``--engine portfolio`` the trace and metrics include
the raced workers' own telemetry (one Perfetto lane per engine,
``worker=<engine>``-labelled metric rows); analyse the artifacts offline
with the ``repro-obs`` console script (``repro-obs report``,
``repro-obs diff``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from repro.analysis.timing import timed_call
from repro.mc.registry import ENGINE_NAMES

__all__ = ["main", "build_parser"]

#: The system families the CLI can check, in presentation order.
SYSTEM_NAMES = ("ring", "mutex", "counter")

#: The engines that reject fairness-constrained semantics (SAT-based).
_SAT_ENGINES = ("bmc", "ic3")

#: How each check outcome reads in the verdict column of the results table.
_OUTCOME_WORDS = {
    "holds": "True",
    "violated": "False",
    "skipped": "skipped",
    "inconclusive": "INCONCLUSIVE",
    "exhausted": "BUDGET EXHAUSTED",
    "crashed": "CRASHED",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mc",
        description=(
            "Model check a process family from the Clarke-Grumberg-Browne "
            "PODC '86 reproduction (systems: %s) with one of the engines: "
            "%s." % (", ".join(SYSTEM_NAMES), ", ".join(ENGINE_NAMES))
        ),
    )
    parser.add_argument(
        "--engine",
        choices=ENGINE_NAMES,
        default="bitset",
        help=(
            # Deliberate subset: the engines that skip the explicit graph.
            "engine to use (default: bitset; bdd, bmc and ic3 never build "  # repro-lint: disable=R001
            "the explicit graph — see docs/ENGINES.md)"
        ),
    )
    parser.add_argument(
        "--system",
        choices=SYSTEM_NAMES,
        default="ring",
        help=(
            "process family to check (default: ring — the paper's Section 5 "
            "token ring)"
        ),
    )
    parser.add_argument(
        "--size",
        "--ring-size",
        dest="size",
        type=int,
        default=4,
        metavar="N",
        help=(
            "number of processes of the family (default: 4); --ring-size is "
            "the backward-compatible alias"
        ),
    )
    parser.add_argument(
        "--bound",
        type=int,
        default=None,
        metavar="K",
        help=(
            "with --engine bmc: falsification/induction depth ceiling "
            "(default: %d); with --engine ic3: frame-count ceiling "
            "(default: %d)" % (_default_bound(), _default_frames())
        ),
    )
    parser.add_argument(
        "--fairness",
        action="store_true",
        help=(
            "check under per-process scheduler fairness and include the "
            "fairness-dependent liveness family (ring and mutex only)"
        ),
    )
    parser.add_argument(
        "--experiments",
        action="store_true",
        help="run the full E1-E13 experiment suite instead of a single check",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "emit a JSON profile to stderr: per-phase wall times (build, each "
            "check) plus, for the bdd engine, live/peak node counts, cache "
            "hit/miss/evict statistics, and GC/reorder activity; for the "
            "SAT engines, solver statistics (conflicts, decisions, "
            "propagations, learned/subsumed clauses) and, for ic3, the "
            "frame/obligation/generalization counters"
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="with --experiments: use the smaller quick parameters",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help=(
            "record a Chrome/Perfetto trace-event JSON of the run's nested "
            "spans to FILE (open it at ui.perfetto.dev, or analyse it with "
            "repro-obs report)"
        ),
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        default=None,
        help=(
            "write the metrics registry to FILE as JSONL, one labeled "
            "series per line"
        ),
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help=(
            "print rate-limited [progress] heartbeat lines from the "
            "engines' outer loops (fixpoint rounds, BMC depths, IC3 frames)"
        ),
    )
    parser.add_argument(
        "--buggy",
        action="store_true",
        help=(
            "build the seeded-bug variant of the system (every family has "
            "one) so violated properties exercise the counterexample and "
            "portfolio-disagreement paths"
        ),
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "wall-clock budget for the checks; engines observe it at their "
            "cooperative checkpoints and report BUDGET EXHAUSTED instead of "
            "running away (portfolio workers each get the full budget)"
        ),
    )
    parser.add_argument(
        "--memory-limit",
        type=int,
        default=None,
        metavar="MB",
        help=(
            "address-space ceiling in mebibytes, enforced with setrlimit; "
            "with --engine portfolio each worker process gets the ceiling, "
            "otherwise it applies to this process"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "with --engine portfolio: cap the number of racing worker "
            "processes (default: one per raced engine)"
        ),
    )
    return parser


def _default_bound() -> int:
    from repro.mc.bmc import DEFAULT_BOUND

    return DEFAULT_BOUND


def _default_frames() -> int:
    from repro.mc.ic3 import DEFAULT_MAX_FRAMES

    return DEFAULT_MAX_FRAMES


def _ring_family(size: int, fairness: bool):
    from repro.systems import token_ring

    family = {}
    for name, formula in token_ring.ring_properties().items():
        family["property " + name] = formula
    for name, formula in token_ring.ring_invariants().items():
        family["invariant " + name] = formula
    family["invariant mutual_exclusion"] = token_ring.ring_mutual_exclusion(size)
    constraint = None
    if fairness:
        constraint = token_ring.ring_scheduler_fairness(size)
        # The AF t_i family is only true under fairness — see E11.
        for name, formula in token_ring.fair_ring_properties().items():
            family["fair liveness " + name] = formula
    return family, constraint


def _mutex_family(size: int, fairness: bool):
    from repro.systems import mutex

    family = {"invariant mutual_exclusion": mutex.mutex_safety(size)}
    constraint = None
    if fairness:
        constraint = mutex.mutex_scheduler_fairness(size)
        # Eventual entry is only true under fairness (an all-idle loop
        # never goes critical).
        family["fair liveness eventual_entry"] = mutex.mutex_liveness()
    return family, constraint


def _counter_family(size: int, fairness: bool):
    from repro.systems import counter

    return {"invariant nonzero": counter.counter_nonzero(size)}, None


#: Per-system builders: (family+fairness factory, explicit builder,
#: symbolic builder, display name).
_SYSTEMS = {
    "ring": (_ring_family, "build_token_ring", "symbolic_token_ring", "M_%d"),
    "mutex": (_mutex_family, "build_mutex", "symbolic_mutex", "mutex(%d)"),
    "counter": (_counter_family, "build_counter", "symbolic_counter", "counter(%d)"),
}

_SYSTEM_MODULES = {"ring": "token_ring", "mutex": "mutex", "counter": "counter"}


def _make_budget(timeout: Optional[float], memory_limit: Optional[int]):
    """Build a :class:`~repro.runtime.limits.ResourceBudget`, or ``None``."""
    if timeout is None and memory_limit is None:
        return None
    from repro.runtime.limits import ResourceBudget

    return ResourceBudget(
        deadline_s=timeout,
        memory_bytes=None if memory_limit is None else memory_limit * 1024 * 1024,
    )


def _run_check(
    system: str,
    engine: str,
    size: int,
    fairness: bool,
    out,
    profile: bool = False,
    bound: Optional[int] = None,
    buggy: bool = False,
    timeout: Optional[float] = None,
    memory_limit: Optional[int] = None,
    workers: Optional[int] = None,
) -> bool:
    import contextlib
    import importlib

    from repro.errors import (
        BudgetExceededError,
        EngineCrashError,
        FragmentError,
        InconclusiveError,
    )

    family_factory, explicit_name, symbolic_name, display = _SYSTEMS[system]
    module_name = "repro.systems." + _SYSTEM_MODULES[system]
    module = importlib.import_module(module_name)
    build_explicit = getattr(module, explicit_name)
    build_symbolic = getattr(module, symbolic_name)
    family, constraint = family_factory(size, fairness)
    label = display % size
    if buggy:
        label += " (buggy)"
    budget = _make_budget(timeout, memory_limit)

    if engine == "portfolio":
        from repro.runtime.portfolio import PortfolioModelChecker, builder_source

        sources = {
            "bitset": builder_source(module_name, explicit_name, size, buggy=buggy),
            "bdd": builder_source(module_name, symbolic_name, size, buggy=buggy),
            "bmc": builder_source(
                module_name, symbolic_name, size, buggy=buggy, domain="free"
            ),
            "ic3": builder_source(
                module_name, symbolic_name, size, buggy=buggy, domain="free"
            ),
        }
        if constraint is not None:  # pragma: no cover - rejected by main()
            raise FragmentError("the portfolio engine rejects fairness")
        built = timed_call(
            PortfolioModelChecker,
            sources=sources,
            workers=workers,
            bound=bound,
            budget=budget,
        )
        structure = None
        checker = built.value
        descriptor = "parallel portfolio racing %s" % ", ".join(checker.engines)
    elif engine == "bdd":
        from repro.mc.symbolic import SymbolicCTLModelChecker

        built = timed_call(build_symbolic, size, buggy=buggy)
        structure = built.value
        checker = SymbolicCTLModelChecker(structure, fairness=constraint)
        descriptor = "direct symbolic encoding"
    elif engine in _SAT_ENGINES:
        # The free domain skips the symbolic reachability fixpoint — the
        # whole point of the SAT engines is that the bound (bmc) or the
        # discovered invariant (ic3), not the reachable set, pays.
        built = timed_call(build_symbolic, size, buggy=buggy, domain="free")
        structure = built.value
        if engine == "bmc":
            from repro.mc.bmc import BoundedModelChecker

            checker = BoundedModelChecker(
                structure, bound=_default_bound() if bound is None else bound
            )
            descriptor = (
                "SAT unrolling of the direct encoding, bound=%d" % checker.bound
            )
        else:
            from repro.mc.ic3 import IC3ModelChecker

            checker = IC3ModelChecker(
                structure,
                max_frames=_default_frames() if bound is None else bound,
            )
            descriptor = (
                "IC3 over the direct encoding, max %d frames" % checker.max_frames
            )
    else:
        from repro.mc.indexed import ICTLStarModelChecker

        built = timed_call(build_explicit, size, buggy=buggy)
        structure = built.value
        # Concrete-index property families (pairwise mutual exclusion) are
        # already instantiated, which the Section 4 closedness restriction
        # would reject — so the explicit engines skip enforcement here.
        checker = ICTLStarModelChecker(
            structure,
            engine=engine,
            fairness=constraint,
            enforce_restrictions=False,
        )
        descriptor = "explicit state graph"

    print("%s via engine=%s (%s)" % (label, engine, descriptor), file=out)
    if constraint is not None:
        print("  fairness    : %d conditions" % len(constraint), file=out)
    if engine == "portfolio":
        # Structures are built worker-side, one natural encoding per engine.
        print("  workers     : %d" % len(checker.engines), file=out)
        if budget is not None:
            print("  budget      : %s" % budget.as_dict(), file=out)
    elif engine in _SAT_ENGINES:
        # No reachability fixpoint ran, so state counts are not available.
        print("  state bits  : %d" % structure.num_bits, file=out)
    else:
        print("  states      : %d" % structure.num_states, file=out)
        print("  transitions : %d" % structure.num_transitions, file=out)
    print("  build       : %.4fs" % built.seconds, file=out)
    print("", file=out)
    print("  %-34s %-8s %s" % ("check", "verdict", "seconds"), file=out)
    # One profile phase per attempted check, decided or not: name, outcome
    # (a key of _OUTCOME_WORDS), seconds and detail.
    checks: List[Dict] = []
    # For the in-process engines a budget is enforced at their cooperative
    # checkpoints; the portfolio hands it to the workers instead.
    budget_scope = contextlib.nullcontext()
    if budget is not None and engine != "portfolio":
        from repro.runtime import limits as _limits

        if budget.memory_bytes is not None:
            _limits.apply_memory_limit(budget.memory_bytes)
        budget_scope = _limits.active(budget)

    def check(formula):
        """Decide ``formula`` into ``(outcome, detail)``, undecided outcomes included.

        Named ``check`` so that ``timed_call`` still records a ``timed.check`` span.
        """
        try:
            verdict = checker.check(formula)
        except FragmentError:
            return "skipped", "outside the %s fragment" % engine
        except InconclusiveError:
            return "inconclusive", "raise --bound"
        except BudgetExceededError as error:
            return "exhausted", error.resource
        except EngineCrashError as error:
            return "crashed", str(error)
        detail = checker.last_detail if engine in _SAT_ENGINES + ("portfolio",) else ""
        return ("holds" if verdict else "violated"), detail

    with budget_scope:
        for name, formula in family.items():
            attempt = timed_call(check, formula)
            outcome, detail = attempt.value
            seconds = attempt.seconds
            checks.append(
                dict(name="check " + name, outcome=outcome, seconds=seconds, detail=detail)
            )
            word = _OUTCOME_WORDS[outcome]
            if detail:
                word = "%s (%s)" % (word, detail)
            print("  %-34s %-8s %.4f" % (name, word, seconds), file=out)
    print("", file=out)
    # Only decided verdicts affect the exit code.
    all_hold = all(record["outcome"] != "violated" for record in checks)
    checked_what = (
        "all properties and invariants"
        if all(record["outcome"] in ("holds", "violated") for record in checks)
        else "checked properties and invariants"
    )
    if all_hold:
        print("  %s hold on %s" % (checked_what, label), file=out)
    else:
        print("  FAILURE: some property/invariant is violated on %s" % label, file=out)
    if profile:
        import json

        from repro.obs.metrics import REGISTRY

        phases = [{"name": "build", "seconds": built.seconds}] + checks
        payload = {
            "schema": "repro.profile/v2",
            "mode": "check",
            "engine": engine,
            "system": system,
            "size": size,
            "fairness": fairness,
            "phases": phases,
            "total_seconds": sum(phase["seconds"] for phase in phases),
            "metrics": REGISTRY.snapshot(),
        }
        if engine == "portfolio":
            payload["portfolio"] = dict(checker.last_outcomes)
        if engine == "bdd":
            payload["bdd"] = structure.manager.stats().as_dict()
        if engine in _SAT_ENGINES:
            payload["bdd"] = structure.manager.stats().as_dict()
            payload["sat"] = checker.stats()
            if engine == "bmc":
                payload["bound"] = checker.bound
            else:
                payload["max_frames"] = checker.max_frames
                if checker.certificate is not None:
                    payload["certificate_clauses"] = (
                        checker.certificate.num_clauses
                    )
        print(json.dumps(payload, indent=2, sort_keys=True), file=sys.stderr)
    return all_hold


#: Per-experiment extractor of the headline "did the paper's claim reproduce"
#: boolean from the experiment's result dictionary.
_EXPERIMENT_HEADLINES = {
    "E1_fig31": lambda r: r["corresponds"] and r["all_agree"],
    "E2_fig41": lambda r: r["counting_matches_size"],
    "E3_nexttime": lambda r: r["holds_only_when_size_divides_3"],
    "E4_fig51": lambda r: r["is_total"] and r["partition_invariant"],
    "E5_invariants": lambda r: r["all_hold"],
    "E6_properties": lambda r: r["all_hold"],
    # The paper's M_2 claim is refuted (documented deviation); the corrected
    # base-3 claim and the transfer workflow must reproduce.
    "E7_correspondence": lambda r: (
        r["corrected_claim_base3_corresponds"] and r["transfers_match_direct"]
    ),
    "E8_explosion": lambda r: (
        r["states_grow_monotonically"]
        and all(row["all_hold"] for row in r["symbolic_sweep"])
    ),
    "E9_conjecture": lambda r: r["conjecture_holds_on_family"],
    "E10_scaling": lambda r: all(row["corresponds"] for row in r["rows"]),
    "E11_fairness": lambda r: (
        r["unfair_fails_everywhere"]
        and r["fair_holds_everywhere"]
        and r["engines_agree"]
        and r["counterexample_valid"]
    ),
    "E12_bmc": lambda r: (
        r["bmc_found_everywhere"]
        and r["bdd_agrees_everywhere"]
        and r["counterexample_valid"]
        and r["bmc_depth_matches_bitset_oracle"]
    ),
    "E13_ic3": lambda r: (
        r["ic3_proved_everywhere"]
        and r["bdd_agrees_everywhere"]
        and r["kinduction_inconclusive_on_ring"]
        and r["ic3_beats_bdd_on_counter"]
        and r["oracle_agrees"]
        and r["counterexample_valid"]
    ),
}


def _run_experiments(engine: str, quick: bool, out, profile: bool = False) -> bool:
    from repro.analysis import experiments

    print("running E1-E13 (engine=%s, quick=%s)" % (engine, quick), file=out)
    ran = timed_call(experiments.run_all, quick=quick, engine=engine)
    print("  %-20s %s" % ("experiment", "reproduced"), file=out)
    ok = True
    headlines = {}
    for name, result in ran.value.items():
        headline = _EXPERIMENT_HEADLINES[name](result)
        headlines[name] = headline
        ok = ok and headline
        print("  %-20s %s" % (name, headline), file=out)
    print("  total: %.2fs" % ran.seconds, file=out)
    if profile:
        import json

        from repro.obs.metrics import REGISTRY

        payload = {
            "schema": "repro.profile/v2",
            "mode": "experiments",
            "engine": engine,
            "quick": quick,
            "experiments": headlines,
            "total_seconds": ran.seconds,
            "metrics": REGISTRY.snapshot(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True), file=sys.stderr)
    return ok


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro`` / the ``repro-mc`` console script."""
    args = build_parser().parse_args(argv)
    out = sys.stdout
    if args.size < 1:
        print("error: --size (--ring-size) must be at least 1", file=sys.stderr)
        return 2
    if args.bound is not None and args.engine not in _SAT_ENGINES + ("portfolio",):
        print(
            "error: --bound only applies to the SAT engines or the portfolio "
            "(where it caps its SAT members)",
            file=sys.stderr,
        )
        return 2
    if args.bound is not None and args.bound < 0:
        print("error: --bound must be non-negative", file=sys.stderr)
        return 2
    if args.engine == "ic3" and args.bound is not None and args.bound < 1:
        print("error: the ic3 frame ceiling must be positive", file=sys.stderr)
        return 2
    if args.engine in _SAT_ENGINES and args.fairness:
        print(
            "error: the SAT engines (bmc, ic3) do not implement fairness-"
            "constrained semantics; use bitset, naive, or bdd",
            file=sys.stderr,
        )
        return 2
    if args.engine == "portfolio" and args.fairness:
        print(
            "error: the portfolio races the SAT engines, which reject "
            "fairness; use bitset, naive, or bdd",
            file=sys.stderr,
        )
        return 2
    if args.workers is not None and args.engine != "portfolio":
        print("error: --workers only applies to --engine portfolio", file=sys.stderr)
        return 2
    if args.workers is not None and args.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return 2
    if args.timeout is not None and args.timeout <= 0:
        print("error: --timeout must be positive", file=sys.stderr)
        return 2
    if args.memory_limit is not None and args.memory_limit < 1:
        print("error: --memory-limit must be at least 1 MiB", file=sys.stderr)
        return 2
    if args.system == "counter" and args.fairness:
        print(
            "error: the counter family has no fairness story (it is "
            "deterministic); use --system ring or mutex",
            file=sys.stderr,
        )
        return 2
    if args.experiments:
        if args.engine in _SAT_ENGINES or args.engine == "portfolio":
            print(
                "error: the experiment suite sweeps the full-CTL engines; the "
                "SAT stories are replayed as E12/E13 under any of them",
                file=sys.stderr,
            )
            return 2
        if (
            args.buggy
            or args.workers is not None
            or args.timeout is not None
            or args.memory_limit is not None
        ):
            print(
                "error: --buggy/--timeout/--memory-limit/--workers apply to "
                "single checks, not the experiment suite",
                file=sys.stderr,
            )
            return 2
        if args.system != "ring":
            print(
                "error: --system applies to single checks; the experiment "
                "suite already sweeps the mutex and counter families in E13",
                file=sys.stderr,
            )
            return 2
        if args.fairness:
            print(
                "error: --fairness applies to single checks; the experiment "
                "suite already replays the fairness story as E11",
                file=sys.stderr,
            )
            return 2

    from repro.obs import progress as obs_progress
    from repro.obs import trace as obs_trace
    from repro.obs.metrics import REGISTRY
    from repro.obs.sinks import ChromeTraceSink, write_metrics_jsonl

    # One run, one registry: repeated in-process main() calls (tests) must
    # not leak counts into each other's --profile/--metrics exports.
    REGISTRY.reset()
    sinks = []
    if args.trace is not None:
        sinks.append(ChromeTraceSink(args.trace))
    if sinks:
        obs_trace.enable(sinks, keep_records=False)
    if args.progress:
        # With --profile, stderr must stay exactly one JSON document, so
        # heartbeats move to stdout alongside the results table.
        obs_progress.enable_progress(stream=out if args.profile else None)
    ok = False
    interrupted = False
    try:
        if args.experiments:
            ok = _run_experiments(args.engine, args.quick, out, profile=args.profile)
        else:
            ok = _run_check(
                args.system,
                args.engine,
                args.size,
                args.fairness,
                out,
                profile=args.profile,
                bound=args.bound,
                buggy=args.buggy,
                timeout=args.timeout,
                memory_limit=args.memory_limit,
                workers=args.workers,
            )
    except KeyboardInterrupt:
        # Ctrl-C must never strand worker processes or lose the artifacts
        # collected so far: tear the supervisors down, fall through to the
        # flushes below, and exit with the conventional 130.
        interrupted = True
        from repro.runtime.supervisor import shutdown_all

        reaped = shutdown_all()
        print("", file=out)
        print(
            "interrupted: stopped after partial results"
            + (" (%d worker pool(s) torn down)" % reaped if reaped else ""),
            file=sys.stderr,
        )
    finally:
        if sinks:
            tracer = obs_trace.disable()
            if tracer is not None:
                tracer.close()
        if args.progress:
            obs_progress.disable_progress()
        if args.metrics is not None:
            write_metrics_jsonl(
                REGISTRY,
                args.metrics,
                extra={
                    "engine": args.engine,
                    "system": args.system,
                    "size": args.size,
                },
            )
    if interrupted:
        return 130
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
