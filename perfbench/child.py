"""One benchmark round in a fresh interpreter; ``run.py`` starts it.

Modes:

``--warm``
    Import every library module the workloads use and exit, which fills
    the benchmark's bytecode cache before anything is timed.
``--workload NAME --order-seed N [--trace-out FILE]``
    Import the workload's modules, build every structure it checks, then
    run its checks in the order the seed gives, each under a
    :class:`repro.runtime.limits.ResourceBudget` deadline, and print one
    JSON line: the monotonic times of the first check and the last verdict,
    one record per check and the samples of a :class:`speed.Sampler` that
    ran throughout.  With ``--trace-out`` the layer entry points are
    wrapped (``spans.py``) instead of sampled, the spans are written to the
    file, and the line carries the round's raw per-layer counters.
``--cli --trace-out FILE -- ARGS...``
    Run ``repro-mc ARGS...`` in this process with the entry points wrapped,
    for the traced round of ``cli-short``.
"""

from __future__ import annotations

import time

START_NS = time.perf_counter_ns()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from typing import Callable, Dict, List, Optional, Sequence, Tuple  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

#: A check running longer than this counts as failed.  Engines with
#: cooperative checkpoints stop at it; the correspondence procedure has
#: none, so its overrun is only detected afterwards.
CHECK_LIMIT_S = 30.0

#: Every library module some workload or the CLI path imports.
WARM_MODULES = (
    "repro.cli",
    "repro.correspondence",
    "repro.mc.bmc",
    "repro.mc.ic3",
    "repro.mc.indexed",
    "repro.mc.symbolic",
    "repro.runtime.portfolio",
    "repro.systems.counter",
    "repro.systems.mutex",
    "repro.systems.token_ring",
)


def run_checks(
    checks: Dict[str, Callable[[], bool]],
    expected: Dict[str, Tuple[bool, str]],
    order: Sequence[str],
    limit_s: float = CHECK_LIMIT_S,
    tracer: Optional[spans.Tracer] = None,
) -> List[dict]:
    """Run ``checks`` in ``order`` and grade each verdict against ``expected``.

    A check fails when its verdict is wrong, when it raises (crash,
    undecided, over budget) or when it runs past ``limit_s``.
    """
    from repro.errors import BudgetExceededError
    from repro.runtime.limits import ResourceBudget, active

    if set(checks) != set(expected):
        raise ValueError(
            "checks and expected table disagree: %s"
            % sorted(set(checks).symmetric_difference(expected))
        )
    records = []
    for name in order:
        want = expected[name][0]
        record = tracer.begin("bench.check") if tracer is not None else None
        verdict = None
        status = "ok"
        started = time.monotonic()
        try:
            with active(ResourceBudget(deadline_s=limit_s)):
                verdict = bool(checks[name]())
        except BudgetExceededError as error:
            status = "over budget: %s" % error
        except Exception as error:  # one broken check must not end the round
            traceback.print_exc(file=sys.stderr)
            status = "crashed: %s: %s" % (type(error).__name__, error)
        seconds = time.monotonic() - started
        if record is not None:
            tracer.end(record)
        if status == "ok" and seconds > limit_s:
            status = "over the %.0f s limit" % limit_s
        elif status == "ok" and verdict != want:
            status = "wrong verdict"
        records.append(
            {
                "name": name,
                "expected": want,
                "verdict": verdict,
                "status": status,
                "seconds": seconds,
            }
        )
    return records


def _write_spans(path: str, tracer: spans.Tracer, label: str) -> None:
    with open(path, "w") as handle:
        json.dump(
            {
                "label": label,
                "fields": ["id", "parent", "name", "start_ns", "end_ns"],
                "spans": tracer.spans,
            },
            handle,
            separators=(",", ":"),
        )


def _start(tracer: Optional[spans.Tracer], modules: Sequence[str]) -> Optional[list]:
    """Import ``modules``; when tracing, open the job span and wrap the entry points.

    The job span is back-dated to process start and the imports get their
    own span, so the ``import`` layer is the library's import time.
    """
    job = tracer.begin("bench.job", start_ns=START_NS) if tracer else None
    imports = tracer.begin("import.repro") if tracer else None
    for module in modules:
        importlib.import_module(module)
    if tracer is not None:
        tracer.end(imports)
        installing = tracer.begin("bench.install")
        spans.install(tracer)
        tracer.end(installing)
    return job


def run_round(workload: str, order_seed: int, reverse: bool, trace_out: Optional[str]) -> dict:
    tracer = spans.Tracer() if trace_out else None
    sampler = speed.Sampler().start() if tracer is None else None
    job = _start(tracer, workloads.MODULES[workload])
    checks = workloads.BUILDERS[workload]()
    expected = workloads.EXPECTED[workload]
    order = workloads.round_order(checks, order_seed, reverse)
    first = time.monotonic()
    records = run_checks(checks, expected, order, tracer=tracer)
    last = time.monotonic()
    result = {"t_first": first, "t_last": last, "records": records}
    if sampler is not None:
        result["samples"] = sampler.stop()
    if tracer is not None:
        tracer.end(job)
        result["raw"] = spans.raw_counters(tracer, spans.self_times(tracer.spans))
        _write_spans(trace_out, tracer, workload)
    return result


def _race_accounting(tracer: spans.Tracer) -> Dict[str, float]:
    """Portfolio overhead: each race minus the winner's solo time on the same check.

    The winner reruns here in-process, after the traced job, through the
    same entry point the race's workers call.
    """
    from repro.runtime.portfolio import run_engine_check

    overhead = crashes = restarts = 0.0
    for checker, formula, race_s in tracer.races:
        for fate in checker.last_outcomes.values():
            crashes += fate.startswith(("crashed", "hung", "garbled", "oom"))
            if " after " in fate and fate.endswith(" attempts"):
                restarts += int(fate.rsplit(" ", 2)[1]) - 1
        if not checker.last_detail.startswith("won by "):
            continue
        winner = checker.last_detail.split()[2]
        sources, bound = tracer.portfolio_sources[id(checker)]
        started = time.perf_counter()
        run_engine_check(winner, sources[winner], formula, bound=bound)
        overhead += race_s - (time.perf_counter() - started)
    return {
        "runtime_overhead_s": overhead,
        "runtime_crashes": crashes,
        "runtime_restarts": restarts,
    }


def run_cli(argv: List[str], trace_out: str) -> dict:
    tracer = spans.Tracer()
    job = _start(tracer, ("repro.cli",))
    import repro.cli

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        exit_code = repro.cli.main(argv)
    tracer.end(job)
    ended = time.monotonic()
    raw = spans.raw_counters(tracer, spans.self_times(tracer.spans))
    raw.update(_race_accounting(tracer))
    _write_spans(trace_out, tracer, "repro-mc " + " ".join(argv))
    return {"exit": exit_code, "stdout": captured.getvalue(), "raw": raw, "t_end": ended}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--warm", action="store_true")
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS))
    parser.add_argument("--order-seed", type=int, default=0)
    parser.add_argument("--reverse", action="store_true")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--cli", action="store_true")
    parser.add_argument("cli_args", nargs="*")
    args = parser.parse_args(argv)
    if args.warm:
        for module in WARM_MODULES:
            importlib.import_module(module)
        return 0
    if args.cli:
        if not args.trace_out:
            parser.error("--cli needs --trace-out")
        result = run_cli(args.cli_args, args.trace_out)
    elif args.workload:
        result = run_round(args.workload, args.order_seed, args.reverse, args.trace_out)
    else:
        parser.error("one of --warm, --workload or --cli is required")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
