"""The ``portfolio`` meta-engine: race the solvers, keep the first verdict.

No single engine dominates this codebase's workloads: the explicit bitset
fixpoints win on small reachable graphs, the symbolic engine on blown-up
ones, bounded model checking on shallow counterexamples, IC3 on deep
invariants.  :class:`PortfolioModelChecker` registers as the sixth engine
(``engine="portfolio"`` in :func:`repro.mc.registry.make_ctl_checker` and the
CLI) and, per property, races a configurable subset of the other engines in
supervised worker processes (:mod:`repro.runtime.supervisor`):

* the **first conclusive verdict wins**; the losers are cancelled
  cooperatively (their checkpoints observe the token) with a grace window,
* a loser that already finished and *disagrees* with the winner raises
  :class:`~repro.errors.EngineDisagreementError` — a cross-engine soundness
  bug must never be masked by the race,
* crashed / hung / out-of-memory / garbled workers are restarted with
  backoff and the race **degrades gracefully** onto the survivors,
* if *every* worker fails, the failure is structured and diagnostic —
  :class:`~repro.errors.FragmentError` when the property is outside every
  raced engine's fragment, :class:`~repro.errors.BudgetExceededError` when
  the budget felled them, :class:`~repro.errors.EngineCrashError` with a
  per-engine post-mortem when they all died, and
  :class:`~repro.errors.InconclusiveError` otherwise — never a hang, never
  a silent wrong answer.

Per-engine outcomes land in the verdict provenance (:attr:`last_outcomes`,
:attr:`last_detail`) and the ``portfolio.races`` / ``portfolio.wins``
counters; the whole race runs under a ``portfolio.race`` span, beneath
which every worker's own spans are re-parented and every worker's metrics
merged under a ``worker=<engine>`` label (:mod:`repro.obs.collect`), so a
``--trace`` of a portfolio run opens in Perfetto as one multi-process
timeline and ``repro-obs report`` can autopsy the losers.  Failure
semantics and chaos-testing knobs are documented in ``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.errors import (
    BudgetExceededError,
    EngineCrashError,
    EngineDisagreementError,
    FragmentError,
    InconclusiveError,
    ModelCheckingError,
)
from repro.obs.metrics import counter as _counter
from repro.obs.trace import span as _obs_span
from repro.runtime.chaos import ChaosConfig
from repro.runtime.limits import ResourceBudget
from repro.runtime.supervisor import Supervisor, TaskOutcome, WorkerTask

__all__ = [
    "DEFAULT_RACE_ENGINES",
    "PortfolioModelChecker",
    "builder_source",
    "structure_source",
]

#: The engines a portfolio races by default: every registered engine except
#: the ``naive`` differential-testing oracle (redundant with ``bitset`` and
#: strictly slower) and ``portfolio`` itself.
DEFAULT_RACE_ENGINES = ("bitset", "bdd", "bmc", "ic3")

#: Race engines that decide verdicts via the SAT stack (get ``bound`` and a
#: ``last_detail``); kept in sync with ``repro.cli._SAT_ENGINES``.
_SAT_RACE_ENGINES = ("bmc", "ic3")


def builder_source(module: str, function: str, *args: Any, **kwargs: Any) -> Tuple:
    """A worker-side structure recipe: import ``module`` and call ``function``.

    Building inside the worker keeps the parent light and lets every engine
    race on its natural encoding (explicit graph for ``bitset``, direct
    symbolic encoding for ``bdd``, the free domain for the SAT engines) —
    the CLI's portfolio path uses one of these per engine.
    """
    return ("builder", module, function, tuple(args), dict(kwargs))


def structure_source(structure: Any) -> Tuple:
    """A worker-side source that pickles an already-built structure."""
    return ("structure", structure)


def _materialise(source: Tuple) -> Any:
    kind = source[0]
    if kind == "structure":
        return source[1]
    if kind == "builder":
        _, module_name, function_name, args, kwargs = source
        module = importlib.import_module(module_name)
        return getattr(module, function_name)(*args, **kwargs)
    raise ModelCheckingError("unknown portfolio source kind %r" % (kind,))


def run_engine_check(
    engine: str, source: Tuple, formula: Any, bound: Optional[int] = None
) -> Dict[str, Any]:
    """Worker entry point: build the structure, run one engine, one check.

    Module-level (picklable by reference) and returning a plain dict so the
    supervisor's payload digesting stays engine-agnostic.  Fragment and
    inconclusive outcomes propagate as their structured exceptions — the
    supervisor reports them as typed failures, not crashes.
    """
    structure = _materialise(source)
    from repro.kripke.symbolic import SymbolicKripkeStructure

    if engine in _SAT_RACE_ENGINES:
        from repro.mc.registry import make_ctl_checker

        checker = make_ctl_checker(structure, engine=engine, bound=bound)
        try:
            verdict = checker.check(formula)
        finally:
            # Publish on every exit path: a cancelled loser's partial
            # solver statistics (sat.* gauges) still reach the registry
            # snapshot the worker's telemetry exporter ships on teardown —
            # the data the supervisor merges under worker=<engine>.
            checker.publish_metrics()
        detail = checker.last_detail
    elif engine == "bdd" and isinstance(structure, SymbolicKripkeStructure):
        # A direct symbolic encoding has no explicit state graph to hand
        # to the indexed wrapper; check it with the symbolic engine as-is.
        from repro.mc.symbolic import SymbolicCTLModelChecker

        checker = SymbolicCTLModelChecker(structure)
        verdict = checker.check(formula)
        detail = ""
    else:
        # Same construction as the CLI's explicit path: concrete-index
        # property families are already instantiated, which the Section 4
        # closedness restriction would reject.
        from repro.mc.indexed import ICTLStarModelChecker

        checker = ICTLStarModelChecker(
            structure, engine=engine, enforce_restrictions=False
        )
        verdict = checker.check(formula)
        detail = ""
    return {"engine": engine, "verdict": bool(verdict), "detail": detail}


class PortfolioModelChecker:
    """Race engines per property in supervised workers; first verdict wins.

    ``structure``
        An explicit or symbolic structure every raced engine can accept
        (the :func:`~repro.mc.registry.make_ctl_checker` path).  Mutually
        exclusive with ``sources``.
    ``sources``
        Mapping from engine name to a worker-side structure recipe
        (:func:`builder_source` / :func:`structure_source`) so each engine
        races on its natural encoding; its keys select the raced engines.
    ``engines``
        The engines to race when ``structure`` is given (default
        :data:`DEFAULT_RACE_ENGINES`).
    ``workers``
        Cap on raced engines: only the first ``workers`` entries launch
        (the CLI's ``--workers``).
    ``budget`` / ``chaos``
        Per-worker :class:`~repro.runtime.limits.ResourceBudget` and
        :class:`~repro.runtime.chaos.ChaosConfig` override (``None``:
        inherit ``REPRO_CHAOS`` from the environment).
    ``bound``
        Depth/frame ceiling forwarded to the SAT engines.

    Like the SAT engines, the portfolio answers verdicts only
    (``supports_satisfaction_sets`` is false) and rejects
    fairness-constrained semantics.
    """

    supports_satisfaction_sets = False

    def __init__(
        self,
        structure: Any = None,
        *,
        sources: Optional[Dict[str, Tuple]] = None,
        engines: Optional[Sequence[str]] = None,
        workers: Optional[int] = None,
        bound: Optional[int] = None,
        budget: Optional[ResourceBudget] = None,
        chaos: Optional[ChaosConfig] = None,
        fairness: Any = None,
        validate_structure: bool = True,
        hang_timeout: float = 10.0,
        max_restarts: int = 2,
        grace: float = 0.25,
    ) -> None:
        if fairness is not None:
            raise FragmentError(
                "the portfolio engine races the SAT engines, which do not "
                "implement fairness-constrained semantics; use bitset, "
                "naive, or bdd"
            )
        if (structure is None) == (sources is None):
            raise ModelCheckingError(
                "PortfolioModelChecker needs exactly one of structure= or sources="
            )
        if sources is not None:
            race: Dict[str, Tuple] = dict(sources)
        else:
            names = tuple(engines) if engines is not None else DEFAULT_RACE_ENGINES
            race = {name: structure_source(structure) for name in names}
        unknown = [name for name in race if name not in DEFAULT_RACE_ENGINES]
        if unknown:
            raise ModelCheckingError(
                "portfolio cannot race %s; raceable engines: %s"
                % (", ".join(sorted(unknown)), ", ".join(DEFAULT_RACE_ENGINES))
            )
        if workers is not None:
            if workers < 1:
                raise ModelCheckingError("portfolio needs at least one worker")
            race = dict(list(race.items())[:workers])
        self._race = race
        self.bound = bound
        self.budget = budget
        self.chaos = chaos
        self.hang_timeout = hang_timeout
        self.max_restarts = max_restarts
        self.grace = grace
        self._ignored_validate = validate_structure  # workers re-validate
        #: Provenance of the most recent check: engine name -> one-line fate.
        self.last_outcomes: Dict[str, str] = {}
        #: How the most recent verdict was decided ("won by bmc (...)").
        self.last_detail: str = ""

    @property
    def engines(self) -> Tuple[str, ...]:
        """The engines this portfolio races, in launch order."""
        return tuple(self._race)

    # -- the race ----------------------------------------------------------
    def check(self, formula: Any, state: Any = None) -> bool:
        """Decide ``M ⊨ formula`` by racing the engines (initial state only)."""
        if state is not None:
            raise ModelCheckingError(
                "the portfolio engine only decides the initial state"
            )
        tasks = [
            WorkerTask(
                id=name,
                fn=run_engine_check,
                args=(name, source, formula),
                kwargs={"bound": self.bound},
                budget=self.budget,
                chaos=self.chaos,
                label=name,
            )
            for name, source in self._race.items()
        ]
        _counter("portfolio.races").inc()
        supervisor = Supervisor(
            hang_timeout=self.hang_timeout,
            max_restarts=self.max_restarts,
            grace=self.grace,
        )

        def first_verdict(outcomes: Dict[str, TaskOutcome]) -> bool:
            return any(outcome.ok for outcome in outcomes.values())

        with _obs_span("portfolio.race", engines=",".join(self._race)) as sp:
            outcomes = supervisor.run(tasks, stop_when=first_verdict)
            # Telemetry bookkeeping lands on the race span *before* merge —
            # a disagreement/degraded raise must not lose the provenance.
            collector = supervisor.collector
            sp.set(
                outcomes=",".join(
                    "%s=%s" % (o.label, o.status) for o in outcomes.values()
                ),
                worker_spans=collector.spans_ingested,
                worker_series=collector.series_merged,
                telemetry_dropped=collector.dropped,
            )
            verdict = self._merge(formula, outcomes)
            sp.set(winner=self.last_detail)
        return verdict

    def check_batch(self, formulas, state: Any = None) -> Dict:
        """Race each formula of a family in turn (mapping- or list-keyed)."""
        try:
            items = list(formulas.items())
        except AttributeError:
            items = [(formula, formula) for formula in formulas]
        return {key: self.check(formula, state) for key, formula in items}

    # -- merging -----------------------------------------------------------
    def _merge(self, formula: Any, outcomes: Dict[str, TaskOutcome]) -> bool:
        self.last_outcomes = {
            outcome.label: outcome.describe() for outcome in outcomes.values()
        }
        finished = [outcome for outcome in outcomes.values() if outcome.ok]
        if finished:
            verdicts = {
                outcome.label: bool(outcome.result["verdict"]) for outcome in finished
            }
            if len(set(verdicts.values())) > 1:
                raise EngineDisagreementError(
                    "portfolio race produced conflicting verdicts: %s"
                    % ", ".join(
                        "%s=%s" % (name, verdicts[name]) for name in sorted(verdicts)
                    ),
                    formula=formula,
                    verdicts=verdicts,
                )
            # The winner is the verdict that stopped the race (non-late);
            # fall back to any finisher if all arrived in the grace window.
            winner = next(
                (outcome for outcome in finished if not outcome.late), finished[0]
            )
            _counter("portfolio.wins", engine=winner.label).inc()
            detail = winner.result.get("detail") or ""
            self.last_detail = (
                "won by %s (%s)" % (winner.label, detail)
                if detail
                else "won by %s" % winner.label
            )
            return bool(winner.result["verdict"])
        return self._raise_degraded(outcomes)

    def _raise_degraded(self, outcomes: Dict[str, TaskOutcome]) -> bool:
        """No engine finished: raise the most diagnostic structured failure."""
        statuses = {outcome.label: outcome.status for outcome in outcomes.values()}
        post_mortem = {
            outcome.label: outcome.describe() for outcome in outcomes.values()
        }
        summary = "; ".join(
            "%s: %s" % (name, post_mortem[name]) for name in sorted(post_mortem)
        )
        self.last_detail = "no conclusive verdict (%s)" % summary
        dead = {"crashed", "hung", "garbled", "oom", "cancelled"}
        if all(status == "fragment" for status in statuses.values()):
            raise FragmentError(
                "property is outside every raced engine's fragment (%s)" % summary
            )
        if all(status in dead for status in statuses.values()):
            raise EngineCrashError(
                "every portfolio worker died without a verdict (%s)" % summary,
                outcomes=post_mortem,
            )
        if all(status in dead or status == "budget" for status in statuses.values()):
            raise BudgetExceededError(
                "every surviving portfolio worker exhausted its budget (%s)" % summary,
                resource=self._budget_resource(outcomes),
                site="portfolio.race",
            )
        progress = []
        for outcome in outcomes.values():
            if outcome.status == "inconclusive" and outcome.fields:
                spent = ", ".join(
                    "%s=%s" % (key, outcome.fields[key])
                    for key in sorted(outcome.fields)
                )
                progress.append("%s spent %s" % (outcome.label, spent))
        message = "portfolio race was inconclusive (%s)" % summary
        if progress:
            message += " — budget consumed: " + "; ".join(progress)
        raise InconclusiveError(message)

    def _budget_resource(self, outcomes: Dict[str, TaskOutcome]) -> str:
        for outcome in outcomes.values():
            if outcome.status == "budget":
                resource = outcome.fields.get("resource")
                if resource:
                    return str(resource)
        return "deadline"
