"""Unit and property tests for the parallel portfolio engine.

The chaos property test at the bottom is the contract the whole runtime
stack exists for: under seeded fault injection the portfolio verdict
either **equals the bitset oracle's** or fails with a **typed
ReproError** — never a silently wrong answer, never a deadlock (a hard
``SIGALRM`` deadline fails the test if a race wedges), never a leaked
worker process.
"""

import contextlib
import multiprocessing
import signal

import pytest

from repro.errors import (
    BudgetExceededError,
    EngineCrashError,
    EngineDisagreementError,
    FragmentError,
    InconclusiveError,
    ModelCheckingError,
    ReproError,
)
from repro.mc.registry import make_ctl_checker
from repro.runtime.chaos import ChaosConfig
from repro.runtime.portfolio import (
    DEFAULT_RACE_ENGINES,
    PortfolioModelChecker,
    builder_source,
    structure_source,
)
from repro.runtime.supervisor import TaskOutcome
from repro.systems.mutex import build_mutex, mutex_safety
from repro.systems.token_ring import build_token_ring, ring_mutual_exclusion

#: Forces chaos off inside workers even when REPRO_CHAOS is exported
#: (the CI chaos lane); the chaos tests arm their own seeded configs.
_NO_CHAOS = ChaosConfig()


class _RaceDeadline(Exception):
    pass


@contextlib.contextmanager
def _hard_timeout(seconds):
    """Fail the test (don't hang the suite) if a race never returns."""

    def _expired(signum, frame):
        raise _RaceDeadline("portfolio race exceeded %ds" % seconds)

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestConstruction:
    def test_fairness_is_rejected_as_a_fragment_error(self):
        with pytest.raises(FragmentError):
            PortfolioModelChecker(structure=object(), fairness=object())

    def test_exactly_one_of_structure_or_sources(self):
        with pytest.raises(ModelCheckingError):
            PortfolioModelChecker()
        with pytest.raises(ModelCheckingError):
            PortfolioModelChecker(
                structure=object(), sources={"bitset": structure_source(object())}
            )

    def test_unknown_engines_are_rejected(self):
        with pytest.raises(ModelCheckingError, match="naive"):
            PortfolioModelChecker(structure=object(), engines=("bitset", "naive"))

    def test_workers_must_be_positive(self):
        with pytest.raises(ModelCheckingError):
            PortfolioModelChecker(structure=object(), workers=0)

    def test_workers_cap_trims_the_race_in_launch_order(self):
        checker = PortfolioModelChecker(structure=object(), workers=2)
        assert checker.engines == DEFAULT_RACE_ENGINES[:2]

    def test_engine_selection(self):
        checker = PortfolioModelChecker(structure=object(), engines=("bdd", "ic3"))
        assert checker.engines == ("bdd", "ic3")
        by_source = PortfolioModelChecker(
            sources={"bmc": structure_source(object())}
        )
        assert by_source.engines == ("bmc",)

    def test_only_the_initial_state_is_decided(self):
        checker = PortfolioModelChecker(structure=object(), chaos=_NO_CHAOS)
        with pytest.raises(ModelCheckingError):
            checker.check(object(), state="s3")


def _outcome(label, status, verdict=None, late=False, fields=None, message=""):
    outcome = TaskOutcome(label, label)
    outcome.status = status
    if verdict is not None:
        outcome.result = {"engine": label, "verdict": verdict, "detail": ""}
    outcome.late = late
    outcome.fields = dict(fields or {})
    outcome.message = message
    return outcome


class TestMergeSemantics:
    """Merging is pure bookkeeping over TaskOutcomes — test it process-free."""

    def _checker(self):
        return PortfolioModelChecker(structure=object(), chaos=_NO_CHAOS)

    def test_the_non_late_finisher_wins(self):
        checker = self._checker()
        outcomes = {
            "bitset": _outcome("bitset", "ok", verdict=True, late=True),
            "bmc": _outcome("bmc", "ok", verdict=True),
            "bdd": _outcome("bdd", "cancelled"),
        }
        outcomes["bmc"].result["detail"] = "k-induction@1"
        assert checker._merge(None, outcomes) is True
        assert checker.last_detail == "won by bmc (k-induction@1)"
        assert checker.last_outcomes["bdd"] == "cancelled"

    def test_a_disagreeing_late_loser_is_never_masked(self):
        checker = self._checker()
        outcomes = {
            "bitset": _outcome("bitset", "ok", verdict=True),
            "bmc": _outcome("bmc", "ok", verdict=False, late=True),
        }
        with pytest.raises(EngineDisagreementError) as excinfo:
            checker._merge("AG p", outcomes)
        assert excinfo.value.verdicts == {"bitset": True, "bmc": False}
        assert excinfo.value.formula == "AG p"

    def test_all_fragment_degrades_to_fragment_error(self):
        outcomes = {
            name: _outcome(name, "fragment") for name in ("bmc", "ic3")
        }
        with pytest.raises(FragmentError):
            self._checker()._merge(None, outcomes)

    def test_all_dead_degrades_to_engine_crash_error(self):
        checker = self._checker()
        outcomes = {
            "bitset": _outcome("bitset", "crashed"),
            "bdd": _outcome("bdd", "hung"),
            "bmc": _outcome("bmc", "garbled"),
        }
        with pytest.raises(EngineCrashError) as excinfo:
            checker._merge(None, outcomes)
        assert set(excinfo.value.outcomes) == {"bitset", "bdd", "bmc"}
        assert "no conclusive verdict" in checker.last_detail

    def test_dead_or_budget_degrades_to_budget_error(self):
        outcomes = {
            "bitset": _outcome("bitset", "crashed"),
            "bmc": _outcome(
                "bmc", "budget", fields={"resource": "sat_conflicts", "limit": 100}
            ),
        }
        with pytest.raises(BudgetExceededError) as excinfo:
            self._checker()._merge(None, outcomes)
        assert excinfo.value.resource == "sat_conflicts"
        assert excinfo.value.site == "portfolio.race"

    def test_inconclusive_report_includes_the_budget_consumed(self):
        outcomes = {
            "bmc": _outcome(
                "bmc",
                "inconclusive",
                fields={"depth_reached": 5, "conflicts_spent": 321},
            ),
            "bdd": _outcome("bdd", "cancelled"),
        }
        with pytest.raises(InconclusiveError) as excinfo:
            self._checker()._merge(None, outcomes)
        assert "budget consumed" in str(excinfo.value)
        assert "depth_reached=5" in str(excinfo.value)


def _mutex_sources(size, buggy=False):
    """The CLI's per-engine natural encodings, for a worker-side build."""
    return {
        "bitset": builder_source("repro.systems.mutex", "build_mutex", size, buggy=buggy),
        "bdd": builder_source("repro.systems.mutex", "symbolic_mutex", size, buggy=buggy),
        "bmc": builder_source(
            "repro.systems.mutex", "symbolic_mutex", size, buggy=buggy, domain="free"
        ),
        "ic3": builder_source(
            "repro.systems.mutex", "symbolic_mutex", size, buggy=buggy, domain="free"
        ),
    }


class TestRaces:
    def test_structure_race_matches_the_bitset_oracle(self):
        structure = build_mutex(3)
        formula = mutex_safety(3)
        oracle = make_ctl_checker(structure, engine="bitset").check(formula)
        checker = PortfolioModelChecker(
            structure=structure, engines=("bitset", "bdd"), chaos=_NO_CHAOS
        )
        with _hard_timeout(60):
            verdict = checker.check(formula)
        assert verdict is True
        assert bool(oracle) is True
        assert checker.last_detail.startswith("won by ")
        assert set(checker.last_outcomes) == {"bitset", "bdd"}
        assert not multiprocessing.active_children()

    def test_natural_encoding_race_refutes_the_buggy_mutex(self):
        checker = PortfolioModelChecker(
            sources=_mutex_sources(3, buggy=True), bound=8, chaos=_NO_CHAOS
        )
        assert checker.engines == DEFAULT_RACE_ENGINES
        with _hard_timeout(120):
            verdict = checker.check(mutex_safety(3))
        assert verdict is False
        assert not multiprocessing.active_children()

    def test_check_batch_races_each_formula(self):
        structure = build_mutex(2)
        formulas = {"safety": mutex_safety(2)}
        checker = PortfolioModelChecker(
            structure=structure, engines=("bitset",), chaos=_NO_CHAOS
        )
        with _hard_timeout(60):
            results = checker.check_batch(formulas)
        assert results == {"safety": True}


#: Seeded fault schedules for the never-wrong/never-deadlock property.
#: kill/hang exercise crash detection and restart; garble exercises the
#: digest check.  (oom is exercised via --memory-limit in the CLI lane:
#: an in-process allocation hog would destabilise the test runner.)
_CHAOS_RATES = {"kill": 0.4, "hang": 0.3, "garble": 0.3}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "builder, size, buggy, formula_factory",
    [
        (build_mutex, 3, False, mutex_safety),
        (build_token_ring, 4, True, ring_mutual_exclusion),
    ],
    ids=["mutex3-ok", "ring4-buggy"],
)
def test_chaos_is_never_wrong_and_never_deadlocks(seed, builder, size, buggy, formula_factory):
    """Satellite property: under seeded chaos the portfolio verdict equals
    the bitset oracle's or fails with a typed ReproError — wrong-and-confident
    is the one outcome that must not exist."""
    structure = builder(size, buggy=buggy)
    formula = formula_factory(size)
    oracle = make_ctl_checker(structure, engine="bitset").check(formula)
    checker = PortfolioModelChecker(
        structure=structure,
        engines=("bitset", "bdd"),
        chaos=ChaosConfig(_CHAOS_RATES, seed=seed),
        hang_timeout=0.5,
        max_restarts=2,
        grace=0.1,
    )
    with _hard_timeout(90):
        try:
            verdict = checker.check(formula)
        except ReproError:
            # An honest, typed failure is an acceptable chaos outcome;
            # the provenance must still name every raced engine's fate.
            assert set(checker.last_outcomes) == {"bitset", "bdd"}
        else:
            assert verdict == oracle
    assert not multiprocessing.active_children(), "chaos leaked a worker process"
