"""Unit tests for fairness-constrained CTL checking across all three engines."""

import pytest

from repro.errors import FragmentError, ModelCheckingError, ValidationError
from repro.kripke.paths import is_lasso
from repro.kripke.structure import IndexedProp, KripkeStructure
from repro.logic.ast import TrueLiteral
from repro.logic.builders import (
    AF,
    AG,
    AX,
    EF,
    EG,
    EX,
    atom,
    iatom,
    index_forall,
    lnot,
    lor,
)
from repro.logic.parser import parse
from repro.mc import (
    FairnessConstraint,
    ICTLStarModelChecker,
    counterexample_af,
    crosscheck_ctl_engines,
    make_ctl_checker,
    normalize_fairness,
    resolve_checker,
    witness_eg,
)
from repro.mc.registry import CTL_ENGINES
from repro.systems import token_ring


# ---------------------------------------------------------------------------
# The constraint object
# ---------------------------------------------------------------------------


def test_constraint_requires_at_least_one_condition():
    with pytest.raises(ModelCheckingError):
        FairnessConstraint(conditions=())


def test_constraint_rejects_non_ctl_conditions():
    from repro.logic.builders import G

    with pytest.raises(FragmentError):
        FairnessConstraint(conditions=(G(atom("p")),))  # bare path formula


def test_constraint_rejects_index_quantifiers():
    with pytest.raises(FragmentError):
        FairnessConstraint(conditions=(index_forall("i", iatom("d", "i")),))


def test_normalize_fairness_accepts_formula_and_iterables():
    assert normalize_fairness(None) is None
    single = normalize_fairness(atom("p"))
    assert isinstance(single, FairnessConstraint) and len(single) == 1
    double = normalize_fairness([atom("p"), atom("q")])
    assert len(double) == 2
    assert normalize_fairness(double) is double


def test_constraint_is_hashable_and_name_ignored_by_equality():
    left = FairnessConstraint(conditions=(atom("p"),), name="a")
    right = FairnessConstraint(conditions=(atom("p"),), name="b")
    assert left == right
    assert hash(left) == hash(right)


# ---------------------------------------------------------------------------
# Fair semantics on a hand-built structure
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def two_loops():
    """``s0`` branches to the ``a``-loop (label p) and the ``b``-loop (label q)."""
    return KripkeStructure(
        states=["s0", "a", "b"],
        transitions=[("s0", "a"), ("s0", "b"), ("a", "a"), ("b", "b")],
        labeling={"s0": set(), "a": {"p"}, "b": {"q"}},
        initial_state="s0",
    )


@pytest.fixture(scope="module")
def visit_q():
    return FairnessConstraint(conditions=(atom("q"),), name="visit q infinitely often")


@pytest.mark.parametrize("engine", CTL_ENGINES)
def test_fair_states_excludes_starving_loop(two_loops, engine, visit_q):
    checker = make_ctl_checker(two_loops, engine=engine, fairness=visit_q)
    # Only the b-loop visits q infinitely often; a fair path from s0 exists too.
    assert checker.fair_states() == frozenset({"s0", "b"})


@pytest.mark.parametrize("engine", CTL_ENGINES)
def test_fair_af_differs_from_plain_af(two_loops, engine, visit_q):
    plain = make_ctl_checker(two_loops, engine=engine)
    fair = make_ctl_checker(two_loops, engine=engine, fairness=visit_q)
    formula = AF(atom("q"))
    # Plain CTL: the a-loop avoids q forever.
    assert not plain.check(formula)
    # Fair CTL: every fair path from s0 ends up in the b-loop.
    assert fair.check(formula)


@pytest.mark.parametrize("engine", CTL_ENGINES)
def test_fair_eg_restricts_to_fair_components(two_loops, engine, visit_q):
    fair = make_ctl_checker(two_loops, engine=engine, fairness=visit_q)
    # EG ¬p under fairness: the b-loop (and s0 through it); plain adds nothing
    # here, but EG p becomes *empty* fairly (the p-loop is unfair).
    assert fair.satisfaction_set(EG(lnot(atom("p")))) == frozenset({"s0", "b"})
    assert fair.satisfaction_set(EG(atom("p"))) == frozenset()


@pytest.mark.parametrize("engine", CTL_ENGINES)
def test_fair_ex_and_ax_restrict_to_fair_targets(two_loops, engine, visit_q):
    fair = make_ctl_checker(two_loops, engine=engine, fairness=visit_q)
    # EX p is empty fairly: the only p-successor (a) starts no fair path.
    assert fair.satisfaction_set(EX(atom("p"))) == frozenset()
    # AX q holds at s0 fairly: the only fair successor is b.
    assert "s0" in fair.satisfaction_set(AX(atom("q")))


@pytest.mark.parametrize("engine", CTL_ENGINES)
def test_fairness_condition_sets_decoded(two_loops, engine, visit_q):
    checker = make_ctl_checker(two_loops, engine=engine, fairness=visit_q)
    assert checker.fairness_condition_sets() == (frozenset({"b"}),)
    assert checker.fairness is visit_q


@pytest.mark.parametrize("engine", CTL_ENGINES)
def test_plain_checker_reports_everything_fair(two_loops, engine):
    checker = make_ctl_checker(two_loops, engine=engine)
    assert checker.fairness is None
    assert checker.fair_states() == two_loops.states
    assert checker.fairness_condition_sets() == ()


def test_crosscheck_with_fairness(two_loops, visit_q):
    for formula in (AF(atom("q")), EG(atom("p")), AG(EF(atom("q")))):
        crosscheck_ctl_engines(two_loops, formula, fairness=visit_q)


# ---------------------------------------------------------------------------
# The token ring: AF t_i needs fairness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("size", [2, 3])
def test_eventual_token_false_unfair_true_fair(size):
    ring = token_ring.build_token_ring(size)
    constraint = token_ring.ring_scheduler_fairness(size)
    formula = token_ring.property_eventual_token()
    assert not ICTLStarModelChecker(ring).check(formula)
    assert ICTLStarModelChecker(ring, fairness=constraint).check(formula)


@pytest.mark.parametrize("engine", CTL_ENGINES)
def test_eventual_token_fair_on_every_engine(ring3, engine):
    constraint = token_ring.ring_scheduler_fairness(3)
    checker = ICTLStarModelChecker(ring3, engine=engine, fairness=constraint)
    assert checker.check(token_ring.property_eventual_token())
    assert checker.fairness is constraint


def test_crosscheck_af_token_on_ring(ring3):
    constraint = token_ring.ring_scheduler_fairness(3)
    for process in (1, 2, 3):
        result = crosscheck_ctl_engines(ring3, AF(iatom("t", process)), fairness=constraint)
        # Under scheduler fairness the claim holds in *every* state.
        assert result == ring3.states


def test_section5_properties_still_hold_under_fairness(ring3):
    constraint = token_ring.ring_scheduler_fairness(3)
    checker = ICTLStarModelChecker(ring3, fairness=constraint)
    results = checker.check_batch(token_ring.ring_properties())
    assert all(results.values())


def test_scheduler_fairness_shape():
    constraint = token_ring.ring_scheduler_fairness(4)
    assert len(constraint) == 4
    assert constraint.conditions[0] == lor(iatom("d", 1), iatom("t", 1))
    with pytest.raises(Exception):
        token_ring.ring_scheduler_fairness(0)


def test_fair_ring_properties_family():
    family = token_ring.fair_ring_properties()
    assert set(family) == {"eventual_token"}


def test_symbolic_direct_encoding_fair_check():
    encoded = token_ring.symbolic_token_ring(4)
    from repro.mc.symbolic import SymbolicCTLModelChecker

    constraint = token_ring.ring_scheduler_fairness(4)
    fair = SymbolicCTLModelChecker(encoded, fairness=constraint)
    plain = SymbolicCTLModelChecker(encoded)
    formula = token_ring.property_eventual_token()
    assert fair.check(formula)
    assert not plain.check(formula)


def test_ictlstar_rejects_fair_ctlstar_fallback(ring2):
    constraint = token_ring.ring_scheduler_fairness(2)
    checker = ICTLStarModelChecker(ring2, enforce_restrictions=False, fairness=constraint)
    with pytest.raises(FragmentError):
        checker.check(parse("E G F c[1]"))  # not CTL → would need the CTL* path


# ---------------------------------------------------------------------------
# Fair witnesses and counterexamples
# ---------------------------------------------------------------------------


def test_fair_eg_witness_cycle_meets_every_fairness_set(ring3):
    constraint = token_ring.ring_scheduler_fairness(3)
    lasso = witness_eg(ring3, TrueLiteral(), fairness=constraint)
    assert lasso is not None
    assert is_lasso(ring3, lasso)
    checker = resolve_checker(ring3, "bitset", constraint)
    for condition_set in checker.fairness_condition_sets():
        assert any(state in condition_set for state in lasso.cycle)


def test_unfair_counterexample_af_token(ring3):
    lasso = counterexample_af(ring3, iatom("t", 2), engine="bitset")
    assert lasso is not None
    assert is_lasso(ring3, lasso)
    assert all(
        IndexedProp("t", 2) not in ring3.label(state) for state in lasso.positions()
    )


def test_no_fair_counterexample_when_fair_claim_holds(ring3):
    constraint = token_ring.ring_scheduler_fairness(3)
    assert counterexample_af(ring3, iatom("t", 2), fairness=constraint) is None


def test_fair_witness_from_prebuilt_checker(two_loops, visit_q):
    checker = make_ctl_checker(two_loops, engine="naive", fairness=visit_q)
    lasso = witness_eg(checker, lnot(atom("p")))
    assert lasso is not None
    assert is_lasso(two_loops, lasso)
    assert set(lasso.cycle) == {"b"}


# ---------------------------------------------------------------------------
# Satellite: existential_states enforces totality
# ---------------------------------------------------------------------------


def test_existential_states_rejects_non_total_structure():
    from repro.logic.builders import F, G
    from repro.mc.ltl import existential_states

    dead_end = KripkeStructure(
        states=["live", "dead"],
        transitions=[("live", "dead")],
        labeling={"live": {"p"}, "dead": set()},
        initial_state="live",
    )
    with pytest.raises(ValidationError):
        existential_states(dead_end, G(F(atom("p"))))
