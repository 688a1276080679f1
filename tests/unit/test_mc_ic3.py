"""Unit tests for the IC3/PDR engine (`repro.mc.ic3`)."""

import pytest

from repro.errors import FragmentError, InconclusiveError
from repro.kripke.paths import is_path
from repro.logic.ast import And, Atom, Exists, Finally, Implies, Not, Or
from repro.logic.builders import AF, AG, EF, EG
from repro.mc.bitset import BitsetCTLModelChecker
from repro.mc.registry import ENGINE_NAMES, make_ctl_checker
from repro.mc.fairness import FairnessConstraint
from repro.mc.ic3 import DEFAULT_MAX_FRAMES, IC3ModelChecker, InvariantCertificate
from repro.mc.indexed import ICTLStarModelChecker
from repro.systems import counter, mutex, token_ring


@pytest.fixture(scope="module")
def mutex3_symbolic():
    return mutex.symbolic_mutex(3, domain="free")


def test_ic3_is_a_registered_engine():
    assert "ic3" in ENGINE_NAMES
    structure = mutex.build_mutex(2)
    checker = make_ctl_checker(structure, engine="ic3")
    assert isinstance(checker, IC3ModelChecker)
    assert checker.max_frames == DEFAULT_MAX_FRAMES
    assert not checker.supports_satisfaction_sets


def test_make_ctl_checker_bound_becomes_frame_ceiling():
    structure = mutex.build_mutex(2)
    checker = make_ctl_checker(structure, engine="ic3", bound=7)
    assert checker.max_frames == 7


def test_ic3_proves_mutex_safety(mutex3_symbolic):
    checker = IC3ModelChecker(mutex3_symbolic)
    assert checker.check(mutex.mutex_safety(3))
    assert checker.last_detail.startswith("ic3-invariant")
    assert checker.last_counterexample is None
    certificate = checker.certificate
    assert isinstance(certificate, InvariantCertificate)
    assert certificate.num_clauses == len(certificate.cubes) >= 1
    assert certificate.frame >= 1
    for cube in certificate.cubes:
        assert cube  # no empty clause in an invariant strengthening
        assert all(isinstance(literal, int) and literal != 0 for literal in cube)


def test_ic3_refutes_buggy_mutex_with_a_real_path():
    structure = mutex.build_mutex(3, buggy=True)
    checker = IC3ModelChecker(structure)
    assert not checker.check(mutex.mutex_safety(3))
    assert checker.last_detail.startswith("counterexample at depth")
    path = checker.last_counterexample
    assert path is not None
    assert path[0] == structure.initial_state
    assert is_path(structure, path)
    oracle = BitsetCTLModelChecker(structure)
    body = mutex.mutex_safety(3).path.operand
    assert not oracle.check(body, state=path[-1])


def test_prove_invariant_returns_certificate_or_none():
    good = IC3ModelChecker(mutex.symbolic_mutex(3, domain="free"))
    body = mutex.mutex_safety(3).path.operand
    assert isinstance(good.prove_invariant(body), InvariantCertificate)
    bad = IC3ModelChecker(mutex.symbolic_mutex(3, buggy=True, domain="free"))
    assert bad.prove_invariant(body) is None
    assert bad.last_counterexample is not None


def test_ic3_counter_family():
    checker = IC3ModelChecker(counter.symbolic_counter(8, domain="free"))
    assert checker.check(counter.counter_nonzero(8))
    assert checker.last_detail.startswith("ic3-invariant")
    # The buggy counter wraps all-ones around to zero: a genuine violation
    # at depth 2^n - 1, well past any small k-induction bound.
    buggy = IC3ModelChecker(counter.symbolic_counter(3, buggy=True, domain="free"))
    assert not buggy.check(counter.counter_nonzero(3))
    assert buggy.last_detail == "counterexample at depth 7"


def test_ic3_ring_one_token_and_pairwise_exclusion():
    structure = token_ring.symbolic_token_ring(4, domain="free")
    checker = IC3ModelChecker(structure)
    assert checker.check(token_ring.invariant_one_token())
    assert checker.check(token_ring.ring_mutual_exclusion(4))


def test_ring_mutual_exclusion_trivial_at_size_one():
    structure = token_ring.build_token_ring(1)
    checker = IC3ModelChecker(structure)
    assert checker.check(token_ring.ring_mutual_exclusion(1))


def test_frame_ceiling_raises_inconclusive():
    structure = token_ring.symbolic_token_ring(4, domain="free")
    checker = IC3ModelChecker(structure, max_frames=1)
    with pytest.raises(InconclusiveError):
        checker.check(token_ring.ring_mutual_exclusion(4))


def test_verdicts_are_memoised():
    checker = IC3ModelChecker(mutex.symbolic_mutex(3, domain="free"))
    formula = mutex.mutex_safety(3)
    assert checker.check(formula)
    queries = checker.stats()["relative_queries"]
    assert checker.check(formula)  # served from the memo
    assert checker.stats()["relative_queries"] == queries


def test_boolean_connectives_dispatch():
    checker = IC3ModelChecker(mutex.symbolic_mutex(3, domain="free"))
    safety = mutex.mutex_safety(3)
    assert checker.check(And(safety, safety))
    assert checker.check(Or(safety, Not(safety)))
    assert checker.check(Implies(Not(safety), safety))
    assert not checker.check(Not(safety))


def test_ef_is_decided_by_duality():
    # EF bad on the buggy mutex == not AG !bad.
    checker = IC3ModelChecker(mutex.symbolic_mutex(2, buggy=True, domain="free"))
    safety_body = mutex.mutex_safety(2).path.operand
    two_critical = Exists(Finally(Not(safety_body)))
    assert checker.check(two_critical)


def test_liveness_is_outside_the_fragment(mutex3_symbolic):
    checker = IC3ModelChecker(mutex3_symbolic)
    for formula in (AF(Atom("p")), EG(Atom("p")), AG(EF(Atom("p")))):
        with pytest.raises(FragmentError):
            checker.check(formula)


def test_fairness_is_rejected():
    structure = mutex.build_mutex(2)
    constraint = mutex.mutex_scheduler_fairness(2)
    assert isinstance(constraint, FairnessConstraint)
    with pytest.raises(FragmentError):
        IC3ModelChecker(structure, fairness=constraint)


def test_stats_report_frame_and_solver_counters(mutex3_symbolic):
    checker = IC3ModelChecker(mutex3_symbolic)
    checker.check(mutex.mutex_safety(3))
    stats = checker.stats()
    assert stats["frames"] >= 1
    assert stats["cubes_blocked"] >= 1
    assert stats["obligations"] >= 1
    assert stats["relative_queries"] > 0
    assert stats["verification_queries"] >= len(checker.certificate.cubes)
    assert stats["solve_calls"] > 0
    assert stats["conflicts"] >= 0


def test_indexed_checker_dispatches_verdict_only():
    structure = token_ring.build_token_ring(3)
    checker = ICTLStarModelChecker(structure, engine="ic3")
    assert checker.check(token_ring.invariant_one_token())
    with pytest.raises(FragmentError):
        checker.satisfaction_set(token_ring.invariant_one_token())


def test_explicit_structures_are_encoded_transparently():
    # The same checker accepts an explicit structure and proves the same
    # certificate facts as the hand-built symbolic encoding.
    explicit = mutex.build_mutex(2)
    checker = IC3ModelChecker(explicit)
    assert checker.check(mutex.mutex_safety(2))
    assert checker.certificate is not None
