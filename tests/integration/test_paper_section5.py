"""Integration tests reproducing the Section 5 narrative end to end.

These tests tie together the token-ring system, the ICTL* model checker, the
correspondence machinery, and the parameterized-verification workflow — and
they pin down the reproduction's documented deviation from the paper (the
two-process base case is too small; three processes work).
"""

import pytest

from repro.correspondence import (
    ParameterizedVerifier,
    correspondence_violations,
    find_correspondence,
    verify_index_relation,
)
from repro.kripke import reduce_to_index, to_dot
from repro.mc import ICTLStarModelChecker
from repro.systems import token_ring


def test_fig51_two_process_global_state_graph(ring2):
    """Fig. 5.1: eight reachable global states, total transition relation."""
    assert ring2.num_states == 8
    assert ring2.num_transitions == 14
    assert ring2.is_total()
    # The graph is strongly connected (the token keeps circulating).
    from repro.kripke import reachable_states

    for state in ring2.states:
        assert reachable_states(ring2, state) == ring2.states
    # The DOT export mentions every state (smoke test for Fig. 5.1 rendering).
    assert to_dot(ring2).count("->") == 14


@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_invariants_hold_at_every_size(size):
    structure = token_ring.build_token_ring(size)
    checker = ICTLStarModelChecker(structure)
    assert token_ring.partition_invariant_holds(structure)
    assert checker.check(token_ring.invariant_request_persistence())
    assert checker.check(token_ring.invariant_one_token())


@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_the_four_properties_hold_at_every_size(size):
    structure = token_ring.build_token_ring(size)
    checker = ICTLStarModelChecker(structure)
    for name, formula in token_ring.ring_properties().items():
        assert checker.check(formula), name


@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_eventual_token_needs_fairness_at_every_size(size):
    """``AF t_i`` fails in plain CTL and holds under scheduler fairness."""
    structure = token_ring.build_token_ring(size)
    constraint = token_ring.ring_scheduler_fairness(size)
    formula = token_ring.property_eventual_token()
    assert not ICTLStarModelChecker(structure).check(formula)
    assert ICTLStarModelChecker(structure, fairness=constraint).check(formula)


def test_fair_liveness_crosschecked_and_counterexampled(ring4):
    """The acceptance loop: engine agreement, fair verdict, validated fair lasso."""
    from repro.kripke.paths import is_lasso
    from repro.kripke.structure import IndexedProp
    from repro.logic.builders import AF, iatom
    from repro.mc import counterexample_af, crosscheck_ctl_engines

    constraint = token_ring.ring_scheduler_fairness(4)
    # All three engines agree that every state satisfies fair AF t_4.
    satisfied = crosscheck_ctl_engines(ring4, AF(iatom("t", 4)), fairness=constraint)
    assert satisfied == ring4.states
    # The unfair claim fails, and the bitset engine certifies it with a real
    # lasso on which process 4 never holds the token.
    lasso = counterexample_af(ring4, iatom("t", 4), engine="bitset")
    assert lasso is not None
    assert is_lasso(ring4, lasso)
    assert all(IndexedProp("t", 4) not in ring4.label(s) for s in lasso.positions())
    # Under fairness no counterexample exists.
    assert counterexample_af(ring4, iatom("t", 4), engine="bitset", fairness=constraint) is None


def test_paper_claim_m2_vs_mr_fails(ring2, ring4):
    """The literal Section 5 claim: M_2 corresponds to M_r.  It does not."""
    report = verify_index_relation(ring2, ring4, token_ring.section5_index_relation(4))
    assert not report.holds
    assert (1, 1) in report.failing_pairs


def test_distinguishing_formula_witnesses_the_failure(ring2, ring3, ring4):
    """A restricted ICTL* formula separates M_2 from the larger rings, so by
    (the contrapositive of) Theorem 5 no correspondence can exist."""
    phi = token_ring.distinguishing_formula()
    assert ICTLStarModelChecker(ring2).check(phi) is True
    assert ICTLStarModelChecker(ring3).check(phi) is False
    assert ICTLStarModelChecker(ring4).check(phi) is False


def test_explicit_section5_relation_violates_the_definition(ring2, ring4):
    """The appendix's rank-based relation fails the clause checks (the proof gap)."""
    relation = token_ring.section5_correspondence(ring2, ring4, 1, 1)
    violations = correspondence_violations(
        reduce_to_index(ring2, 1), reduce_to_index(ring4, 1), relation
    )
    assert violations
    assert any("clause 2" in violation for violation in violations)


def test_corrected_base_case_corresponds(ring3, ring4):
    """Rings of size >= 3 correspond pairwise for every pair of the corrected IN."""
    report = verify_index_relation(ring3, ring4, token_ring.corrected_index_relation(3, 4))
    assert report.holds
    # And the minimal-degree relations satisfy the definition.
    for (small_index, large_index), relation in report.relations.items():
        assert relation is not None
        assert not correspondence_violations(
            reduce_to_index(ring3, small_index), reduce_to_index(ring4, large_index), relation
        )


#: Degree histogram of every ``M_3|i ~ M_5|j`` relation under
#: ``corrected_index_relation(3, 5)``, recorded from the level-sweep decision
#: procedure the worklist algorithm replaced: 852 pairs, maximal degree 8.
M3_M5_DEGREE_HISTOGRAM = {0: 368, 1: 109, 2: 132, 3: 110, 4: 57, 5: 39, 6: 25, 7: 10, 8: 2}


def test_m3_m5_minimal_degrees_are_pinned(ring3):
    report = verify_index_relation(
        ring3, token_ring.build_token_ring(5), token_ring.corrected_index_relation(3, 5)
    )
    assert report.holds
    assert len(report.relations) == 9
    for pair, relation in report.relations.items():
        histogram = {}
        for _, degree in relation.items():
            histogram[degree] = histogram.get(degree, 0) + 1
        assert histogram == M3_M5_DEGREE_HISTOGRAM, pair


def test_transfer_workflow_from_the_three_process_ring(ring3):
    """The paper's intended workflow, with the corrected base: check small, conclude large."""
    large = token_ring.build_token_ring(5)
    verifier = ParameterizedVerifier(ring3, large, token_ring.corrected_index_relation(3, 5))
    direct = ICTLStarModelChecker(large)
    for name, formula in token_ring.ring_properties().items():
        transferred = verifier.check(formula)
        assert transferred.holds == direct.check(formula), name
    for name, formula in token_ring.ring_invariants().items():
        transferred = verifier.check(formula)
        assert transferred.holds == direct.check(formula), name


def test_one_process_ring_cannot_be_the_base(ring2):
    """The paper's own remark: the one-process ring corresponds to nothing larger."""
    ring1 = token_ring.build_token_ring(1)
    assert find_correspondence(reduce_to_index(ring1, 1), reduce_to_index(ring2, 1)) is None


def test_counterexample_for_the_distinguishing_formula(ring3):
    """Extract the concrete reason the distinguishing formula fails for r >= 3."""
    from repro.logic.transform import instantiate_quantifiers
    from repro.mc import counterexample_ag
    from repro.logic.ast import ForAll, Globally

    # Instantiate the formula for process 1 and strip the leading AG to find a
    # reachable state where the body fails.
    phi = token_ring.distinguishing_formula()
    instance = instantiate_quantifiers(phi, [1])
    # instance = AG(body); extract body.
    assert isinstance(instance, ForAll) and isinstance(instance.path, Globally)
    body = instance.path.operand
    path = counterexample_ag(ring3, body)
    assert path is not None
    failing = path[-1]
    # The failing state has process 1 delayed while the token is elsewhere.
    assert 1 in failing.delayed
