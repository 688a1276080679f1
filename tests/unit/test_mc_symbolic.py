"""Unit tests for the symbolic CTL model checker and its engine registration.

The differential heavy lifting lives in ``tests/property/test_property_symbolic.py``;
here the checker is pinned down on known structures — fixture structures with
hand-computed satisfaction sets, the token ring via both the explicit and the
direct symbolic path, engine dispatch (`make_ctl_checker`, `ICTLStarModelChecker`,
the lasso oracle's leaf evaluator), and the error surface.
"""

import pytest

from repro.errors import FragmentError, ModelCheckingError, ValidationError
from repro.kripke.structure import KripkeStructure
from repro.logic.ast import Atom, IndexExists, IndexedAtom
from repro.logic.builders import AF, AG, AU, EF, EG, EU, EX, implies, lnot
from repro.logic.parser import parse
from repro.mc.bitset import BitsetCTLModelChecker
from repro.mc.registry import CTL_ENGINES, make_ctl_checker
from repro.mc.indexed import ICTLStarModelChecker
from repro.mc.oracle import find_lasso_witness, simple_lasso_exists
from repro.mc.symbolic import SymbolicCTLModelChecker, check, satisfaction_set
from repro.systems import token_ring


def test_known_satisfaction_sets_on_branching(branching_structure):
    checker = SymbolicCTLModelChecker(branching_structure)
    p, q = Atom("p"), Atom("q")
    assert checker.satisfaction_set(EG(p)) == frozenset({"b"})
    assert checker.satisfaction_set(EF(q)) == frozenset({"a", "c", "d"})
    assert checker.satisfaction_set(AF(p)) == frozenset({"a", "b", "c", "d"})
    assert checker.satisfaction_set(EX(p)) == frozenset({"a", "b", "c"})
    assert checker.satisfaction_set(EU(lnot(p), q)) == frozenset({"a", "c", "d"})
    assert checker.satisfaction_set(AU(lnot(p), q)) == frozenset({"c", "d"})


def test_check_defaults_to_initial_state(toggle_structure):
    checker = SymbolicCTLModelChecker(toggle_structure)
    formula = AG(implies(Atom("p"), EX(Atom("q"))))
    assert checker.check(formula)
    assert checker.check(formula, "off")
    assert not checker.check(Atom("q"))
    assert checker.check(Atom("q"), "off")


def test_check_batch_mapping_and_iterable(toggle_structure):
    checker = SymbolicCTLModelChecker(toggle_structure)
    named = checker.check_batch({"p_now": Atom("p"), "always_back": AG(EF(Atom("p")))})
    assert named == {"p_now": True, "always_back": True}
    by_formula = checker.check_batch([Atom("p"), Atom("q")])
    assert by_formula == {Atom("p"): True, Atom("q"): False}


def test_satisfaction_bdd_and_memo(branching_structure):
    checker = SymbolicCTLModelChecker(branching_structure)
    formula = EF(Atom("q"))
    first = checker.satisfaction_node(formula)
    assert checker.satisfaction_node(formula) == first
    wrapped = checker.satisfaction_fn(formula)
    assert wrapped.node == first
    assert wrapped.manager is checker.symbolic.manager


def test_one_shot_helpers(branching_structure):
    assert check(branching_structure, EF(Atom("q")))
    assert satisfaction_set(branching_structure, Atom("p")) == frozenset({"b", "d"})


def test_parsed_formulas(branching_structure):
    checker = SymbolicCTLModelChecker(branching_structure)
    naive_equalities = [
        "A G (p -> A F p)",
        "E ((!p) U q)",
        "A (q R (p | q | !p))",
        "A (p W q)",
    ]
    bitset = BitsetCTLModelChecker(branching_structure)
    for text in naive_equalities:
        formula = parse(text)
        assert checker.satisfaction_set(formula) == bitset.satisfaction_set(formula)


def test_non_ctl_formula_is_rejected(branching_structure):
    checker = SymbolicCTLModelChecker(branching_structure)
    with pytest.raises(FragmentError):
        checker.satisfaction_set(parse("E (F p & G q)"))


def test_non_total_structure_is_rejected():
    stuck = KripkeStructure(
        states=["a", "b"],
        transitions=[("a", "b")],
        labeling={},
        initial_state="a",
    )
    with pytest.raises(ValidationError):
        SymbolicCTLModelChecker(stuck)
    # validate_structure=False skips the check, like the other engines.
    SymbolicCTLModelChecker(stuck, validate_structure=False)


# ---------------------------------------------------------------------------
# Index quantifiers
# ---------------------------------------------------------------------------


def test_index_quantifiers_instantiated_on_indexed_encodings():
    # The family encoding has no explicit IndexedKripkeStructure to hand to
    # ICTLStarModelChecker, so the symbolic checker instantiates ∧_i itself.
    symbolic = token_ring.symbolic_token_ring(3)
    checker = SymbolicCTLModelChecker(symbolic)
    assert checker.check(token_ring.property_critical_implies_token())


def test_index_quantifiers_rejected_without_index_set(branching_structure):
    checker = SymbolicCTLModelChecker(branching_structure)
    with pytest.raises(FragmentError):
        checker.check(IndexExists("i", EF(IndexedAtom("p", "i"))))


def test_symbolic_family_checks_full_property_set():
    symbolic = token_ring.symbolic_token_ring(4)
    checker = SymbolicCTLModelChecker(symbolic)
    results = checker.check_batch(
        {**token_ring.ring_properties(), **token_ring.ring_invariants()}
    )
    assert all(results.values())
    # The distinguishing formula must be false on rings of size >= 3 — the
    # symbolic engine agrees with the reproduction's explicit finding.
    assert not checker.check(token_ring.distinguishing_formula())
    # Satisfy-counts stay symbolic: EF(some delayed process) covers all states.
    some_delayed = IndexExists("i", IndexedAtom("d", "i"))
    assert checker.satisfy_count(EF(some_delayed)) == symbolic.num_states


# ---------------------------------------------------------------------------
# Engine registration
# ---------------------------------------------------------------------------


def test_bdd_engine_is_registered():
    assert "bdd" in CTL_ENGINES


def test_make_ctl_checker_dispatches_bdd(branching_structure):
    checker = make_ctl_checker(branching_structure, engine="bdd")
    assert isinstance(checker, SymbolicCTLModelChecker)
    with pytest.raises(ModelCheckingError):
        make_ctl_checker(branching_structure, engine="zdd")


def test_ictlstar_checker_accepts_bdd_engine(ring3):
    checker = ICTLStarModelChecker(ring3, engine="bdd")
    assert checker.engine == "bdd"
    results = checker.check_batch(token_ring.ring_properties())
    assert all(results.values())
    reference = ICTLStarModelChecker(ring3, engine="bitset").check_batch(
        token_ring.ring_properties()
    )
    assert results == reference


def test_lasso_oracle_accepts_bdd_leaf_evaluation(toggle_structure):
    witness_formula = parse("F q")
    assert simple_lasso_exists(toggle_structure, "on", witness_formula, engine="bdd")
    lasso = find_lasso_witness(toggle_structure, "on", witness_formula, engine="bdd")
    assert lasso is not None


def test_symbolic_structure_property_exposes_source(branching_structure):
    checker = SymbolicCTLModelChecker(branching_structure)
    assert checker.structure is branching_structure
    family = SymbolicCTLModelChecker(token_ring.symbolic_token_ring(2))
    assert family.structure is None
