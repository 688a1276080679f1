"""Property-based tests for the correspondence machinery.

The key empirical validation of the paper's Theorem 2: whenever the decision
algorithm says two structures correspond, every next-free CTL* formula we can
generate agrees on their initial states; and structures obtained from one
another by *stuttering expansion* (splitting a state into a short chain of
identically-labelled states) always correspond.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import ctl_formulas, ctlstar_path_formulas, kripke_structures, stutter_expand

from repro.logic.ast import Exists
from repro.mc.ctlstar import CTLStarModelChecker
from repro.correspondence.blocks import blocks_correspond, corresponding_path
from repro.correspondence.check import find_correspondence
from repro.correspondence.definition import is_correspondence


@given(structure=kripke_structures())
@settings(max_examples=40, deadline=None)
def test_every_structure_corresponds_to_itself_with_identity(structure):
    relation = find_correspondence(structure, structure)
    assert relation is not None
    for state in structure.states:
        assert relation.degree_or_none(state, state) == 0
    assert is_correspondence(structure, structure, relation)


@given(structure=kripke_structures(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_stutter_expansion_preserves_correspondence(structure, data):
    state = data.draw(st.sampled_from(sorted(structure.states, key=repr)))
    expanded = stutter_expand(structure, state)
    relation = find_correspondence(structure, expanded)
    assert relation is not None
    assert is_correspondence(structure, expanded, relation)


@given(structure=kripke_structures(), data=st.data(), formula=ctl_formulas(max_depth=2))
@settings(max_examples=30, deadline=None)
def test_corresponding_structures_satisfy_the_same_next_free_formulas(structure, data, formula):
    state = data.draw(st.sampled_from(sorted(structure.states, key=repr)))
    expanded = stutter_expand(structure, state)
    left = CTLStarModelChecker(structure)
    right = CTLStarModelChecker(expanded)
    assert left.check(formula) == right.check(formula)


@given(
    structure=kripke_structures(),
    data=st.data(),
    path_formula=ctlstar_path_formulas(max_depth=2),
)
@settings(max_examples=30, deadline=None)
def test_corresponding_structures_agree_on_path_quantified_formulas(structure, data, path_formula):
    state = data.draw(st.sampled_from(sorted(structure.states, key=repr)))
    expanded = stutter_expand(structure, state)
    formula = Exists(path_formula)
    assert CTLStarModelChecker(structure).check(formula) == CTLStarModelChecker(expanded).check(
        formula
    )


@given(structure=kripke_structures(min_states=2), data=st.data())
@settings(max_examples=30, deadline=None)
def test_decision_algorithm_output_always_satisfies_the_definition(structure, data):
    other = data.draw(kripke_structures())
    relation = find_correspondence(structure, other)
    if relation is not None:
        assert is_correspondence(structure, other, relation)


@given(structure=kripke_structures(min_states=2), data=st.data())
@settings(max_examples=25, deadline=None)
def test_lemma1_block_matching_for_random_paths(structure, data):
    state = data.draw(st.sampled_from(sorted(structure.states, key=repr)))
    expanded = stutter_expand(structure, state)
    relation = find_correspondence(structure, expanded)
    assert relation is not None
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=1000)))
    # Random finite path of the left structure starting at its initial state.
    path = [structure.initial_state]
    for _ in range(data.draw(st.integers(min_value=0, max_value=5))):
        path.append(rng.choice(sorted(structure.successors(path[-1]), key=repr)))
    matching = corresponding_path(structure, expanded, relation, path)
    assert matching.left_path == tuple(path)
    assert blocks_correspond(relation, matching)
    from repro.kripke.paths import is_path

    assert is_path(expanded, list(matching.right_path))
