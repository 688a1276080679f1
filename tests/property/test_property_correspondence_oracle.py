"""Differential, soundness and minimality tests for the correspondence decision procedure.

``reference_minimal_degrees`` below is the plain rank iteration the decision
procedure in :mod:`repro.correspondence.check` must agree with: at each level
it sweeps every unassigned candidate pair and assigns the level to those whose
clauses 2b and 2c hold.  It is slow and obviously faithful to the definition,
so it lives here as an oracle; the library's worklist algorithm must return
exactly the same degree maps.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import kripke_structures, stutter_expand

from repro.kripke.structure import KripkeStructure
from repro.correspondence.check import (
    _Candidates,
    _interned,
    find_correspondence,
    minimal_degrees,
)
from repro.correspondence.definition import correspondence_violations, pair_clause_violations
from repro.correspondence.relation import CorrespondenceRelation


def _clauses_hold(left, right, below, related, s, t):
    """Clauses 2b and 2c for ``(s, t)``.

    "Corresponds with degree < k" reads as membership in ``below`` and
    "corresponds with any degree" as membership in ``related``.
    """
    clause_2b = any((s, t1) in below for t1 in right.successors(t)) or all(
        (s1, t) in below or any((s1, t1) in related for t1 in right.successors(t))
        for s1 in left.successors(s)
    )
    clause_2c = any((s1, t) in below for s1 in left.successors(s)) or all(
        (s, t1) in below or any((s1, t1) in related for s1 in left.successors(s))
        for t1 in right.successors(t)
    )
    return clause_2b and clause_2c


def reference_minimal_degrees(left, right, candidates, max_degree=None):
    """Minimal degrees of ``candidates`` relative to themselves, by a level sweep."""
    bound = left.num_states + right.num_states if max_degree is None else max_degree
    degrees = {}  # during the sweep of a level, exactly the pairs of smaller degree
    for level in range(bound + 1):
        settled = [
            pair
            for pair in candidates
            if pair not in degrees and _clauses_hold(left, right, degrees, candidates, *pair)
        ]
        if not settled:
            break
        degrees.update(dict.fromkeys(settled, level))
    return degrees


def reference_find_correspondence(
    left, right, max_degree=None, require_initial=True, require_total=True
):
    """The coarsest correspondence by refining the label-compatible pairs to a fixpoint."""
    candidates = {
        (s, t) for s in left.states for t in right.states if left.label(s) == right.label(t)
    }
    while True:
        degrees = reference_minimal_degrees(left, right, candidates, max_degree)
        if set(degrees) == candidates:
            break
        candidates = set(degrees)
    if require_initial and (left.initial_state, right.initial_state) not in degrees:
        return None
    if require_total and not (
        {s for s, _ in degrees} == set(left.states) and {t for _, t in degrees} == set(right.states)
    ):
        return None
    return degrees


def _with_extra_edge(structure: KripkeStructure, source, target) -> KripkeStructure:
    transitions = list(structure.transition_pairs()) + [(source, target)]
    labeling = {state: structure.label(state) for state in structure.states}
    return KripkeStructure(structure.states, transitions, labeling, structure.initial_state)


@st.composite
def structure_pairs(draw):
    """A structure and a partner: unrelated, stutter-expanded, or stutter-expanded plus one edge."""
    left = draw(kripke_structures())
    mode = draw(st.sampled_from(["random", "stutter", "stutter+edge"]))
    if mode == "random":
        return left, draw(kripke_structures())
    right = left
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        right = stutter_expand(right, draw(st.sampled_from(sorted(right.states, key=repr))))
    if mode == "stutter+edge":
        ordered = sorted(right.states, key=repr)
        source, target = draw(st.sampled_from(ordered)), draw(st.sampled_from(ordered))
        right = _with_extra_edge(right, source, target)
    if draw(st.booleans()):
        left, right = right, left
    return left, right


def _as_dict(relation):
    return None if relation is None else relation.as_dict()


@pytest.mark.parametrize("max_degree", [None, 0, 1, 2])
@pytest.mark.parametrize("require_initial", [True, False])
@pytest.mark.parametrize("require_total", [True, False])
@given(pair=structure_pairs())
@settings(max_examples=25, deadline=None)
def test_find_correspondence_matches_the_rank_iteration(
    pair, max_degree, require_initial, require_total
):
    left, right = pair
    flags = dict(
        max_degree=max_degree, require_initial=require_initial, require_total=require_total
    )
    assert _as_dict(find_correspondence(left, right, **flags)) == reference_find_correspondence(
        left, right, **flags
    )


@pytest.mark.parametrize("max_degree", [None, 0, 1, 2])
@given(pair=structure_pairs(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_minimal_degrees_matches_the_rank_iteration_on_candidate_subsets(pair, max_degree, data):
    left, right = pair
    every_pair = sorted(((s, t) for s in left.states for t in right.states), key=repr)
    candidates = data.draw(st.sets(st.sampled_from(every_pair)))
    assert minimal_degrees(left, right, candidates, max_degree) == reference_minimal_degrees(
        left, right, candidates, max_degree
    )


@given(pair=structure_pairs())
@settings(max_examples=60, deadline=None)
def test_found_relations_are_sound_and_their_degrees_minimal(pair):
    left, right = pair
    relation = find_correspondence(left, right)
    if relation is None:
        return
    assert correspondence_violations(left, right, relation) == []
    degrees = relation.as_dict()
    for (s, t), degree in degrees.items():
        if degree == 0:
            continue
        lowered = CorrespondenceRelation({**degrees, (s, t): degree - 1})
        violations = pair_clause_violations(left, right, lowered, s, t)
        assert any(v.startswith(("clause 2b", "clause 2c")) for v in violations), (s, t, degree)


def _locally_consistent_core(left, right, candidates):
    """The largest subset whose pairs can meet clauses 2b and 2c at some degree within it."""
    core = set(candidates)
    while True:
        failing = {pair for pair in core if not _clauses_hold(left, right, core, core, *pair)}
        if not failing:
            return core
        core -= failing


def _random_structure(rng: random.Random) -> KripkeStructure:
    states = list(range(rng.randint(4, 7)))
    transitions = [
        (state, target) for state in states for target in rng.sample(states, rng.randint(1, 2))
    ]
    return KripkeStructure(states, transitions, {}, states[0])


def test_pruning_reaches_the_locally_consistent_core():
    """Pruning, a private step of the procedure, removes exactly the pairs that cannot hold.

    Leaving too many costs only time, so the differential tests above cannot
    see it; this pins the pruning fixpoint itself, on a seeded sweep of random
    structure pairs and candidate sets.  Sparse structures of a few states
    make the removal cascades that a wrong counter update breaks common
    enough (about one case in a hundred) to be caught in every run.
    """
    rng = random.Random(1986)
    for _ in range(1500):
        left, right = _random_structure(rng), _random_structure(rng)
        interned_left, interned_right = _interned(left), _interned(right)
        m = len(interned_right.states)
        every_pair = [(s, t) for s in left.states for t in right.states]
        candidates = set(rng.sample(every_pair, rng.randint(0, len(every_pair))))
        pruned = _Candidates(
            interned_left,
            interned_right,
            [interned_left.number(s) * m + interned_right.number(t) for s, t in candidates],
        )
        pruned.prune()
        kept = {(interned_left.states[p // m], interned_right.states[p % m]) for p in pruned.pairs}
        assert kept == _locally_consistent_core(left, right, candidates)
