"""Hypothesis strategies shared by the property-based tests.

Two families of strategies are provided: random total Kripke structures over a
small alphabet of atomic propositions, and random formulas (CTL and next-free
CTL*) over the same alphabet.  ``stutter_expand`` derives a structure that
corresponds to its input by splitting one state into a stuttering chain.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.kripke.structure import KripkeStructure
from repro.logic.ast import (
    And,
    Atom,
    Exists,
    Finally,
    ForAll,
    Globally,
    Implies,
    Next,
    Not,
    Or,
    TrueLiteral,
    Until,
)

ATOMS = ("p", "q", "r")


@st.composite
def kripke_structures(draw, min_states: int = 1, max_states: int = 5):
    """A random total Kripke structure labelled over ``ATOMS``."""
    size = draw(st.integers(min_value=min_states, max_value=max_states))
    states = list(range(size))
    labeling = {
        state: draw(st.sets(st.sampled_from(ATOMS), max_size=len(ATOMS))) for state in states
    }
    transitions = []
    for state in states:
        targets = draw(
            st.sets(st.sampled_from(states), min_size=1, max_size=size)
        )
        transitions.extend((state, target) for target in targets)
    initial = draw(st.sampled_from(states))
    return KripkeStructure(states, transitions, labeling, initial, name="random")


def stutter_expand(structure: KripkeStructure, state_to_split, seed: int = 0) -> KripkeStructure:
    """Split ``state_to_split`` into a two-state chain with the same label."""
    part_a = ("split", state_to_split, "a")
    part_b = ("split", state_to_split, "b")
    states = [s for s in structure.states if s != state_to_split] + [part_a, part_b]
    transitions = []
    for source, target in structure.transition_pairs():
        new_source = part_b if source == state_to_split else source
        new_target = part_a if target == state_to_split else target
        transitions.append((new_source, new_target))
    transitions.append((part_a, part_b))
    labeling = {
        state: structure.label(state) for state in structure.states if state != state_to_split
    }
    labeling[part_a] = structure.label(state_to_split)
    labeling[part_b] = structure.label(state_to_split)
    initial = (
        part_a if structure.initial_state == state_to_split else structure.initial_state
    )
    return KripkeStructure(states, transitions, labeling, initial, name="stuttered")


def _atomic():
    return st.one_of(st.sampled_from([Atom(name) for name in ATOMS]), st.just(TrueLiteral()))


@st.composite
def ctl_formulas(draw, max_depth: int = 3):
    """A random CTL state formula over ``ATOMS`` (next-free)."""
    if max_depth <= 0:
        return draw(_atomic())
    choice = draw(st.integers(min_value=0, max_value=8))
    if choice == 0:
        return draw(_atomic())
    sub = lambda: draw(ctl_formulas(max_depth=max_depth - 1))  # noqa: E731
    if choice == 1:
        return Not(sub())
    if choice == 2:
        return And(sub(), sub())
    if choice == 3:
        return Or(sub(), sub())
    if choice == 4:
        return Implies(sub(), sub())
    if choice == 5:
        return Exists(Until(sub(), sub()))
    if choice == 6:
        return ForAll(Until(sub(), sub()))
    if choice == 7:
        return Exists(Globally(sub()))
    return ForAll(Finally(sub()))


@st.composite
def ctlstar_path_formulas(draw, max_depth: int = 2, allow_next: bool = False):
    """A random pure path formula (LTL shape) over ``ATOMS``."""
    if max_depth <= 0:
        return draw(_atomic())
    choice = draw(st.integers(min_value=0, max_value=7 if allow_next else 6))
    if choice == 0:
        return draw(_atomic())
    sub = lambda: draw(  # noqa: E731
        ctlstar_path_formulas(max_depth=max_depth - 1, allow_next=allow_next)
    )
    if choice == 1:
        return Not(sub())
    if choice == 2:
        return And(sub(), sub())
    if choice == 3:
        return Or(sub(), sub())
    if choice == 4:
        return Until(sub(), sub())
    if choice == 5:
        return Finally(sub())
    if choice == 6:
        return Globally(sub())
    return Next(sub())
