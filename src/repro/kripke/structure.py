"""Kripke structures: the models of CTL* (Section 2 of the paper).

A Kripke structure is a tuple ``M = (S, R, L, s0)`` where ``S`` is a finite
set of states, ``R ⊆ S × S`` is a *total* transition relation, ``L`` labels
each state with the atomic propositions true in it, and ``s0`` is the initial
state.

States are arbitrary hashable Python objects — the library never imposes an
encoding.  Labels are sets whose elements are either plain strings (the
non-indexed propositions ``AP``) or :class:`IndexedProp` values (the indexed
propositions ``IP × I`` used by :class:`repro.kripke.indexed.IndexedKripkeStructure`).
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Tuple,
    Union,
)

from repro.errors import StructureError
from repro.logic.ast import Atom, ExactlyOne, Formula, IndexedAtom

__all__ = ["State", "IndexedProp", "Label", "KripkeStructure"]

#: States are opaque hashable objects.
State = Hashable


class IndexedProp(NamedTuple):
    """An indexed atomic proposition ``name_index`` attached to a state label.

    ``index`` is normally a concrete process number; the reduction ``M|_i``
    (see :mod:`repro.kripke.reduction`) rewrites it to the canonical sentinel
    ``"*"`` so that reductions taken at different index values become directly
    comparable.
    """

    name: str
    index: Union[int, str]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "%s[%s]" % (self.name, self.index)


#: A label element is either a plain proposition name or an indexed proposition.
Label = Union[str, IndexedProp]


class KripkeStructure:
    """A finite Kripke structure ``(S, R, L, s0)``.

    Parameters
    ----------
    states:
        The state set.  May be any iterable of hashable objects.
    transitions:
        Either an iterable of ``(source, target)`` pairs or a mapping from a
        state to an iterable of its successors.
    labeling:
        Mapping from each state to the collection of propositions true in it.
        States missing from the mapping are labelled with the empty set.
    initial_state:
        The distinguished initial state ``s0``; must be a member of ``states``.
    name:
        Optional human-readable name used in reports and exports.

    Notes
    -----
    The constructor does *not* require the transition relation to be total;
    call :func:`repro.kripke.validation.validate` (or pass the structure
    through :func:`repro.kripke.reachable.restrict_to_reachable`) before model
    checking, since the CTL*/CTL semantics of the paper assume totality.
    """

    def __init__(
        self,
        states: Iterable[State],
        transitions: Union[Iterable[Tuple[State, State]], Mapping[State, Iterable[State]]],
        labeling: Mapping[State, Iterable[Label]],
        initial_state: State,
        name: str | None = None,
    ) -> None:
        self._states: FrozenSet[State] = frozenset(states)
        if not self._states:
            raise StructureError("a Kripke structure must have at least one state")
        if initial_state not in self._states:
            raise StructureError("initial state %r is not a member of the state set" % (initial_state,))
        self._initial_state = initial_state
        self._name = name

        self._successors: Dict[State, FrozenSet[State]] = {}
        pairs = self._transition_pairs_from(transitions)
        forward: Dict[State, set] = {state: set() for state in self._states}
        backward: Dict[State, set] = {state: set() for state in self._states}
        for source, target in pairs:
            if source not in self._states:
                raise StructureError("transition source %r is not a state" % (source,))
            if target not in self._states:
                raise StructureError("transition target %r is not a state" % (target,))
            forward[source].add(target)
            backward[target].add(source)
        self._successors = {state: frozenset(successors) for state, successors in forward.items()}
        self._predecessors = {state: frozenset(sources) for state, sources in backward.items()}

        labels: Dict[State, FrozenSet[Label]] = {}
        for state, props in labeling.items():
            if state not in self._states:
                raise StructureError("labelled state %r is not a state" % (state,))
            labels[state] = frozenset(props)
        for state in self._states:
            labels.setdefault(state, frozenset())
        self._labels = labels

    # -- transition-relation helpers ----------------------------------------

    @staticmethod
    def _transition_pairs_from(transitions) -> Iterator[Tuple[State, State]]:
        if isinstance(transitions, Mapping):
            for source, targets in transitions.items():
                for target in targets:
                    yield (source, target)
        else:
            for source, target in transitions:
                yield (source, target)

    # -- basic accessors -----------------------------------------------------

    @property
    def name(self) -> str | None:
        """Optional human-readable name of the structure."""
        return self._name

    @property
    def states(self) -> FrozenSet[State]:
        """The state set ``S``."""
        return self._states

    @property
    def initial_state(self) -> State:
        """The initial state ``s0``."""
        return self._initial_state

    @property
    def num_states(self) -> int:
        """``|S|``."""
        return len(self._states)

    @property
    def num_transitions(self) -> int:
        """``|R|``."""
        return sum(len(successors) for successors in self._successors.values())

    def successors(self, state: State) -> FrozenSet[State]:
        """The successors of ``state`` under ``R``."""
        try:
            return self._successors[state]
        except KeyError:
            raise StructureError("%r is not a state of this structure" % (state,)) from None

    def predecessors(self, state: State) -> FrozenSet[State]:
        """The predecessors of ``state`` under ``R``."""
        try:
            return self._predecessors[state]
        except KeyError:
            raise StructureError("%r is not a state of this structure" % (state,)) from None

    def transition_pairs(self) -> Iterator[Tuple[State, State]]:
        """Iterate over all ``(source, target)`` transition pairs."""
        for source in self._states:
            for target in self._successors[source]:
                yield (source, target)

    def label(self, state: State) -> FrozenSet[Label]:
        """The label ``L(state)``."""
        try:
            return self._labels[state]
        except KeyError:
            raise StructureError("%r is not a state of this structure" % (state,)) from None

    @property
    def atomic_propositions(self) -> FrozenSet[str]:
        """The non-indexed proposition names occurring in any label."""
        names = set()
        for label in self._labels.values():
            for element in label:
                if isinstance(element, str):
                    names.add(element)
        return frozenset(names)

    @property
    def indexed_propositions(self) -> FrozenSet[IndexedProp]:
        """The indexed propositions occurring in any label."""
        props = set()
        for label in self._labels.values():
            for element in label:
                if isinstance(element, IndexedProp):
                    props.add(element)
        return frozenset(props)

    def is_total(self) -> bool:
        """Return ``True`` when every state has at least one successor."""
        return all(self._successors[state] for state in self._states)

    def __contains__(self, state: State) -> bool:
        return state in self._states

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        descriptor = self._name or self.__class__.__name__
        return "<%s: %d states, %d transitions>" % (descriptor, self.num_states, self.num_transitions)

    # -- atomic satisfaction -------------------------------------------------

    def atom_holds(self, state: State, formula: Formula) -> bool:
        """Decide an atomic formula at ``state``.

        Plain :class:`~repro.logic.ast.Atom` nodes are looked up as strings in
        the label; :class:`~repro.logic.ast.IndexedAtom` nodes must carry a
        concrete (integer or canonical ``"*"``) index and are looked up as
        :class:`IndexedProp` values.  :class:`~repro.logic.ast.ExactlyOne`
        requires an :class:`repro.kripke.indexed.IndexedKripkeStructure`.
        """
        if isinstance(formula, Atom):
            return formula.name in self.label(state)
        if isinstance(formula, IndexedAtom):
            return IndexedProp(formula.name, formula.index) in self.label(state)
        if isinstance(formula, ExactlyOne):
            raise StructureError(
                "the Θ ('exactly one') proposition is only meaningful on an "
                "IndexedKripkeStructure with a known index set"
            )
        raise StructureError("atom_holds expects an atomic formula, got %r" % (formula,))

    # -- derived structures ---------------------------------------------------

    def with_labels(self, relabel, name: str | None = None) -> "KripkeStructure":
        """Return a copy of the structure with each label replaced by ``relabel(state, label)``.

        The copy is a plain :class:`KripkeStructure` named ``name`` (this
        structure's name by default).  It shares the already validated state
        set and transition maps, which are immutable, so only the labels are
        rebuilt.
        """
        derived = KripkeStructure.__new__(KripkeStructure)
        derived._states = self._states
        derived._initial_state = self._initial_state
        derived._name = self._name if name is None else name
        derived._successors = self._successors
        derived._predecessors = self._predecessors
        derived._labels = {
            state: frozenset(relabel(state, label)) for state, label in self._labels.items()
        }
        return derived

    def to_dict(self) -> dict:
        """Return a JSON-serialisable description (states become their ``repr``)."""
        state_ids = {state: index for index, state in enumerate(sorted(self._states, key=repr))}
        return {
            "name": self._name,
            "states": [repr(state) for state in sorted(self._states, key=repr)],
            "initial": state_ids[self._initial_state],
            "transitions": sorted(
                [state_ids[source], state_ids[target]] for source, target in self.transition_pairs()
            ),
            "labels": {
                str(state_ids[state]): sorted(str(element) for element in label)
                for state, label in self._labels.items()
            },
        }
