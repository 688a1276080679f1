"""Degree-annotated correspondence relations (Section 3 of the paper).

A correspondence relation between two Kripke structures ``M = (S, R, L, s0)``
and ``M' = (S', R', L', s0')`` is a set of triples ``E ⊆ S × S' × ℕ``.  A
triple ``(s, s', k)`` — written ``s E^k s'`` — says that ``s`` behaves like
``s'`` and that ``k`` bounds the number of transitions either side may take
before the two states *exactly match* again.  Degree 0 means exact matching:
every move of one state is matched immediately by a move of the other.

This module stores a correspondence relation as a mapping from state pairs to
their (single) degree.  The definition checker
(:mod:`repro.correspondence.definition`) interprets the stored degree as the
``k`` of the triple; the decision algorithm
(:mod:`repro.correspondence.check`) always stores *minimal* degrees.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Optional, Tuple

from repro.errors import CorrespondenceError
from repro.kripke.structure import State

__all__ = ["CorrespondenceRelation"]

Pair = Tuple[State, State]


class CorrespondenceRelation:
    """An immutable degree-annotated relation between the states of two structures."""

    def __init__(self, degrees: Mapping[Pair, int]) -> None:
        # Copying a dict reuses its stored key hashes; only non-int degrees
        # need a second lookup.
        cleaned: Dict[Pair, int] = dict(degrees)
        for pair, degree in degrees.items():
            if degree < 0:
                raise CorrespondenceError(
                    "correspondence degrees must be non-negative; pair %r got %d" % (pair, degree)
                )
            if type(degree) is not int:
                cleaned[pair] = int(degree)
        self._degrees = cleaned

    # -- construction helpers --------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Iterable[Pair], degree: int = 0) -> "CorrespondenceRelation":
        """Build a relation in which every pair carries the same degree."""
        return cls({pair: degree for pair in pairs})

    # -- queries ----------------------------------------------------------------

    def corresponds(self, left_state: State, right_state: State) -> bool:
        """Return ``True`` when the pair appears in the relation (with any degree)."""
        return (left_state, right_state) in self._degrees

    def degree(self, left_state: State, right_state: State) -> int:
        """Return the degree recorded for the pair; raises if the pair is absent."""
        try:
            return self._degrees[(left_state, right_state)]
        except KeyError:
            raise CorrespondenceError(
                "states %r and %r do not correspond" % (left_state, right_state)
            ) from None

    def degree_or_none(self, left_state: State, right_state: State) -> Optional[int]:
        """Return the degree for the pair, or ``None`` when the pair is absent."""
        return self._degrees.get((left_state, right_state))

    def pairs(self) -> Iterator[Pair]:
        """Iterate over the state pairs in the relation."""
        return iter(self._degrees)

    def items(self) -> Iterator[Tuple[Pair, int]]:
        """Iterate over ``((left, right), degree)`` entries."""
        return iter(self._degrees.items())

    @property
    def left_states(self) -> FrozenSet[State]:
        """The left-hand states covered by the relation."""
        return frozenset(pair[0] for pair in self._degrees)

    @property
    def right_states(self) -> FrozenSet[State]:
        """The right-hand states covered by the relation."""
        return frozenset(pair[1] for pair in self._degrees)

    @property
    def max_degree(self) -> int:
        """The largest degree in the relation (0 for an empty relation)."""
        return max(self._degrees.values(), default=0)

    def partners_of_left(self, left_state: State) -> FrozenSet[State]:
        """The right-hand states related to ``left_state``."""
        return frozenset(right for (left, right) in self._degrees if left == left_state)

    def partners_of_right(self, right_state: State) -> FrozenSet[State]:
        """The left-hand states related to ``right_state``."""
        return frozenset(left for (left, right) in self._degrees if right == right_state)

    def is_total_for(
        self, left_states: Iterable[State], right_states: Iterable[State]
    ) -> bool:
        """Return ``True`` when every given left and right state appears in some pair."""
        covered_left = self.left_states
        covered_right = self.right_states
        return all(state in covered_left for state in left_states) and all(
            state in covered_right for state in right_states
        )

    # -- dunder helpers -----------------------------------------------------------

    def __contains__(self, pair: Pair) -> bool:
        return pair in self._degrees

    def __len__(self) -> int:
        return len(self._degrees)

    def __iter__(self) -> Iterator[Pair]:
        return iter(self._degrees)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CorrespondenceRelation):
            return NotImplemented
        return self._degrees == other._degrees

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<CorrespondenceRelation: %d pairs, max degree %d>" % (
            len(self._degrees),
            self.max_degree,
        )

    def as_dict(self) -> Dict[Pair, int]:
        """Return a copy of the underlying pair → degree mapping."""
        return dict(self._degrees)
