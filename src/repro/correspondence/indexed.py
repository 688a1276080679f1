"""Indexed correspondence and the parameterized-verification workflow (Section 4).

Two indexed structures ``M`` (index set ``I``) and ``M'`` (index set ``I'``)
*(i, i')-correspond* when their reductions ``M|_i`` and ``M'|_{i'}``
correspond in the Section 3 sense.  Given a relation ``IN ⊆ I × I'`` that is
total for both index sets, the ICTL* correspondence theorem (Theorem 5) says:
if ``M`` and ``M'`` (i, i')-correspond for every ``(i, i') ∈ IN``, then the
two structures satisfy exactly the same closed ICTL* formulas.

This module provides:

* :func:`indexed_correspondence` — decide a single (i, i')-correspondence;
* :func:`verify_index_relation` — check every pair of an ``IN`` relation and
  report the per-pair relations;
* :class:`ParameterizedVerifier` — the end-to-end workflow of Section 5:
  establish the correspondence between a small instance and a large instance
  once, then model check ICTL* properties on the *small* instance and transfer
  the verdicts to the large one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.errors import CorrespondenceError
from repro.kripke.indexed import IndexedKripkeStructure
from repro.kripke.reduction import reduce_to_index
from repro.logic.ast import Formula
from repro.logic.syntax import assert_restricted_ictl
from repro.mc.indexed import ICTLStarModelChecker
from repro.correspondence.check import find_correspondence
from repro.correspondence.relation import CorrespondenceRelation

__all__ = [
    "IndexRelation",
    "IndexedCorrespondenceReport",
    "indexed_correspondence",
    "verify_index_relation",
    "TransferredResult",
    "ParameterizedVerifier",
]


@dataclass(frozen=True)
class IndexRelation:
    """A relation ``IN ⊆ I × I'`` between the index sets of two structures."""

    pairs: FrozenSet[Tuple[int, int]]

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[int, int]]) -> "IndexRelation":
        """Build an index relation from an iterable of ``(i, i')`` pairs."""
        return cls(frozenset((int(a), int(b)) for a, b in pairs))

    @classmethod
    def pivot(cls, left_values: Iterable[int], right_values: Iterable[int], pivot: int = 1) -> "IndexRelation":
        """The Section 5 pattern: relate ``pivot`` to ``pivot`` and every other left value to every other right value.

        For the token ring the paper uses
        ``IN = {(1, 1)} ∪ {(2, i) : i ∈ I_r − {1}}``; with ``left_values = {1, 2}``
        this classmethod builds exactly that relation.
        """
        left = sorted(set(left_values))
        right = sorted(set(right_values))
        if pivot not in left or pivot not in right:
            raise CorrespondenceError("the pivot index must belong to both index sets")
        pairs = {(pivot, pivot)}
        other_left = [value for value in left if value != pivot]
        other_right = [value for value in right if value != pivot]
        if other_left and not other_right or other_right and not other_left:
            raise CorrespondenceError(
                "cannot build a total pivot relation: one side has only the pivot index"
            )
        for left_value in other_left:
            for right_value in other_right:
                pairs.add((left_value, right_value))
        return cls(frozenset(pairs))

    def is_total_for(self, left_values: Iterable[int], right_values: Iterable[int]) -> bool:
        """Return ``True`` when every index value of both sides appears in some pair."""
        left_covered = {pair[0] for pair in self.pairs}
        right_covered = {pair[1] for pair in self.pairs}
        return all(value in left_covered for value in left_values) and all(
            value in right_covered for value in right_values
        )

    def __iter__(self):
        return iter(sorted(self.pairs))

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass
class IndexedCorrespondenceReport:
    """Outcome of checking every pair of an ``IN`` relation.

    ``relations`` maps each ``(i, i')`` pair to the correspondence relation
    found between the reductions, or ``None`` when the reductions do not
    correspond.  ``holds`` is true when *every* pair corresponds and the
    ``IN`` relation is total for both index sets — i.e. exactly when the
    hypotheses of Theorem 5 are established.
    """

    index_relation: IndexRelation
    relations: Dict[Tuple[int, int], Optional[CorrespondenceRelation]] = field(default_factory=dict)
    total: bool = False

    @property
    def holds(self) -> bool:
        """True when the hypotheses of the ICTL* correspondence theorem are established."""
        return self.total and all(relation is not None for relation in self.relations.values())

    @property
    def failing_pairs(self) -> List[Tuple[int, int]]:
        """The index pairs whose reductions do not correspond."""
        return sorted(pair for pair, relation in self.relations.items() if relation is None)


def indexed_correspondence(
    left: IndexedKripkeStructure,
    right: IndexedKripkeStructure,
    left_index: int,
    right_index: int,
    max_degree: Optional[int] = None,
) -> Optional[CorrespondenceRelation]:
    """Decide whether ``left`` and ``right`` (left_index, right_index)-correspond.

    Returns the correspondence relation between the reductions
    ``left|_{left_index}`` and ``right|_{right_index}`` (with minimal degrees),
    or ``None`` when they do not correspond.
    """
    reduced_left = reduce_to_index(left, left_index)
    reduced_right = reduce_to_index(right, right_index)
    return find_correspondence(reduced_left, reduced_right, max_degree=max_degree)


def verify_index_relation(
    left: IndexedKripkeStructure,
    right: IndexedKripkeStructure,
    index_relation: IndexRelation,
    max_degree: Optional[int] = None,
) -> IndexedCorrespondenceReport:
    """Check every pair of ``index_relation`` and collect the results."""
    report = IndexedCorrespondenceReport(index_relation=index_relation)
    report.total = index_relation.is_total_for(left.index_values, right.index_values)
    # Reduce each index of each side once, however many pairs of IN use it.
    left_indices = {left_index for left_index, _ in index_relation.pairs}
    right_indices = {right_index for _, right_index in index_relation.pairs}
    reduced_left = {index: reduce_to_index(left, index) for index in left_indices}
    reduced_right = {index: reduce_to_index(right, index) for index in right_indices}
    for left_index, right_index in index_relation:
        report.relations[(left_index, right_index)] = find_correspondence(
            reduced_left[left_index], reduced_right[right_index], max_degree=max_degree
        )
    return report


@dataclass(frozen=True)
class TransferredResult:
    """The verdict of checking a formula on the small instance, transferred to the large one."""

    formula: Formula
    holds: bool
    checked_on: str
    transferred_to: str

    def __bool__(self) -> bool:
        return self.holds


class ParameterizedVerifier:
    """The Section 5 workflow: verify a small instance, conclude for a large one.

    The verifier is constructed with a *small* indexed structure (e.g. the
    two-process token ring ``M_2``), a *large* indexed structure (e.g.
    ``M_r``), and an index relation ``IN``.  :meth:`establish` checks the
    hypotheses of the ICTL* correspondence theorem once;
    :meth:`check` then model checks closed restricted ICTL* formulas on the
    small structure only and, by Theorem 5, the verdicts carry over to the
    large structure.
    """

    def __init__(
        self,
        small: IndexedKripkeStructure,
        large: IndexedKripkeStructure,
        index_relation: IndexRelation,
        max_degree: Optional[int] = None,
    ) -> None:
        self._small = small
        self._large = large
        self._index_relation = index_relation
        self._max_degree = max_degree
        self._report: Optional[IndexedCorrespondenceReport] = None
        self._checker = ICTLStarModelChecker(small)

    @property
    def small(self) -> IndexedKripkeStructure:
        """The small instance that is actually model checked."""
        return self._small

    @property
    def large(self) -> IndexedKripkeStructure:
        """The large instance to which verdicts are transferred."""
        return self._large

    @property
    def report(self) -> Optional[IndexedCorrespondenceReport]:
        """The correspondence report, once :meth:`establish` has run."""
        return self._report

    def establish(self) -> IndexedCorrespondenceReport:
        """Establish the correspondence hypotheses; memoised across calls."""
        if self._report is None:
            self._report = verify_index_relation(
                self._small, self._large, self._index_relation, max_degree=self._max_degree
            )
        return self._report

    def check(self, formula: Formula) -> TransferredResult:
        """Model check a closed restricted ICTL* formula on the small instance and transfer the verdict.

        Raises
        ------
        CorrespondenceError
            If the correspondence could not be established — in that case the
            theorem gives no transfer and the caller must check the large
            instance directly.
        """
        assert_restricted_ictl(formula)
        report = self.establish()
        if not report.holds:
            raise CorrespondenceError(
                "the structures do not (i, i')-correspond for every pair of IN "
                "(failing pairs: %s); verdicts cannot be transferred" % report.failing_pairs
            )
        holds = self._checker.check(formula)
        return TransferredResult(
            formula=formula,
            holds=holds,
            checked_on=self._small.name or "small structure",
            transferred_to=self._large.name or "large structure",
        )

    def check_all(self, formulas: Iterable[Formula]) -> List[TransferredResult]:
        """Check a batch of formulas; see :meth:`check`."""
        return [self.check(formula) for formula in formulas]
