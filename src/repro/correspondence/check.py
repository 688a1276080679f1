"""Deciding whether two structures correspond, and with which minimal degrees.

The paper notes that its definition of correspondence "is not constructive"
and defers an algorithm to Browne, Clarke & Grumberg (1987).  This module
implements a decision procedure in the same spirit, as counter-driven
worklists in the style of Groote & Vaandrager's branching-bisimulation
algorithm (ICALP 1990):

1. number the states of each structure once, as dense ints with successor
   and predecessor tuples (memoised on the structure, which is immutable).
   A pair ``(s, s')`` becomes the int ``s·|S'| + s'``; all per-pair state
   lives in lists and a ``bytearray`` indexed by those ids, and states are
   mapped back only to build the result;
2. start from the *label-compatible* relation
   ``R₀ = {(s, s') : L(s) = L'(s')}`` — no pair outside it can ever correspond
   because of clause 2a — and count, for every pair, the partners each side
   can step to jointly and the successors left without one;
3. *prune*: remove every pair that violates clause 2b or 2c whatever its
   degree (no "step alone" partner and an unmatched successor with no pair
   either), then the pairs this breaks, to a fixpoint.  A removal updates
   only the counters of its predecessor pairs.  No correspondence inside
   ``R`` contains a pruned pair, so pruning never changes the result;
4. *settle*: assign every pair of ``R`` its *minimal degree* relative to
   ``R``, the smallest ``k`` at which clauses 2b and 2c hold when
   "corresponds with any degree" reads as membership in ``R`` and
   "corresponds with degree < k" as having settled at a smaller degree.
   Clause 2b holds from level ``min(1 + d, 1 + e)``, where ``d`` is the least
   degree of a pair ``(s, s1')`` with ``s1'`` a successor of ``s'`` (the right
   side steps alone) and ``e`` the largest degree of a pair ``(s1, s')`` over
   the successors ``s1`` of ``s`` that have no jointly-stepping partner in
   ``R`` (``e = -1`` when there is none); 2c is symmetric.  Pairs settle level
   by level from a bucket queue: a pair settling at level ``d`` notifies only
   its predecessor pairs, either satisfying their "one side steps alone"
   disjunct or decrementing their unmatched counter, and a pair whose two
   clauses are both satisfied settles at ``d + 1``.  Levels stop at
   ``max_degree``, by default ``|S| + |S'|`` (the bound used in the paper's
   Lemma 1);
5. if some pair received no degree, remove it as in step 3 and go back to
   step 3; otherwise ``R`` is the fixpoint.

Setting up costs ``O(|S|·|S'|)`` for the arrays plus
``O(|R(s)| + |R'(s')| + |R⁻¹(s)| + |R'⁻¹(s')|)`` per pair of ``R₀``.  After
that, removing a pair costs ``O((|R⁻¹(s)| + 1)·(|R'⁻¹(s')| + 1))``, the
number of its predecessor pairs, settling one costs
``O(|R⁻¹(s)| + |R'⁻¹(s')|)``, and each settle step copies two counter arrays,
``O(|S|·|S'|)``.  A plain rank iteration instead sweeps every unassigned
pair once per degree level and rescans successor products for each.
Because pruning runs first, settling rarely leaves a pair without a degree,
so most calls settle once.  When the caller requires the initial pair,
refinement stops as soon as it is removed, since later rounds only remove
pairs.

At the fixpoint the surviving pairs, annotated with their minimal degrees,
satisfy the definition by construction.  The test suite re-checks results
with :mod:`repro.correspondence.definition` and compares every degree map with
a plain level-by-level rank iteration kept there as an oracle.  Two structures
*correspond* when the fixpoint relation contains the pair of initial states
and is total for both state sets.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import StructureError
from repro.kripke.structure import KripkeStructure, State
from repro.correspondence.relation import CorrespondenceRelation

__all__ = ["find_correspondence", "structures_correspond", "minimal_degrees"]

Pair = Tuple[State, State]
LabelKey = Callable[[KripkeStructure, State], object]


def _default_label_key(structure: KripkeStructure, state: State) -> object:
    return structure.label(state)


class _Interned:
    """One structure's states numbered densely, with successors and predecessors as int tuples."""

    __slots__ = ("states", "index", "succ", "pred", "initial")

    def __init__(self, structure: KripkeStructure) -> None:
        self.states = tuple(structure.states)
        self.index = index = {state: number for number, state in enumerate(self.states)}
        number = index.__getitem__
        self.succ = tuple(
            tuple(map(number, structure.successors(state))) for state in self.states
        )
        pred: List[List[int]] = [[] for _ in self.states]
        for source, targets in enumerate(self.succ):
            for target in targets:
                pred[target].append(source)
        self.pred = tuple(map(tuple, pred))
        self.initial = index[structure.initial_state]

    def number(self, state: State) -> int:
        """The dense number of ``state``."""
        try:
            return self.index[state]
        except KeyError:
            raise StructureError("%r is not a state of this structure" % (state,)) from None


def _interned(structure: KripkeStructure) -> _Interned:
    """The interned form of ``structure``, memoised on it like its compiled form.

    Structures are immutable, and the reductions of one indexed structure are
    each compared with several others, so each is numbered once.
    """
    interned = getattr(structure, "_interned_form", None)
    if interned is None:
        interned = structure._interned_form = _Interned(structure)
    return interned


class _Candidates:
    """A candidate relation ``R`` over pair ids, with the counters both phases read.

    A pair id is ``s·|S'| + s'`` for the dense state numbers of the interned
    structures.  For every pair id, candidate or not, ``partners_right`` counts
    the successors ``s1'`` of ``s'`` with ``(s, s1') ∈ R``: it is the support
    of clause 2b's "right side steps alone" disjunct for ``(s, s')``, and it is
    zero exactly when ``s`` has no jointly-stepping partner among the
    successors of ``s'``.  ``partners_left`` is the mirror image.  For every
    candidate pair, ``unmatched_left`` counts the successors ``s1`` of ``s``
    without such a partner, and ``missing_left`` those of them with
    ``(s1, s') ∉ R`` as well; ``unmatched_right``/``missing_right`` mirror them.
    """

    __slots__ = (
        "m", "lsucc_rows", "lpred_rows", "rsucc", "rpred", "member", "pairs",
        "partners_left", "partners_right",
        "unmatched_left", "unmatched_right", "missing_left", "missing_right",
    )

    def __init__(self, left: _Interned, right: _Interned, pairs: Iterable[int]) -> None:
        n, m = len(left.states), len(right.states)
        self.m = m
        # Left states appear as the first pair id of their row, ``s·|S'|``.
        self.lsucc_rows = lsucc_rows = tuple(tuple(s1 * m for s1 in succ) for succ in left.succ)
        self.lpred_rows = lpred_rows = tuple(tuple(y * m for y in pred) for pred in left.pred)
        self.rsucc, self.rpred = rsucc, rpred = right.succ, right.pred
        self.pairs = pairs = list(pairs)
        size = n * m
        # 1: in R; 2: in R but already found to violate clause 2b or 2c.
        self.member = member = bytearray(size)
        partners_left = [0] * size
        partners_right = [0] * size
        for pair in pairs:
            member[pair] = 1
            s = pair // m
            t = pair - s * m
            row = s * m
            for x in rpred[t]:
                partners_right[row + x] += 1
            for y_row in lpred_rows[s]:
                partners_left[y_row + t] += 1
        self.partners_left, self.partners_right = partners_left, partners_right

        self.unmatched_left = unmatched_left = [0] * size
        self.unmatched_right = unmatched_right = [0] * size
        self.missing_left = missing_left = [0] * size
        self.missing_right = missing_right = [0] * size
        for pair in pairs:
            s = pair // m
            t = pair - s * m
            unmatched = missing = 0
            for s1_row in lsucc_rows[s]:
                other = s1_row + t
                if not partners_right[other]:
                    unmatched += 1
                    if not member[other]:
                        missing += 1
            unmatched_left[pair], missing_left[pair] = unmatched, missing
            unmatched = missing = 0
            row = s * m
            for t1 in rsucc[t]:
                other = row + t1
                if not partners_left[other]:
                    unmatched += 1
                    if not member[other]:
                        missing += 1
            unmatched_right[pair], missing_right[pair] = unmatched, missing

    def prune(self) -> None:
        """Remove every pair that violates clause 2b or 2c whatever the degrees, to a fixpoint.

        A pair violates clause 2b at every degree when no successor of ``s'``
        is a partner of ``s`` and some successor of ``s`` has neither a
        jointly-stepping partner nor a pair with ``s'``; such a pair cannot
        belong to any correspondence contained in ``R``.
        """
        member = self.member
        partners_left, partners_right = self.partners_left, self.partners_right
        missing_left, missing_right = self.missing_left, self.missing_right
        self._discard(
            [
                pair
                for pair in self.pairs
                if member[pair] == 1
                and not (
                    (partners_right[pair] or not missing_left[pair])
                    and (partners_left[pair] or not missing_right[pair])
                )
            ]
        )

    def restrict(self, surviving: List[int]) -> None:
        """Remove every pair not in ``surviving``, then prune what that breaks."""
        keep = bytearray(len(self.member))
        for pair in surviving:
            keep[pair] = 1
        self._discard([pair for pair in self.pairs if not keep[pair]])

    def _discard(self, stack: List[int]) -> None:
        """Remove the pairs of ``stack``, updating only the counters of their predecessor pairs."""
        m, lpred_rows, rpred, member = self.m, self.lpred_rows, self.rpred, self.member
        partners_left, partners_right = self.partners_left, self.partners_right
        unmatched_left, unmatched_right = self.unmatched_left, self.unmatched_right
        missing_left, missing_right = self.missing_left, self.missing_right
        for pair in stack:
            member[pair] = 2

        # A pair fails for good when a "steps alone" support count drops to
        # zero while its matching missing count is positive, or the other way
        # round; each update below checks the one transition it can cause.
        while stack:
            pair = stack.pop()
            member[pair] = 0
            s = pair // m
            t = pair - s * m
            row = s * m
            # (s, t) itself no longer covers s as a successor of the pairs
            # (y, t), nor t as a successor of the pairs (s, x).
            if not partners_right[pair]:
                for y_row in lpred_rows[s]:
                    other = y_row + t
                    if member[other] == 1:
                        missing_left[other] += 1
                        if not partners_right[other]:
                            member[other] = 2
                            stack.append(other)
            if not partners_left[pair]:
                for x in rpred[t]:
                    other = row + x
                    if member[other] == 1:
                        missing_right[other] += 1
                        if not partners_left[other]:
                            member[other] = 2
                            stack.append(other)
            # s loses the partner t below each predecessor x of t.
            for x in rpred[t]:
                below = row + x
                count = partners_right[below] - 1
                partners_right[below] = count
                if count:
                    continue
                if member[below] == 1 and missing_left[below]:
                    member[below] = 2
                    stack.append(below)
                absent = not member[below]
                for y_row in lpred_rows[s]:
                    other = y_row + x
                    if member[other] == 1:
                        unmatched_left[other] += 1
                        if absent:
                            missing_left[other] += 1
                            if not partners_right[other]:
                                member[other] = 2
                                stack.append(other)
            # t loses the partner s below each predecessor y of s.
            for y_row in lpred_rows[s]:
                below = y_row + t
                count = partners_left[below] - 1
                partners_left[below] = count
                if count:
                    continue
                if member[below] == 1 and missing_right[below]:
                    member[below] = 2
                    stack.append(below)
                absent = not member[below]
                for x in rpred[t]:
                    other = y_row + x
                    if member[other] == 1:
                        unmatched_right[other] += 1
                        if absent:
                            missing_right[other] += 1
                            if not partners_left[other]:
                                member[other] = 2
                                stack.append(other)
        self.pairs = [pair for pair in self.pairs if member[pair]]

    def settle(self, bound: int) -> List[List[int]]:
        """The pairs of ``R`` grouped by minimal degree relative to ``R``, up to ``bound``.

        ``levels[d]`` holds the pairs of minimal degree ``d``; pairs with no
        degree up to ``bound`` appear in no level.
        """
        m, lpred_rows, rpred = self.m, self.lpred_rows, self.rpred
        partners_left, partners_right = self.partners_left, self.partners_right
        # Settling consumes the unmatched counters, so work on copies.
        unmatched_left = self.unmatched_left[:]
        unmatched_right = self.unmatched_right[:]
        # Bit 1: clause 2b is satisfiable; bit 2: clause 2c is; 4: settled or
        # queued.  Pairs outside R start settled so nothing touches them.
        status = bytearray(b"\x04") * len(self.member)
        frontier: List[int] = []
        for pair in self.pairs:
            flags = (unmatched_left[pair] == 0) | (unmatched_right[pair] == 0) << 1
            if flags == 3:
                flags = 7
                frontier.append(pair)
            status[pair] = flags

        levels: List[List[int]] = []
        while frontier and len(levels) <= bound:
            levels.append(frontier)
            queued: List[int] = []
            for pair in frontier:
                s = pair // m
                t = pair - s * m
                row = s * m
                # Pairs (s, x) with t a successor of x: the right side steps
                # alone to this pair (clause 2b), and if t has no partner among
                # the successors of s, one of their unmatched right successors
                # is now covered (clause 2c).
                lonely = not partners_left[pair]
                for x in rpred[t]:
                    other = row + x
                    flags = status[other]
                    if flags & 4:
                        continue
                    flags |= 1
                    if lonely:
                        count = unmatched_right[other] - 1
                        unmatched_right[other] = count
                        if not count:
                            flags |= 2
                    if flags == 3:
                        flags = 7
                        queued.append(other)
                    status[other] = flags
                # Pairs (y, t) with s a successor of y: symmetric.
                lonely = not partners_right[pair]
                for y_row in lpred_rows[s]:
                    other = y_row + t
                    flags = status[other]
                    if flags & 4:
                        continue
                    flags |= 2
                    if lonely:
                        count = unmatched_left[other] - 1
                        unmatched_left[other] = count
                        if not count:
                            flags |= 1
                    if flags == 3:
                        flags = 7
                        queued.append(other)
                    status[other] = flags
            frontier = queued
        return levels


def _bound(left: _Interned, right: _Interned, max_degree: Optional[int]) -> int:
    return len(left.states) + len(right.states) if max_degree is None else max_degree


def _degree_map(left: _Interned, right: _Interned, levels: List[List[int]]) -> Dict[Pair, int]:
    m = len(right.states)
    lstates, rstates = left.states, right.states
    degrees: Dict[Pair, int] = {}
    for degree, level in enumerate(levels):
        for pair in level:
            s = pair // m
            degrees[(lstates[s], rstates[pair - s * m])] = degree
    return degrees


def minimal_degrees(
    left: KripkeStructure,
    right: KripkeStructure,
    candidate_pairs: Set[Pair],
    max_degree: Optional[int] = None,
) -> Dict[Pair, int]:
    """Compute minimal degrees for ``candidate_pairs`` relative to themselves.

    A pair receives the smallest ``k ≤ max_degree`` at which clauses 2b and 2c
    hold when "corresponds with any degree" is read as membership in
    ``candidate_pairs`` and "corresponds with degree < k" as having already
    received a smaller minimal degree.  Pairs that receive no degree are
    absent from the result.
    """
    interned_left, interned_right = _interned(left), _interned(right)
    m = len(interned_right.states)
    pair_ids = {
        interned_left.number(left_state) * m + interned_right.number(right_state)
        for left_state, right_state in candidate_pairs
    }
    levels = _Candidates(interned_left, interned_right, pair_ids).settle(
        _bound(interned_left, interned_right, max_degree)
    )
    return _degree_map(interned_left, interned_right, levels)


def _label_compatible_pairs(
    left: KripkeStructure,
    right: KripkeStructure,
    interned_left: _Interned,
    interned_right: _Interned,
    label_key: LabelKey,
) -> List[int]:
    m = len(interned_right.states)
    right_by_label: Dict[object, List[int]] = {}
    for t, right_state in enumerate(interned_right.states):
        right_by_label.setdefault(label_key(right, right_state), []).append(t)
    pair_ids: List[int] = []
    for s, left_state in enumerate(interned_left.states):
        row = s * m
        pair_ids.extend(row + t for t in right_by_label.get(label_key(left, left_state), ()))
    return pair_ids


def _covers_every_state(pair_ids: List[int], n: int, m: int) -> bool:
    covered_left = bytearray(n)
    covered_right = bytearray(m)
    for pair in pair_ids:
        s = pair // m
        covered_left[s] = covered_right[pair - s * m] = 1
    return all(covered_left) and all(covered_right)


def find_correspondence(
    left: KripkeStructure,
    right: KripkeStructure,
    max_degree: Optional[int] = None,
    require_initial: bool = True,
    require_total: bool = True,
    label_key: Optional[LabelKey] = None,
) -> Optional[CorrespondenceRelation]:
    """Compute the coarsest correspondence relation between ``left`` and ``right``.

    Returns the relation annotated with minimal degrees, or ``None`` when the
    structures do not correspond (the initial states are unrelated or, when
    ``require_total`` is set, some state of either structure corresponds to
    nothing).

    Parameters
    ----------
    max_degree:
        Optional cap on the degrees considered; defaults to ``|S| + |S'|``.
    require_initial / require_total:
        Which of the definition's global conditions must hold for the result
        to count as "the structures correspond".  With both set to ``False``
        the fixpoint relation is returned even when it is empty.
    label_key:
        Optional override for reading a state's label (used by the indexed
        correspondence to compare reduced labels).
    """
    interned_left, interned_right = _interned(left), _interned(right)
    m = len(interned_right.states)
    initial = interned_left.initial * m + interned_right.initial
    candidates = _Candidates(
        interned_left,
        interned_right,
        _label_compatible_pairs(
            left, right, interned_left, interned_right, label_key or _default_label_key
        ),
    )
    bound = _bound(interned_left, interned_right, max_degree)
    while True:
        candidates.prune()
        # Later rounds only remove pairs, so a missing initial pair is final.
        if require_initial and not candidates.member[initial]:
            return None
        levels = candidates.settle(bound)
        surviving = [pair for level in levels for pair in level]
        if len(surviving) == len(candidates.pairs):
            break
        candidates.restrict(surviving)
    if require_total and not _covers_every_state(surviving, len(interned_left.states), m):
        return None
    return CorrespondenceRelation(_degree_map(interned_left, interned_right, levels))


def structures_correspond(
    left: KripkeStructure,
    right: KripkeStructure,
    max_degree: Optional[int] = None,
    label_key: Optional[LabelKey] = None,
) -> bool:
    """Return ``True`` when the two structures correspond (Section 3 sense)."""
    return (
        find_correspondence(
            left, right, max_degree=max_degree, label_key=label_key
        )
        is not None
    )
