"""The CTL labelling core shared by the set-based fixpoint engines.

:class:`FixpointCTLChecker` holds the Clarke–Emerson–Sistla recursion once:
the per-formula memo, bottom-up batch labelling, the reduction of every CTL
operator to ``EX``/``EU``/``EG``, index-quantifier instantiation and the
fairness plumbing.  A set is any value supporting ``& | ^ ~``, complemented
against the engine's universe (``universe & ~x``): ints in
:mod:`repro.mc.bitset`, :class:`~repro.bdd.BDDFunction` handles in
:mod:`repro.mc.symbolic`.  Each engine supplies ``_atom``, ``_preimage``,
``_decode``, its ``_eu``/``_eg``/``_fair_eg`` fixpoints and ``check``, and
optionally ``_index_values`` (the index set quantifiers are instantiated
over; by default they are rejected).  The naive checker
(:mod:`repro.mc.ctl`) stays separate: it is the differential oracle.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple, Union

from repro.errors import FragmentError
from repro.kripke.structure import KripkeStructure, State
from repro.logic.ast import (
    And,
    Atom,
    ExactlyOne,
    Exists,
    FalseLiteral,
    Finally,
    ForAll,
    Formula,
    Globally,
    Iff,
    Implies,
    IndexExists,
    IndexForall,
    IndexedAtom,
    Next,
    Not,
    Or,
    Release,
    TrueLiteral,
    Until,
    WeakUntil,
)
from repro.logic.transform import instantiate_quantifiers
from repro.mc.fairness import FairnessConstraint, normalize_fairness

__all__ = ["FixpointCTLChecker"]

_ATOMIC = (TrueLiteral, FalseLiteral, Atom, IndexedAtom, ExactlyOne)


class FixpointCTLChecker:
    """Labelling-algorithm CTL model checker over an engine's own set type.

    ``model`` is the engine's structure (compiled or encoded), ``universe``
    its set of all states.  Satisfaction sets are memoised per formula, and
    fairness conditions are decided by a plain checker of the same engine
    sharing ``model``.
    """

    def __init__(self, model: Any, universe: Any, fairness: Optional[FairnessConstraint]) -> None:
        self._model = model
        self._universe = universe
        self._fairness = normalize_fairness(fairness)
        self._cache: Dict[Formula, Any] = {}
        self._conditions_memo: Optional[Tuple[Any, ...]] = None
        self._fair_memo: Any = None

    @property
    def structure(self) -> Optional[KripkeStructure]:
        """The explicit source structure (``None`` for a direct encoding)."""
        return self._model.source

    @property
    def fairness(self) -> Optional[FairnessConstraint]:
        """The fairness constraint the path quantifiers respect (``None``: all paths)."""
        return self._fairness

    # -- engine hooks ------------------------------------------------------------

    def _index_values(self) -> Optional[Iterable[int]]:
        """The index set quantifiers range over (``None``: not an indexed model)."""
        return None

    # -- public API ----------------------------------------------------------

    def satisfaction_set(self, formula: Formula) -> FrozenSet[State]:
        """Return the set of states satisfying the CTL state formula ``formula``."""
        return self._decode(self._satisfaction(formula))

    def check_batch(
        self,
        formulas: Union[Mapping[str, Formula], Iterable[Formula]],
        state: Optional[State] = None,
    ) -> Dict:
        """Check a whole family of formulas against the one shared model.

        With a mapping the result is keyed by the mapping's names; with a
        plain iterable it is keyed by the formulas themselves.  The batch is
        labelled bottom-up first (:meth:`label_batch`): every distinct state
        sub-formula across the *whole* family is computed exactly once into
        the shared sub-formula → set table, so formulas sharing structure
        never recompute it and deep formulas never recurse.
        """
        if not isinstance(formulas, Mapping):
            formulas = {formula: formula for formula in formulas}
        self.label_batch(formulas.values())
        return {name: self.check(formula, state) for name, formula in formulas.items()}

    def label_batch(self, formulas: Iterable[Formula]) -> Dict[Formula, Any]:
        """Label every distinct state sub-formula of ``formulas`` bottom-up.

        Walks each formula's state sub-formulas in post-order (children of a
        path quantifier are the operands of its temporal operator), dedupes
        them across the batch, and fills the memoised sub-formula → set
        table children-first, so each :meth:`_compute` call finds its
        operands already cached — one table entry per distinct sub-formula
        for the whole family, and no deep recursion on tall formulas.
        Returns the table (shared with :meth:`_satisfaction`).
        """
        cache = self._cache
        for formula in formulas:
            stack: List[Tuple[Formula, bool]] = [(formula, False)]
            while stack:
                node, expanded = stack.pop()
                if node in cache:
                    continue
                if expanded:
                    cache[node] = self._label(node)
                    continue
                stack.append((node, True))
                for child in self._state_children(node):
                    if child not in cache:
                        stack.append((child, False))
        return cache

    @staticmethod
    def _state_children(formula: Formula) -> Tuple[Formula, ...]:
        """The direct *state-formula* children (descending through path operators)."""
        if isinstance(formula, Not):
            return (formula.operand,)
        if isinstance(formula, (And, Or, Implies, Iff)):
            return (formula.left, formula.right)
        if isinstance(formula, (Exists, ForAll)):
            path = formula.path
            if isinstance(path, (Next, Finally, Globally)):
                return (path.operand,)
            if isinstance(path, (Until, Release, WeakUntil)):
                return (path.left, path.right)
        return ()

    # -- recursive computation -------------------------------------------------

    def _satisfaction(self, formula: Formula) -> Any:
        """The memoised satisfaction set of ``formula``."""
        cached = self._cache.get(formula)
        if cached is None:
            cached = self._cache[formula] = self._label(formula)
        return cached

    def _label(self, formula: Formula) -> Any:
        """Compute one memo entry (engines may wrap this in a span)."""
        return self._compute(formula)

    def _complement(self, operand: Any) -> Any:
        """The complement relative to the state set ``S``."""
        return self._universe & ~operand

    def _compute(self, formula: Formula) -> Any:
        sat = self._satisfaction
        if isinstance(formula, _ATOMIC):
            return self._atom(formula)
        if isinstance(formula, Not):
            return self._complement(sat(formula.operand))
        if isinstance(formula, And):
            return sat(formula.left) & sat(formula.right)
        if isinstance(formula, Or):
            return sat(formula.left) | sat(formula.right)
        if isinstance(formula, Implies):
            return self._complement(sat(formula.left)) | sat(formula.right)
        if isinstance(formula, Iff):
            return self._complement(sat(formula.left) ^ sat(formula.right))
        if isinstance(formula, (IndexExists, IndexForall)):
            index_values = self._index_values()
            if index_values is None:
                raise FragmentError(
                    "this CTL checker can only instantiate index quantifiers on "
                    "an indexed encoding; instantiate them with repro.mc.indexed "
                    "first (formula: %s)" % formula
                )
            return sat(instantiate_quantifiers(formula, index_values))
        if isinstance(formula, Exists):
            return self._compute_exists(formula.path)
        if isinstance(formula, ForAll):
            return self._compute_forall(formula.path)
        raise FragmentError("formula is not a CTL state formula: %s" % formula)

    def _compute_exists(self, path: Formula) -> Any:
        sat = self._satisfaction
        if isinstance(path, Next):
            return self._preimage(self._constrain(sat(path.operand)))
        if isinstance(path, Finally):
            return self._eu(self._universe, self._constrain(sat(path.operand)))
        if isinstance(path, Globally):
            return self._eg_op(sat(path.operand))
        if isinstance(path, Until):
            return self._eu(sat(path.left), self._constrain(sat(path.right)))
        if isinstance(path, Release):
            # E[f R g]  ≡  ¬A[¬f U ¬g]
            return self._complement(self._compute_forall(Until(Not(path.left), Not(path.right))))
        if isinstance(path, WeakUntil):
            # E[f W g]  ≡  E[f U g] ∨ EG f
            left = sat(path.left)
            return self._eu(left, self._constrain(sat(path.right))) | self._eg_op(left)
        raise FragmentError(
            "E must be applied to a single temporal operator over state formulas "
            "for CTL checking; got E(%s)" % path
        )

    def _compute_forall(self, path: Formula) -> Any:
        sat = self._satisfaction
        complement = self._complement
        if isinstance(path, Next):
            # AX f ≡ ¬EX ¬f
            return complement(self._preimage(self._constrain(complement(sat(path.operand)))))
        if isinstance(path, Finally):
            # AF f ≡ ¬EG ¬f
            return complement(self._eg_op(complement(sat(path.operand))))
        if isinstance(path, Globally):
            # AG f ≡ ¬EF ¬f
            return complement(
                self._eu(self._universe, self._constrain(complement(sat(path.operand))))
            )
        if isinstance(path, (Until, WeakUntil)):
            # A[f W g] ≡ ¬E[¬g U (¬f ∧ ¬g)]
            # A[f U g] ≡ ¬( E[¬g U (¬f ∧ ¬g)] ∨ EG ¬g )
            not_f = complement(sat(path.left))
            not_g = complement(sat(path.right))
            bad = self._eu(not_g, self._constrain(not_f & not_g))
            if isinstance(path, Until):
                bad = bad | self._eg_op(not_g)
            return complement(bad)
        if isinstance(path, Release):
            # A[f R g] ≡ ¬E[¬f U ¬g]
            return complement(self._compute_exists(Until(Not(path.left), Not(path.right))))
        raise FragmentError(
            "A must be applied to a single temporal operator over state formulas "
            "for CTL checking; got A(%s)" % path
        )

    # -- fairness ----------------------------------------------------------------

    def fair_states(self) -> FrozenSet[State]:
        """The fair states (starting at least one fair path), decoded into a frozenset."""
        return self._decode(self._fair())

    def fairness_condition_sets(self) -> Tuple[FrozenSet[State], ...]:
        """The fairness-condition satisfaction sets, decoded into frozensets."""
        return tuple(self._decode(value) for value in self._conditions())

    def _fair(self) -> Any:
        """The fair states as a set (the universe when unconstrained)."""
        if self._fairness is None:
            return self._universe
        if self._fair_memo is None:
            self._fair_memo = self._fair_eg(self._universe)
        return self._fair_memo

    def _conditions(self) -> Tuple[Any, ...]:
        """The (plain-semantics) satisfaction sets of the fairness conditions."""
        if self._fairness is None:
            return ()
        if self._conditions_memo is None:
            # Conditions are decided under the unconstrained semantics by a
            # plain sub-checker sharing this instance's model.
            plain = type(self)(self._model, validate_structure=False)
            self._conditions_memo = tuple(
                plain._satisfaction(condition) for condition in self._fairness.conditions
            )
        return self._conditions_memo

    def _constrain(self, target: Any) -> Any:
        """Restrict an ``EX``/``EU`` target to the fair states (no-op when unconstrained)."""
        if self._fairness is None:
            return target
        return target & self._fair()

    def _eg_op(self, operand: Any) -> Any:
        """Dispatch ``EG`` to the plain or the fairness-constrained fixpoint."""
        if self._fairness is None:
            return self._eg(operand)
        return self._fair_eg(operand)
