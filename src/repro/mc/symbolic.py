"""Symbolic CTL model checking over BDD-encoded state sets.

:class:`SymbolicCTLModelChecker` is the third engine next to the naive
frozenset checker and the compiled bitset checker: it computes EX/EU/EG as
fixpoints over :mod:`repro.bdd` decision diagrams, so a satisfaction set is a
boolean *function* of the state bits rather than an enumeration of states.
On explicit structures it is a drop-in replacement (``engine="bdd"``
anywhere an engine is accepted); its real payoff is checking
:class:`~repro.kripke.symbolic.SymbolicKripkeStructure` encodings built
directly from a process family, whose explicit product graph would be too
large to construct — see
:func:`repro.systems.token_ring.symbolic_token_ring` and the extended
explosion experiment.

The fixpoints drive the clustered pre-image of :mod:`repro.kripke.symbolic`
with the cheapest set that makes progress:

* ``EX f``   — one clustered pre-image;
* ``E[f U g]`` — least fixpoint iterated on the frontier: each round's
  pre-image only processes the states added in the previous round;
* ``EG f``  — the classic greatest fixpoint ``νZ. f ∧ EX Z``, *deliberately*
  iterated on the full (slowly shrinking) set: successive rounds re-hit
  almost every relational-product subproblem in the bounded caches, which
  makes the iteration incremental — a removal-propagation variant driving
  the constrained pre-image was measured 5× slower here (see :meth:`_eg`).

Under a :class:`~repro.mc.fairness.FairnessConstraint` the fair ``EG`` is
the Emerson–Lei nested μ/ν fixpoint

    ``νZ. f ∧ ⋀_i EX E[Z U (Z ∧ F_i)]``

— one inner (frontier) ``EU`` round, confined to the current ``Z``, per
fairness condition ``F_i`` per outer iteration — and ``EX``/``EU`` targets
are conjoined with the fair states (``fair = fair-EG true``).  This is the
one fair-``EG`` formulation that never enumerates states, so
fairness-constrained liveness stays checkable on ring sizes only the
symbolic encoding reaches.

The labelling recursion, the memo and the fairness plumbing are the shared
:class:`repro.mc.fixpoint.FixpointCTLChecker`; this module supplies only the
BDD-handle representation and the fixpoints above.  Every memoised
satisfaction set is held through a reference-counted
:class:`~repro.bdd.BDDFunction` handle, as is all fixpoint state, so the
manager's garbage collector and dynamic reordering can run at any operation
boundary without invalidating a checker.

Unlike the explicit checkers, the symbolic checker also *instantiates index
quantifiers itself* when the underlying encoding knows its index set: family
encodings have no explicit :class:`~repro.kripke.indexed.IndexedKripkeStructure`
to hand to :class:`repro.mc.indexed.ICTLStarModelChecker`, so the Section 5
properties can be checked directly against the symbolic ring.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional, Union

from repro.bdd import BDDFunction
from repro.errors import ValidationError
from repro.kripke.structure import KripkeStructure, State
from repro.kripke.symbolic import SymbolicKripkeStructure, symbolic_structure
from repro.kripke.validation import assert_total
from repro.logic.ast import Formula
from repro.mc.fairness import FairnessConstraint
from repro.mc.fixpoint import FixpointCTLChecker
from repro.obs import metrics as _metrics
from repro.obs.progress import heartbeat as _heartbeat
from repro.obs.trace import is_enabled as _tracing
from repro.obs.trace import span as _span
from repro.runtime.limits import checkpoint as _checkpoint

__all__ = ["SymbolicCTLModelChecker", "satisfaction_set", "check"]


class SymbolicCTLModelChecker(FixpointCTLChecker):
    """Fixpoint CTL model checker running on binary decision diagrams.

    Accepts either a plain :class:`KripkeStructure` (encoded on the spot,
    with the encoding memoised on the structure) or an already-encoded
    :class:`SymbolicKripkeStructure`, so a whole family of formulas shares
    one encoding.  Satisfaction BDDs are memoised per formula, exactly like
    the other engines memoise their satisfaction sets/masks.
    """

    def __init__(
        self,
        structure: Union[KripkeStructure, SymbolicKripkeStructure],
        validate_structure: bool = True,
        fairness: Optional[FairnessConstraint] = None,
    ) -> None:
        symbolic = symbolic_structure(structure)
        if validate_structure and not symbolic.is_total():
            if symbolic.source is not None:
                assert_total(symbolic.source)
            raise ValidationError(
                "the symbolic transition relation is not total on its state set"
            )
        super().__init__(symbolic, symbolic.function(symbolic.domain), fairness)

    @property
    def symbolic(self) -> SymbolicKripkeStructure:
        """The BDD encoding shared by every check against this instance."""
        return self._model

    # -- public API ----------------------------------------------------------

    def satisfaction_fn(self, formula: Formula) -> BDDFunction:
        """The satisfaction set of ``formula`` as a refcounted handle."""
        return self._satisfaction(formula)

    def satisfaction_node(self, formula: Formula) -> int:
        """Return the satisfaction set of ``formula`` as a raw BDD edge id."""
        return self._satisfaction(formula).node

    def satisfy_count(self, formula: Formula) -> int:
        """The number of states satisfying ``formula``, by BDD satisfy-count."""
        return self._model.count(self.satisfaction_node(formula))

    def check(self, formula: Formula, state: Optional[State] = None) -> bool:
        """Decide ``M, state ⊨ formula`` (default state: the initial state)."""
        symbolic = self._model
        with _span("mc.check", engine="bdd"):
            node = self.satisfaction_node(formula)
            if state is None:
                verdict = symbolic.manager.apply_and(node, symbolic.initial) != 0
            else:
                verdict = symbolic.holds_at(node, state)
        _metrics.counter("mc.checks", engine="bdd").inc()
        symbolic.manager.publish_metrics(engine="bdd")
        return verdict

    # -- set representation ------------------------------------------------------

    def _atom(self, formula: Formula) -> BDDFunction:
        return self._model.function(self._model.atom_node(formula))

    def _preimage(self, target: BDDFunction) -> BDDFunction:
        return self._model.preimage_fn(target)

    def _decode(self, value: BDDFunction) -> FrozenSet[State]:
        return self._model.states_of(value.node)

    def _index_values(self) -> Optional[Iterable[int]]:
        return self._model.index_values

    def _label(self, formula: Formula) -> BDDFunction:
        with _span("bdd.satisfaction") as sp:
            if _tracing():
                sp.set(formula=str(formula)[:120])
            return self._compute(formula)

    # -- fixpoint primitives -----------------------------------------------------

    def _eu(self, left: BDDFunction, right: BDDFunction) -> BDDFunction:
        """Least fixpoint for ``E[left U right]``, iterated on the frontier.

        A state enters the fixpoint in round ``k`` only through a successor
        added in round ``k - 1``, so each round's pre-image is taken of the
        *newly added* states instead of the whole accumulated set.
        """
        symbolic = self._model
        with _span("bdd.fixpoint.eu") as sp:
            # Frontier node sizes are only sampled when tracing: counting
            # BDD nodes walks the graph, which the disabled fast path
            # must not pay.
            trace_on = _tracing()
            frontier_nodes = []
            satisfied = right
            frontier = right
            rounds = 0
            while not frontier.is_false:
                rounds += 1
                _checkpoint("bdd.fixpoint")
                if trace_on:
                    frontier_nodes.append(symbolic.manager.node_count(frontier.node))
                reached = left & symbolic.preimage_fn(frontier)
                frontier = reached & ~satisfied
                satisfied = satisfied | frontier
            sp.set(rounds=rounds, frontier_nodes=frontier_nodes)
        _metrics.counter("mc.fixpoint.rounds", engine="bdd", op="eu").inc(rounds)
        _metrics.histogram("mc.fixpoint.iterations", engine="bdd", op="eu").observe(
            rounds
        )
        return satisfied

    def _eg(self, operand: BDDFunction) -> BDDFunction:
        """Greatest fixpoint for ``EG operand``: ``νZ. operand ∧ EX Z``.

        Iterated on the full candidate set *by design*: the set shrinks
        slowly between rounds, so virtually every relational-product
        subproblem of round ``k`` is a cache hit in round ``k + 1`` — the
        bounded caches (with oldest-half eviction) make the classic
        iteration incremental.  A removal-propagation variant driving the
        constrained pre-image was measured 5× slower here: its per-round
        frontier targets are fresh BDDs that defeat exactly that reuse.
        """
        symbolic = self._model
        with _span("bdd.fixpoint.eg") as sp:
            trace_on = _tracing()
            current = operand
            rounds = 0
            while True:
                rounds += 1
                _checkpoint("bdd.fixpoint")
                if trace_on:
                    sp.set(rounds=rounds, nodes=symbolic.manager.node_count(current.node))
                refined = current & symbolic.preimage_fn(current)
                if refined == current:
                    break
                current = refined
            sp.set(rounds=rounds)
        _metrics.counter("mc.fixpoint.rounds", engine="bdd", op="eg").inc(rounds)
        _metrics.histogram("mc.fixpoint.iterations", engine="bdd", op="eg").observe(
            rounds
        )
        return current

    def _fair_eg(self, operand: BDDFunction) -> BDDFunction:
        """Emerson–Lei fixpoint for fair ``EG operand``.

        ``νZ. operand ∧ ⋀_i EX E[Z U (Z ∧ F_i)]`` — each outer round shrinks
        ``Z`` to the states that can, for every fairness condition, stay
        inside ``Z`` until hitting the condition *and* ``Z`` again; the
        fixpoint is exactly the start of some fair ``operand``-path.  Two
        standard accelerations keep the nested fixpoint tractable on large
        encodings: the iteration starts from the plain ``EG`` (every fair
        ``operand``-path is in particular an infinite one, and the plain
        greatest fixpoint is far cheaper), and the inner until is confined
        to the current ``Z`` (a fair path's suffix is fair, so the true
        fixpoint survives the stronger condition while the inner fixpoints
        stay small).
        """
        symbolic = self._model
        with _span("bdd.fixpoint.fair_eg", conditions=len(self._fairness or ())) as sp:
            condition_fns = self._conditions()
            current = self._eg(operand)
            rounds = 0
            result = None
            while result is None:
                rounds += 1
                _checkpoint("bdd.fixpoint")
                _heartbeat("bdd", fixpoint="fair_eg", round=rounds)
                refined = current
                for condition in condition_fns:
                    target = current & condition
                    refined = refined & symbolic.preimage_fn(self._eu(current, target))
                    if refined.is_false:
                        result = refined
                        break
                if result is None:
                    if refined == current:
                        result = current
                    else:
                        current = refined
            sp.set(rounds=rounds)
        _metrics.counter("mc.fixpoint.rounds", engine="bdd", op="fair_eg").inc(rounds)
        _metrics.histogram(
            "mc.fixpoint.iterations", engine="bdd", op="fair_eg"
        ).observe(rounds)
        return result


def satisfaction_set(
    structure: Union[KripkeStructure, SymbolicKripkeStructure],
    formula: Formula,
    fairness: Optional[FairnessConstraint] = None,
) -> FrozenSet[State]:
    """One-shot helper: the symbolic-engine satisfaction set of ``formula``."""
    return SymbolicCTLModelChecker(structure, fairness=fairness).satisfaction_set(formula)


def check(
    structure: Union[KripkeStructure, SymbolicKripkeStructure],
    formula: Formula,
    state: Optional[State] = None,
    fairness: Optional[FairnessConstraint] = None,
) -> bool:
    """One-shot helper: decide ``structure, state ⊨ formula`` with the BDD engine."""
    return SymbolicCTLModelChecker(structure, fairness=fairness).check(formula, state)
