"""CTL model checking over compiled bitset state sets.

:class:`BitsetCTLModelChecker` is a drop-in replacement for
:class:`repro.mc.ctl.CTLModelChecker` that runs the Clarke–Emerson–Sistla
labelling algorithm entirely on int bitmasks produced by
:class:`repro.kripke.compiled.CompiledKripkeStructure`:

* boolean connectives are single int operations (``&``, ``|``, complement
  against the all-states mask);
* ``E[f U g]`` is a predecessor-propagation worklist over adjacency lists —
  each transition is inspected at most once;
* ``EG f`` is the reverse-pruning fixpoint: per-state counts of successors
  still inside the candidate set are maintained and states are pruned when
  their count reaches zero, again touching each transition at most once.

The labelling recursion, the memo and the fairness plumbing are the shared
:class:`repro.mc.fixpoint.FixpointCTLChecker`; this module supplies only the
bitmask representation and the worklist fixpoints.  The naive checker
remains the differential-testing oracle — see
``tests/property/test_property_bitset.py`` — and is still available through
``engine="naive"`` wherever the library accepts an engine choice.

Fairness-constrained checking mirrors :class:`repro.mc.ctl.CTLModelChecker`:
``EX``/``EU`` targets are masked with the fair states and fair ``EG`` runs
the SCC-restricted fixpoint (Tarjan over the indices inside the operand
mask, keeping the non-trivial components whose mask intersects every
fairness mask).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Union

from repro.kripke.compiled import (
    CompiledKripkeStructure,
    bits_of,
    compile_structure,
    popcount,
)
from repro.kripke.structure import KripkeStructure, State
from repro.kripke.validation import assert_total
from repro.logic.ast import Formula
from repro.mc.fairness import FairnessConstraint
from repro.mc.fixpoint import FixpointCTLChecker
from repro.mc.scc import fair_components
from repro.obs import metrics as _metrics
from repro.obs.trace import span as _obs_span
from repro.runtime.limits import checkpoint as _checkpoint

__all__ = ["BitsetCTLModelChecker", "satisfaction_set", "check"]


class BitsetCTLModelChecker(FixpointCTLChecker):
    """Labelling-algorithm CTL model checker running on compiled bitsets.

    Accepts either a plain :class:`KripkeStructure` (compiled on the spot) or
    an already-:class:`CompiledKripkeStructure`, so a whole family of formulas
    can share one compilation.  Satisfaction masks are memoised per formula,
    exactly like the naive checker memoises satisfaction sets.
    """

    def __init__(
        self,
        structure: Union[KripkeStructure, CompiledKripkeStructure],
        validate_structure: bool = True,
        fairness: Optional[FairnessConstraint] = None,
    ) -> None:
        compiled = compile_structure(structure)
        if validate_structure and not compiled.is_total():
            assert_total(compiled.source)
        super().__init__(compiled, compiled.all_mask, fairness)

    @property
    def compiled(self) -> CompiledKripkeStructure:
        """The compiled form shared by every check against this instance."""
        return self._model

    # -- public API ----------------------------------------------------------

    def satisfaction_mask(self, formula: Formula) -> int:
        """Return the satisfaction set of ``formula`` as a bitmask."""
        return self._satisfaction(formula)

    def check(self, formula: Formula, state: Optional[State] = None) -> bool:
        """Decide ``M, state ⊨ formula`` (default state: the initial state)."""
        compiled = self._model
        index = compiled.initial_index if state is None else compiled.index_of(state)
        with _obs_span("mc.check", engine="bitset"):
            mask = self._satisfaction(formula)
        _metrics.counter("mc.checks", engine="bitset").inc()
        return bool(mask >> index & 1)

    # -- set representation ------------------------------------------------------

    def _atom(self, formula: Formula) -> int:
        return self._model.atom_mask(formula)

    def _preimage(self, target: int) -> int:
        return self._model.preimage(target)

    def _decode(self, mask: int) -> FrozenSet[State]:
        return self._model.states_of(mask)

    # -- fixpoint primitives -----------------------------------------------------

    def _eu(self, left: int, right: int) -> int:
        """Least fixpoint for ``E[left U right]`` by predecessor propagation.

        Backwards reachability from ``right`` through ``left``: every state is
        enqueued at most once and its predecessor list scanned at most once,
        so the whole fixpoint is ``O(|S| + |R|)`` int operations.
        """
        predecessors_of = self._model.predecessors_of
        with _obs_span("bitset.eu") as sp:
            satisfied = right
            frontier = list(bits_of(right))
            pops = 0
            while frontier:
                index = frontier.pop()
                pops += 1
                if not pops & 255:
                    _checkpoint("bitset.worklist")
                for pred in predecessors_of(index):
                    bit = 1 << pred
                    if not satisfied & bit and left & bit:
                        satisfied |= bit
                        frontier.append(pred)
            sp.set(pops=pops, satisfied=popcount(satisfied))
        _metrics.counter("bitset.worklist.pops", op="eu").inc(pops)
        return satisfied

    def _eg(self, operand: int) -> int:
        """Greatest fixpoint for ``EG operand`` by reverse pruning.

        Each candidate state keeps a count of successors still inside the
        candidate set; states whose count drops to zero are pruned and their
        predecessors' counts decremented, touching every transition at most
        once instead of re-scanning the whole set per iteration.
        """
        compiled = self._model
        successor_mask = compiled.successor_mask
        predecessors_of = compiled.predecessors_of
        with _obs_span("bitset.eg") as sp:
            current = operand
            counts: Dict[int, int] = {}
            doomed: List[int] = []
            for index in bits_of(operand):
                alive = popcount(successor_mask(index) & operand)
                counts[index] = alive
                if not alive:
                    doomed.append(index)
            pops = 0
            while doomed:
                index = doomed.pop()
                pops += 1
                if not pops & 255:
                    _checkpoint("bitset.worklist")
                current &= ~(1 << index)
                for pred in predecessors_of(index):
                    remaining = counts.get(pred)
                    if remaining is None or not current >> pred & 1:
                        continue
                    remaining -= 1
                    counts[pred] = remaining
                    if not remaining:
                        doomed.append(pred)
            sp.set(pops=pops, satisfied=popcount(current))
        _metrics.counter("bitset.worklist.pops", op="eg").inc(pops)
        return current

    def _fair_eg(self, operand: int) -> int:
        """SCC-restricted greatest fixpoint for fair ``EG operand``.

        Tarjan runs over the state indices inside the operand mask with the
        adjacency filtered to it; the non-trivial components whose index mask
        meets every fairness mask form the hub, and the result is the
        backwards ``EU`` reachability of the hub through the operand.
        """
        successors_of = self._model.successors_of
        with _obs_span("bitset.fair_eg") as sp:
            indices = list(bits_of(operand))
            restricted = {
                index: [
                    target for target in successors_of(index) if operand >> target & 1
                ]
                for index in indices
            }
            condition_index_sets = [
                frozenset(bits_of(mask & operand)) for mask in self._conditions()
            ]
            hub = 0
            components = 0
            for component in fair_components(indices, restricted, condition_index_sets):
                components += 1
                for index in component:
                    hub |= 1 << index
            sp.set(
                candidates=len(indices),
                fair_components=components,
                hub=popcount(hub),
            )
        return self._eu(operand, hub)


def satisfaction_set(
    structure: Union[KripkeStructure, CompiledKripkeStructure],
    formula: Formula,
    fairness: Optional[FairnessConstraint] = None,
) -> FrozenSet[State]:
    """One-shot helper: the bitset-engine satisfaction set of ``formula``."""
    return BitsetCTLModelChecker(structure, fairness=fairness).satisfaction_set(formula)


def check(
    structure: Union[KripkeStructure, CompiledKripkeStructure],
    formula: Formula,
    state: Optional[State] = None,
    fairness: Optional[FairnessConstraint] = None,
) -> bool:
    """One-shot helper: decide ``structure, state ⊨ formula`` with the bitset engine."""
    return BitsetCTLModelChecker(structure, fairness=fairness).check(formula, state)
