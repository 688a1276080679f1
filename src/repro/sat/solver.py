"""A CDCL SAT solver in pure Python (MiniSat lineage).

The solver implements the standard modern architecture:

* **two-watched-literal propagation with blockers** — each clause watches two
  of its literals; the watch lists are flat interleaved arrays of
  ``blocker, clause`` pairs, so a clause whose cached blocker literal is
  already true is skipped without ever dereferencing the clause body, and
  only clauses watching a literal that just became false are visited at all;
* **first-UIP conflict analysis** — every conflict is resolved backwards
  along the implication graph to the first unique implication point, the
  learned clause is minimized by self-subsumption against the reason graph,
  and the solver backjumps (not backtracks) to the second-highest decision
  level in the clause;
* **LBD-aware clause learning with database reduction** — every learned
  clause is tagged with its literal-block distance (LBD, the number of
  distinct decision levels it spans — "glue"); when the learnt database
  outgrows its budget, binary, reason-locked and low-LBD ("glue") clauses
  are kept and the worst half of the rest (high LBD, low activity) is
  deleted.  A clause revisited during conflict analysis has its LBD
  re-measured and keeps the minimum;
* **on-the-fly subsumption** — when a freshly minimized learnt clause
  subsumes the conflicting clause it was derived from, the conflict clause
  is dropped from the database (and the learnt clause promoted to a problem
  clause when the subsumed clause was one);
* **inprocessing** (:meth:`Solver.inprocess`, also auto-triggered every few
  thousand conflicts) — top-level simplification, signature-filtered
  backward subsumption and self-subsumption strengthening, and bounded
  vivification (probing each clause's literals under unit propagation to
  shorten it);
* **VSIDS branching with phase saving** — variable activities are bumped
  during analysis and decayed per conflict; decisions pick the most active
  unassigned variable from an indexed max-heap and re-use the polarity the
  variable last had (phase saving), which preserves progress across
  restarts;
* **Luby restarts** — search is abandoned and restarted from decision level
  zero on the reluctant-doubling schedule, keeping all learned clauses;
* **incremental solving under assumptions** — :meth:`solve` takes a list of
  assumption literals decided before any free decision; clauses may be added
  between calls and everything learned in one call speeds up the next.
  After an UNSAT answer under assumptions, :meth:`unsat_core` names the
  subset of the assumptions that the refutation actually used (the
  ``analyze_final`` walk of MiniSat).  This is the interface the SAT-based
  model checkers drive: the bounded model checker issues one
  ``solve([¬P@k])`` per bound, and the IC3 engine issues relative-induction
  queries whose cores seed cube generalization.

Literals use the DIMACS convention of :mod:`repro.sat.cnf` (positive ints
are variables, negation is arithmetic negation), and the solver exposes the
same ``new_var`` / ``add_clause`` sink protocol as :class:`repro.sat.cnf.CNF`
so Tseitin encodings can stream straight into it.

Data layout (MiniSat's, adapted to Python lists): the truth values and the
watch lists are indexed by the literal itself.  Variable ``v`` lives at
slot ``v`` and its negation ``-v`` at slot ``len - v``, which Python's
negative indexing reaches directly, so ``values[lit]`` is ``+1`` (true),
``-1`` (false) or ``0`` (unassigned) with no ``abs``, sign test or call —
and ``values[-lit] == -values[lit]`` always.  The middle of each list is
spare capacity, doubled by :meth:`Solver.new_var` when the two halves
would meet.  Levels, reasons, saved phases, activities and the VSIDS heap
positions stay per variable; a heap position of ``-1`` means "not in the
heap".  Propagation, analysis and backtracking inline their assignment,
activity-bump and heap updates, so the hot loops make no per-literal
method calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import repro.sat.sanitize as _sanitize
from repro.obs import metrics as _metrics
from repro.obs.trace import span as _span
from repro.runtime.limits import checkpoint as _checkpoint
from repro.sat.cnf import ClauseSink, SatError
from repro.sat.drat import ProofLog

__all__ = ["Solver", "SolverStats", "luby"]


def luby(index: int, base: int = 1) -> int:
    """The reluctant-doubling (Luby) sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 …

    ``index`` is zero-based; the result is multiplied by ``base``.
    """
    # Find the finite subsequence containing `index` and its position in it.
    size, sequence = 1, 0
    while size < index + 1:
        sequence += 1
        size = 2 * size + 1
    while size - 1 != index:
        size = (size - 1) >> 1
        sequence -= 1
        index = index % size
    return base * (1 << sequence)


@dataclass
class SolverStats:
    """Cumulative search counters (exposed via ``repro-mc --profile``)."""

    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    learned_clauses: int = 0
    deleted_clauses: int = 0
    solve_calls: int = 0
    subsumed_clauses: int = 0
    strengthened_clauses: int = 0
    inprocessings: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Flatten into a JSON-serialisable dictionary."""
        return {
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "restarts": self.restarts,
            "learned_clauses": self.learned_clauses,
            "deleted_clauses": self.deleted_clauses,
            "solve_calls": self.solve_calls,
            "subsumed_clauses": self.subsumed_clauses,
            "strengthened_clauses": self.strengthened_clauses,
            "inprocessings": self.inprocessings,
        }

    def accumulate(self, other: "SolverStats") -> None:
        """Add another stats record into this one (for multi-solver aggregation)."""
        self.conflicts += other.conflicts
        self.decisions += other.decisions
        self.propagations += other.propagations
        self.restarts += other.restarts
        self.learned_clauses += other.learned_clauses
        self.deleted_clauses += other.deleted_clauses
        self.solve_calls += other.solve_calls
        self.subsumed_clauses += other.subsumed_clauses
        self.strengthened_clauses += other.strengthened_clauses
        self.inprocessings += other.inprocessings


class _Clause:
    """A clause of the database; ``lits[0]`` and ``lits[1]`` are watched.

    ``lbd`` is the literal-block distance measured when the clause was
    learned (lowered whenever a re-measure during conflict analysis comes
    out smaller); ``removed`` marks the clause as logically deleted — watch
    lists purge such entries lazily during propagation.
    """

    __slots__ = ("lits", "learnt", "activity", "lbd", "removed")

    def __init__(self, lits: List[int], learnt: bool, lbd: int = 0) -> None:
        self.lits = lits
        self.learnt = learnt
        self.activity = 0.0
        self.lbd = lbd
        self.removed = False


class _VarOrder:
    """Indexed max-heap over variable activities (the VSIDS decision order).

    ``_position[var]`` is the variable's index in ``_heap``, or ``-1`` when
    it is not in the heap; slot 0 (no variable) is always ``-1``.
    """

    __slots__ = ("_heap", "_position", "_activity")

    def __init__(self, activity: List[float]) -> None:
        self._heap: List[int] = []
        self._position: List[int] = [-1]
        self._activity = activity

    def add_var(self, var: int) -> None:
        """Register the fresh variable ``var`` (the next id) and insert it."""
        heap, position, activity = self._heap, self._position, self._activity
        position.append(-1)
        score = activity[var]
        index = len(heap)
        heap.append(var)
        while index > 0:
            parent = (index - 1) >> 1
            above = heap[parent]
            if activity[above] >= score:
                break
            heap[index] = above
            position[above] = index
            index = parent
        heap[index] = var
        position[var] = index

    def pop(self) -> Optional[int]:
        """Remove and return the most active variable (``None`` when empty)."""
        heap = self._heap
        if not heap:
            return None
        position, activity = self._position, self._activity
        top = heap[0]
        position[top] = -1
        var = heap.pop()
        size = len(heap)
        if size:
            # Sift the former last leaf down from the root.
            score = activity[var]
            index = 0
            child = 1
            while child < size:
                right = child + 1
                if right < size and activity[heap[right]] > activity[heap[child]]:
                    child = right
                below = heap[child]
                if activity[below] <= score:
                    break
                heap[index] = below
                position[below] = index
                index = child
                child = 2 * index + 1
            heap[index] = var
            position[var] = index
        return top


class Solver(ClauseSink):
    """An incremental CDCL SAT solver.

    Usage::

        solver = Solver()
        x, y = solver.new_var(), solver.new_var()
        solver.add_clause([x, y])
        solver.add_clause([-x, y])
        assert solver.solve()
        assert solver.model_value(y)
        assert not solver.solve(assumptions=[-y])
        assert solver.unsat_core() == frozenset({-y})

    Clauses may be added between :meth:`solve` calls; learned clauses,
    activities and saved phases persist, which is what makes the
    bound-by-bound BMC loop and the frame-by-frame IC3 loop cheap.
    """

    _RESTART_BASE = 100
    _RESCALE_LIMIT = 1e100
    _INPROCESS_INTERVAL = 4000
    _VIVIFY_CLAUSE_LIMIT = 300
    _VIVIFY_LENGTH_LIMIT = 16

    def __init__(self, var_decay: float = 0.95, clause_decay: float = 0.999) -> None:
        self.stats = SolverStats()
        self._ok = True
        self._num_vars = 0
        # Per-literal state: slot ``v`` for ``v``, slot ``len - v`` for
        # ``-v`` (see the module docstring); the middle is spare capacity.
        self._values: List[int] = [0, 0]  # 0 unassigned, +1 true, -1 false
        # Each watch list is a flat interleaved ``[blocker, clause, …]``;
        # spare slots hold None until new_var claims them.
        self._watches: List[Optional[List[object]]] = [None, None]
        # Per-variable state, 1-indexed (slot 0 unused).
        self._level: List[int] = [0]
        self._reason: List[Optional[_Clause]] = [None]
        self._phase: List[bool] = [False]
        self._activity: List[float] = [0.0]
        self._seen: List[bool] = [False]
        self._clauses: List[_Clause] = []
        self._learnts: List[_Clause] = []
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._order = _VarOrder(self._activity)
        self._var_inc = 1.0
        self._var_decay = var_decay
        self._cla_inc = 1.0
        self._cla_decay = clause_decay
        self._max_learnts = 1000.0
        # Snapshot of ``_values`` at the last SAT answer (None: no model).
        self._model: Optional[List[int]] = None
        self._model_vars = 0
        self._conflict_core: Optional[FrozenSet[int]] = None
        self._next_inprocess = self._INPROCESS_INTERVAL
        self._true_literal = None
        self._proof: Optional[ProofLog] = None

    # -- the clause-sink protocol (shared with repro.sat.cnf.CNF) -------------

    @property
    def num_vars(self) -> int:
        """The number of allocated variables."""
        return self._num_vars

    def new_var(self) -> int:
        """Allocate a fresh variable and return it (a positive integer)."""
        var = self._num_vars + 1
        size = len(self._values)
        if 2 * var >= size:
            # Double the literal-indexed lists; the negative half moves to
            # the new end so ``-v`` still addresses slot ``len - v``.
            grown = 2 * size
            tail = size - self._num_vars
            values = self._values
            spare = grown - 2 * var + 1
            self._values = values[:var] + [0] * spare + values[tail:]
            watches = self._watches
            self._watches = watches[:var] + [None] * spare + watches[tail:]
        self._watches[var] = []
        self._watches[-var] = []
        self._num_vars = var
        self._level.append(0)
        self._reason.append(None)
        self._phase.append(False)
        self._activity.append(0.0)
        self._seen.append(False)
        self._order.add_var(var)
        return var

    def _ensure_var(self, var: int) -> None:
        while self._num_vars < var:
            self.new_var()

    # -- proof logging -----------------------------------------------------

    @property
    def proof(self) -> Optional[ProofLog]:
        """The attached :class:`~repro.sat.drat.ProofLog`, if any."""
        return self._proof

    def start_proof(self) -> ProofLog:
        """Attach a fresh DRAT-style proof log and return it.

        From this point on, every input clause, derived clause, deletion
        and UNSAT verdict is recorded; :func:`repro.sat.drat.check_proof`
        certifies the transcript independently of the solver.  Clauses
        (and level-zero units) already in the database are snapshotted as
        inputs, so a proof can be started mid-life on an incremental
        solver.  Attaching a new log replaces any previous one.
        """
        log = ProofLog()
        if not self._ok:
            log.input(())
        else:
            level0 = self._trail[: self._trail_lim[0]] if self._trail_lim else self._trail
            for literal in level0:
                log.input((literal,))
            for store in (self._clauses, self._learnts):
                for clause in store:
                    if not clause.removed:
                        log.input(tuple(clause.lits))
        self._proof = log
        return log

    def stop_proof(self) -> None:
        """Detach the proof log; subsequent derivations are not recorded."""
        self._proof = None

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a clause; returns ``False`` when the database became unsatisfiable.

        The clause is simplified against the top-level assignment: satisfied
        clauses are dropped, false literals removed, duplicate literals
        merged, and tautologies ignored.  Adding a clause cancels any
        in-progress assignment back to decision level zero (the incremental
        contract: clauses arrive between :meth:`solve` calls).
        """
        self._cancel_until(0)
        if not self._ok:
            return False
        literals = list(literals)
        if self._proof is not None:
            self._proof.input(literals)
        seen_here: Dict[int, int] = {}
        simplified: List[int] = []
        for literal in literals:
            if literal == 0:
                raise SatError("0 is not a literal (it terminates DIMACS clauses)")
            var = abs(literal)
            if var > self._num_vars:
                self._ensure_var(var)
            value = self._values[literal]
            if value == 1:
                return True  # satisfied at level 0
            if value == -1:
                continue  # false at level 0; drop the literal
            previous = seen_here.get(var)
            if previous is None:
                seen_here[var] = literal
                simplified.append(literal)
            elif previous != literal:
                return True  # p ∨ ¬p: tautology
        if self._proof is not None and sorted(simplified) != sorted(literals):
            # The simplified clause (false literals stripped, duplicates
            # merged) is RUP against the input clause plus the level-0
            # units, so it earns a derivation step of its own.
            self._proof.add(simplified)
        if not simplified:
            self._ok = False
            return False
        if len(simplified) == 1:
            self._enqueue(simplified[0], None)
            if self._propagate() is not None:
                self._ok = False
                return False
            return True
        clause = _Clause(simplified, learnt=False)
        self._clauses.append(clause)
        self._attach(clause)
        return True

    # -- assignments -----------------------------------------------------------

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _enqueue(self, literal: int, reason: Optional[_Clause]) -> None:
        """Make ``literal`` true at the current level (the cold-path twin of
        the assignment :meth:`_propagate` inlines)."""
        values = self._values
        values[literal] = 1
        values[-literal] = -1
        var = literal if literal > 0 else -literal
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(literal)

    def _cancel_until(self, level: int) -> None:
        """Backtrack to ``level``: unassign, save phases, refill the heap.

        The phase is saved here rather than on assignment: a variable's
        polarity when it is unassigned is the one it was assigned with, and
        the saved phase is only read for unassigned variables.
        """
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        trail = self._trail
        bound = trail_lim[level]
        values, reason, phase = self._values, self._reason, self._phase
        order = self._order
        heap, position, activity = order._heap, order._position, order._activity
        for index in range(len(trail) - 1, bound - 1, -1):
            literal = trail[index]
            values[literal] = 0
            values[-literal] = 0
            if literal > 0:
                var = literal
                phase[var] = True
            else:
                var = -literal
                phase[var] = False
            reason[var] = None
            if position[var] < 0:
                # Re-insert into the heap: append, then sift up.
                score = activity[var]
                child = len(heap)
                heap.append(var)
                while child > 0:
                    parent = (child - 1) >> 1
                    above = heap[parent]
                    if activity[above] >= score:
                        break
                    heap[child] = above
                    position[above] = child
                    child = parent
                heap[child] = var
                position[var] = child
        del trail[bound:]
        del trail_lim[level:]
        self._qhead = len(trail)

    def _attach(self, clause: _Clause) -> None:
        lits = clause.lits
        watchers = self._watches[lits[0]]
        watchers.append(lits[1])
        watchers.append(clause)
        watchers = self._watches[lits[1]]
        watchers.append(lits[0])
        watchers.append(clause)

    def _detach(self, clause: _Clause) -> None:
        for literal in clause.lits[:2]:
            watchers = self._watches[literal]
            for index in range(1, len(watchers), 2):
                if watchers[index] is clause:
                    del watchers[index - 1 : index + 1]
                    break

    # -- propagation -----------------------------------------------------------

    def _propagate(self) -> Optional[_Clause]:
        """Unit propagation; returns the conflicting clause, if any.

        Watch lists are flat interleaved ``blocker, clause`` arrays: a true
        blocker satisfies the clause without touching it, and entries whose
        clause was logically deleted (``removed``) are purged in passing.
        Assignment and the propagation counter are inlined; the counter
        (literals dequeued) reaches ``stats`` once per call.
        """
        trail = self._trail
        qhead = self._qhead
        if qhead >= len(trail):
            return None
        start = qhead
        values = self._values
        watches = self._watches
        level = self._level
        reason = self._reason
        push = trail.append
        decision_level = len(self._trail_lim)
        conflict = None
        while qhead < len(trail):
            false_literal = -trail[qhead]
            qhead += 1
            watchers = watches[false_literal]
            index = 0
            kept = 0
            size = len(watchers)
            while index < size:
                blocker = watchers[index]
                if values[blocker] == 1:
                    if kept != index:
                        watchers[kept] = blocker
                        watchers[kept + 1] = watchers[index + 1]
                    kept += 2
                    index += 2
                    continue
                clause = watchers[index + 1]
                index += 2
                if clause.removed:
                    continue  # lazy purge of deleted clauses
                lits = clause.lits
                # Normalise: the false literal sits at position 1.
                first = lits[0]
                if first == false_literal:
                    first = lits[1]
                    lits[0] = first
                    lits[1] = false_literal
                if first != blocker and values[first] == 1:
                    watchers[kept] = first
                    watchers[kept + 1] = clause
                    kept += 2
                    continue
                for position in range(2, len(lits)):
                    other = lits[position]
                    if values[other] != -1:
                        lits[1] = other
                        lits[position] = false_literal
                        moved = watches[other]
                        moved.append(first)
                        moved.append(clause)
                        break
                else:
                    watchers[kept] = first
                    watchers[kept + 1] = clause
                    kept += 2
                    if values[first] == -1:
                        # Conflict: keep the unvisited suffix watched, too.
                        while index < size:
                            watchers[kept] = watchers[index]
                            watchers[kept + 1] = watchers[index + 1]
                            kept += 2
                            index += 2
                        conflict = clause
                        break
                    # Inline _enqueue(first, clause).
                    values[first] = 1
                    values[-first] = -1
                    var = first if first > 0 else -first
                    level[var] = decision_level
                    reason[var] = clause
                    push(first)
            del watchers[kept:]
            if conflict is not None:
                break
        self.stats.propagations += qhead - start
        self._qhead = len(trail)
        return conflict

    # -- activities ---------------------------------------------------------------

    def _rescale_activity(self) -> None:
        """Scale every activity (and the increment) down by ``1e-100``."""
        activity = self._activity
        for index in range(1, self._num_vars + 1):
            activity[index] *= 1e-100
        self._var_inc *= 1e-100

    def _var_decay_tick(self) -> None:
        self._var_inc /= self._var_decay

    def _cla_bump(self, clause: _Clause) -> None:
        clause.activity += self._cla_inc
        if clause.activity > 1e20:
            for learnt in self._learnts:
                learnt.activity *= 1e-20
            self._cla_inc *= 1e-20

    def _cla_decay_tick(self) -> None:
        self._cla_inc /= self._cla_decay

    # -- conflict analysis --------------------------------------------------------

    def _clause_lbd(self, lits: Sequence[int]) -> int:
        """The literal-block distance: distinct decision levels spanned."""
        level = self._level
        levels = {level[literal if literal > 0 else -literal] for literal in lits}
        levels.discard(0)
        return len(levels)

    def _analyze(self, conflict: _Clause) -> Tuple[List[int], int, int]:
        """First-UIP learning; returns ``(learnt_clause, backjump_level, lbd)``.

        ``learnt_clause[0]`` is the asserting literal.  The clause is
        minimized by removing every literal whose reason clause is subsumed
        by the remaining literals (self-subsumption against the implication
        graph), and its LBD is measured before backjumping while the levels
        are still live.  Learnt clauses revisited on the resolution path get
        their stored LBD lowered when the re-measure comes out smaller.
        The VSIDS bump (activity increment, rescale check, heap sift-up)
        is inlined per literal.
        """
        seen = self._seen
        level = self._level
        reason = self._reason
        trail = self._trail
        activity = self._activity
        order = self._order
        heap, position = order._heap, order._position
        var_inc = self._var_inc
        rescale_limit = self._RESCALE_LIMIT
        current_level = len(self._trail_lim)
        learnt: List[int] = [0]  # placeholder for the asserting literal
        to_clear: List[int] = []
        path_count = 0
        literal = 0  # 0 = conflict clause itself (take every literal)
        index = len(trail)
        clause: Optional[_Clause] = conflict
        while True:
            assert clause is not None
            lits = clause.lits
            if clause.learnt:
                self._cla_bump(clause)
                fresh_lbd = self._clause_lbd(lits)
                if 0 < fresh_lbd < clause.lbd:
                    clause.lbd = fresh_lbd
            for other in lits if literal == 0 else lits[1:]:
                var = other if other > 0 else -other
                if seen[var]:
                    continue
                var_level = level[var]
                if var_level > 0:
                    seen[var] = True
                    to_clear.append(var)
                    score = activity[var] + var_inc
                    activity[var] = score
                    if score > rescale_limit:
                        self._rescale_activity()
                        var_inc = self._var_inc
                        score = activity[var]
                    child = position[var]
                    if child >= 0:
                        # Restore the heap order: sift the bumped var up.
                        while child > 0:
                            parent = (child - 1) >> 1
                            above = heap[parent]
                            if activity[above] >= score:
                                break
                            heap[child] = above
                            position[above] = child
                            child = parent
                        heap[child] = var
                        position[var] = child
                    if var_level >= current_level:
                        path_count += 1
                    else:
                        learnt.append(other)
            while True:
                index -= 1
                literal = trail[index]
                var = literal if literal > 0 else -literal
                if seen[var]:
                    break
            clause = reason[var]
            seen[var] = False
            path_count -= 1
            if path_count == 0:
                break
        learnt[0] = -literal
        # Self-subsumption minimization: a non-asserting literal is redundant
        # when its reason exists and every reason literal is already seen (or
        # fixed at level 0).
        kept = [learnt[0]]
        for other in learnt[1:]:
            var = other if other > 0 else -other
            antecedent = reason[var]
            if antecedent is None:
                kept.append(other)
                continue
            for reason_literal in antecedent.lits:
                var = reason_literal if reason_literal > 0 else -reason_literal
                if reason_literal != -other and not seen[var] and level[var] > 0:
                    kept.append(other)
                    break
        learnt = kept
        for var in to_clear:
            seen[var] = False
        lbd = self._clause_lbd(learnt)
        if len(learnt) == 1:
            return learnt, 0, lbd
        # Backjump to the second-highest level; put that literal at watch 1.
        best = 1
        best_level = level[abs(learnt[1])]
        for position_in_learnt in range(2, len(learnt)):
            candidate_level = level[abs(learnt[position_in_learnt])]
            if candidate_level > best_level:
                best = position_in_learnt
                best_level = candidate_level
        learnt[1], learnt[best] = learnt[best], learnt[1]
        return learnt, best_level, lbd

    def _analyze_final(self, failing: int) -> FrozenSet[int]:
        """The subset of the assumptions that forced ``¬failing`` (MiniSat's
        ``analyzeFinal``): walk the trail from the top, expanding reasons,
        and collect every assumption decision reached.  Together with
        ``failing`` itself the result is an unsatisfiable core over the
        assumption literals."""
        core = {failing}
        if self._decision_level() == 0:
            return frozenset(core)
        seen = self._seen
        level = self._level
        to_clear: List[int] = []
        var = abs(failing)
        if level[var] > 0:
            seen[var] = True
            to_clear.append(var)
        bottom = self._trail_lim[0]
        for index in range(len(self._trail) - 1, bottom - 1, -1):
            literal = self._trail[index]
            var = abs(literal)
            if not seen[var]:
                continue
            reason = self._reason[var]
            if reason is None:
                core.add(literal)  # an assumption decision
            else:
                for other in reason.lits:
                    other_var = abs(other)
                    if not seen[other_var] and level[other_var] > 0:
                        seen[other_var] = True
                        to_clear.append(other_var)
        for var in to_clear:
            seen[var] = False
        return frozenset(core)

    # -- learnt-database reduction ------------------------------------------------

    def _reduce_db(self) -> None:
        """Delete the worst half of the reducible learnt clauses.

        Binary clauses, clauses currently acting as a reason ("locked") and
        glue clauses (LBD ≤ 2) survive; the rest go in (high LBD, low
        activity) order — the glue-aware policy of Glucose-style solvers.
        """
        locked = {id(reason) for reason in self._reason if reason is not None}
        protected: List[_Clause] = []
        reducible: List[_Clause] = []
        for clause in self._learnts:
            if clause.removed:
                continue
            if len(clause.lits) <= 2 or clause.lbd <= 2 or id(clause) in locked:
                protected.append(clause)
            else:
                reducible.append(clause)
        reducible.sort(key=lambda clause: (-clause.lbd, clause.activity))
        removable = len(reducible) // 2
        for clause in reducible[:removable]:
            clause.removed = True
            if self._proof is not None:
                self._proof.delete(clause.lits)
        self._learnts = protected + reducible[removable:]
        self.stats.deleted_clauses += removable
        # Learnt-DB reductions are rare (one per _max_learnts overflow).
        _metrics.counter("sat.reduce_db.runs").inc()
        _metrics.counter("sat.reduce_db.deleted").inc(removable)

    # -- search --------------------------------------------------------------------

    def _pick_branch_literal(self) -> Optional[int]:
        order = self._order
        values = self._values
        while True:
            var = order.pop()
            if var is None:
                return None
            if values[var] == 0:
                return var if self._phase[var] else -var

    def _record_learnt(self, learnt: List[int], lbd: int, promote: bool = False) -> None:
        if self._proof is not None:
            self._proof.add(learnt)
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
            return
        clause = _Clause(learnt, learnt=not promote, lbd=lbd)
        if promote:
            self._clauses.append(clause)
        else:
            self._learnts.append(clause)
            self._cla_bump(clause)
        self._attach(clause)
        self.stats.learned_clauses += 1
        self._enqueue(learnt[0], clause)

    def _search(self, budget: int, assumptions: Sequence[int]) -> Optional[bool]:
        """Search until SAT/UNSAT or ``budget`` conflicts (``None`` = restart)."""
        conflicts_here = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_here += 1
                if not self.stats.conflicts & 255:
                    _checkpoint("sat.conflict", sat_conflicts=self.stats.conflicts)
                if self._decision_level() == 0:
                    self._ok = False
                    self._conflict_core = frozenset()
                    return False
                learnt, backjump_level, lbd = self._analyze(conflict)
                # On-the-fly subsumption: the minimized learnt clause may
                # subsume the very clause that conflicted.  The conflict
                # clause is falsified, hence never a reason, hence safe to
                # drop; when it was a problem clause the learnt clause is
                # promoted so the constraint cannot later be reduced away.
                promote = False
                subsumed_lits: Optional[List[int]] = None
                if (
                    not conflict.removed
                    and 1 < len(learnt) < len(conflict.lits)
                    and set(learnt) <= set(conflict.lits)
                ):
                    conflict.removed = True
                    subsumed_lits = list(conflict.lits)
                    promote = not conflict.learnt
                    self.stats.subsumed_clauses += 1
                self._cancel_until(backjump_level)
                self._record_learnt(learnt, lbd, promote=promote)
                if subsumed_lits is not None and self._proof is not None:
                    # Deleted only after the learnt clause that subsumes it
                    # was derived, so the checker never loses the clause a
                    # pending step depends on.
                    self._proof.delete(subsumed_lits)
                self._var_decay_tick()
                self._cla_decay_tick()
                continue
            if conflicts_here >= budget:
                self._cancel_until(0)
                self.stats.restarts += 1
                _checkpoint("sat.restart", sat_conflicts=self.stats.conflicts)
                return None
            if len(self._learnts) >= self._max_learnts + len(self._trail):
                self._reduce_db()
            literal: Optional[int] = None
            while self._decision_level() < len(assumptions):
                assumption = assumptions[self._decision_level()]
                value = self._values[assumption]
                if value == 1:
                    self._trail_lim.append(len(self._trail))  # dummy level
                elif value == -1:
                    self._conflict_core = self._analyze_final(assumption)
                    return False  # UNSAT under the assumptions
                else:
                    literal = assumption
                    break
            if literal is None:
                literal = self._pick_branch_literal()
                if literal is None:
                    # Every variable is assigned here (the heap ran dry).
                    self._model = self._values[:]
                    self._model_vars = self._num_vars
                    return True
                self.stats.decisions += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(literal, None)

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Decide satisfiability of the database under ``assumptions``.

        Returns ``True`` and stores a model (see :meth:`model_value`) when
        satisfiable; ``False`` when the clauses are unsatisfiable under the
        assumptions (or outright) — in which case :meth:`unsat_core` exposes
        the assumption subset the refutation used.  The solver state
        persists across calls.
        """
        stats = self.stats
        with _span("sat.solve") as sp:
            conflicts_before = stats.conflicts
            propagations_before = stats.propagations
            result = self._solve(assumptions)
            sp.set(
                result=result,
                assumptions=len(assumptions),
                conflicts=stats.conflicts - conflicts_before,
                propagations=stats.propagations - propagations_before,
            )
        if _sanitize.MODE:
            _sanitize.maybe_check_solver(self)
        if result is False and self._proof is not None:
            self._proof.unsat([int(literal) for literal in assumptions])
        return result

    def _solve(self, assumptions: Sequence[int]) -> bool:
        assumptions = [int(literal) for literal in assumptions]
        for literal in assumptions:
            if literal == 0:
                raise SatError("0 is not a literal")
            self._ensure_var(abs(literal))
        self.stats.solve_calls += 1
        self._model = None  # a stale model must not survive an UNSAT answer
        self._conflict_core = None
        self._cancel_until(0)
        if not self._ok:
            self._conflict_core = frozenset()
            return False
        if self.stats.conflicts >= self._next_inprocess:
            self.inprocess()
            self._next_inprocess = self.stats.conflicts + self._INPROCESS_INTERVAL
            if not self._ok:
                self._conflict_core = frozenset()
                return False
        if self._propagate() is not None:
            self._ok = False
            self._conflict_core = frozenset()
            return False
        restarts = 0
        while True:
            budget = luby(restarts, self._RESTART_BASE)
            status = self._search(budget, assumptions)
            if status is not None:
                self._cancel_until(0)
                return status
            restarts += 1
            self._max_learnts *= 1.05

    def unsat_core(self) -> FrozenSet[int]:
        """The assumption literals the last UNSAT answer actually used.

        Only valid straight after a :meth:`solve` call that returned
        ``False``; the result is a subset ``core`` of the assumptions such
        that the clause database conjoined with ``core`` is unsatisfiable
        (empty when the database is unsatisfiable on its own).  This is what
        the IC3 engine's cube generalization seeds from.
        """
        if self._conflict_core is None:
            raise SatError("no unsat core available; the last solve() did not return UNSAT")
        return self._conflict_core

    # -- inprocessing ----------------------------------------------------------------

    def inprocess(self) -> bool:
        """Simplify the clause database at decision level zero.

        Three passes, each sound with respect to the incremental contract
        (no new variables, the database only gets logically stronger or
        equivalent): top-level simplification against the fixed assignment,
        signature-filtered backward subsumption with self-subsumption
        strengthening, and bounded vivification.  Runs automatically every
        few thousand conflicts; returns ``False`` when simplification
        discovered the database to be unsatisfiable.
        """
        with _span("sat.inprocess") as sp:
            subsumed_before = self.stats.subsumed_clauses
            strengthened_before = self.stats.strengthened_clauses
            self._cancel_until(0)
            if not self._ok:
                return False
            if self._propagate() is not None:
                self._ok = False
                return False
            if self._proof is not None:
                # Pin every level-0 fact as a derived unit before any
                # satisfied clause is deleted: deletion would otherwise
                # strip the checker of the propagation support later
                # strengthening steps rely on.  Each unit is RUP (it is
                # exactly what unit propagation derives).
                for literal in self._trail:
                    self._proof.add((literal,))
            # Level-0 reasons are never dereferenced (analysis guards on
            # level > 0), but null them so removed clauses cannot linger as
            # locked.
            for index in range(len(self._trail)):
                self._reason[abs(self._trail[index])] = None
            self._simplify_top_level()
            if self._ok:
                self._backward_subsume()
            if self._ok:
                self._vivify()
            # Units propagated by _readd during the passes acquired reasons
            # whose clauses may since have been removed; null them too.
            for index in range(len(self._trail)):
                self._reason[abs(self._trail[index])] = None
            self._clauses = [clause for clause in self._clauses if not clause.removed]
            self._learnts = [clause for clause in self._learnts if not clause.removed]
            self.stats.inprocessings += 1
            _metrics.counter("sat.inprocess.runs").inc()
            sp.set(
                subsumed=self.stats.subsumed_clauses - subsumed_before,
                strengthened=self.stats.strengthened_clauses - strengthened_before,
            )
            if _sanitize.MODE:
                _sanitize.maybe_check_solver(self)
            return self._ok

    def publish_metrics(self, **labels) -> None:
        """Snapshot the cumulative :class:`SolverStats` into the registry.

        Published as gauges (idempotent at every phase boundary); see
        ``docs/OBSERVABILITY.md`` for the counter-vs-gauge convention.
        """
        for field, value in self.stats.as_dict().items():
            _metrics.gauge("sat." + field, **labels).set(value)

    def _simplify_top_level(self) -> None:
        """Drop satisfied clauses and strip level-0-false literals in place.

        After full propagation an unsatisfied clause never has a false
        watched literal (the watch invariant), so stripping only touches
        positions ≥ 2 and the watches stay valid.
        """
        values = self._values
        for store in (self._clauses, self._learnts):
            for clause in store:
                if clause.removed:
                    continue
                lits = clause.lits
                satisfied = False
                has_false = False
                for literal in lits:
                    value = values[literal]
                    if value == 1:
                        satisfied = True
                        break
                    if value == -1:
                        has_false = True
                if satisfied:
                    clause.removed = True
                    if self._proof is not None:
                        self._proof.delete(lits)
                    continue
                if has_false:
                    original = list(lits) if self._proof is not None else None
                    lits[2:] = [
                        literal for literal in lits[2:] if values[literal] != -1
                    ]
                    if original is not None and len(lits) < len(original):
                        self._proof.add(lits)
                        self._proof.delete(original)

    @staticmethod
    def _signature(lits: Sequence[int]) -> int:
        """A 64-bit Bloom signature over the clause's variables."""
        signature = 0
        for literal in lits:
            signature |= 1 << (abs(literal) & 63)
        return signature

    def _backward_subsume(self) -> None:
        """Backward subsumption + self-subsumption over the whole database.

        Each clause is checked against the occurrence list of its rarest
        variable; a candidate whose variable signature is not a superset is
        skipped without touching its literals.  ``C ⊆ D`` removes ``D``
        (promoting ``C`` when ``D`` was a problem clause); ``C`` matching
        ``D`` except for one negated literal strengthens ``D`` by removing
        that literal.
        """
        clauses = [
            clause
            for store in (self._clauses, self._learnts)
            for clause in store
            if not clause.removed
        ]
        occurrences: Dict[int, List[_Clause]] = {}
        signatures: Dict[int, int] = {}
        for clause in clauses:
            signatures[id(clause)] = self._signature(clause.lits)
            for literal in clause.lits:
                occurrences.setdefault(abs(literal), []).append(clause)
        clauses.sort(key=lambda clause: len(clause.lits))
        strengthened: List[Tuple[_Clause, List[int]]] = []
        for clause in clauses:
            if clause.removed:
                continue
            lits = clause.lits
            rarest = min(lits, key=lambda literal: len(occurrences.get(abs(literal), ())))
            own_signature = signatures[id(clause)]
            own_set = set(lits)
            for candidate in occurrences.get(abs(rarest), ()):
                if candidate is clause or candidate.removed:
                    continue
                if len(candidate.lits) < len(lits):
                    continue
                if own_signature & ~signatures[id(candidate)]:
                    continue
                negated = 0  # the one literal of C occurring negated in D, if any
                missing = False
                candidate_set = set(candidate.lits)
                for literal in own_set:
                    if literal in candidate_set:
                        continue
                    if -literal in candidate_set and negated == 0:
                        negated = -literal
                        continue
                    missing = True
                    break
                if missing:
                    continue
                if negated == 0:
                    candidate.removed = True
                    if self._proof is not None:
                        self._proof.delete(candidate.lits)
                    if clause.learnt and not candidate.learnt:
                        clause.learnt = False  # promoted: now carries a problem constraint
                        self._learnts = [c for c in self._learnts if c is not clause]
                        self._clauses.append(clause)
                    self.stats.subsumed_clauses += 1
                elif len(candidate.lits) > 1:
                    shrunk = [literal for literal in candidate.lits if literal != negated]
                    strengthened.append((candidate, shrunk))
                    candidate.removed = True
                    self.stats.strengthened_clauses += 1
        for original, shrunk in strengthened:
            # _readd logs the strengthened clause as a derivation first; the
            # original is deleted after, while the checker can still resolve
            # against it.
            ok = self._readd(shrunk, original.learnt, original.lbd)
            if self._proof is not None:
                self._proof.delete(original.lits)
            if not ok:
                return

    def _readd(self, lits: List[int], learnt: bool, lbd: int) -> bool:
        """Attach a rewritten clause (after strengthening or vivification)."""
        values = self._values
        lits = [literal for literal in lits if values[literal] != -1]
        if any(values[literal] == 1 for literal in lits):
            return True
        if self._proof is not None:
            self._proof.add(lits)
        if not lits:
            self._ok = False
            return False
        if len(lits) == 1:
            trail_before = len(self._trail)
            self._enqueue(lits[0], None)
            if self._propagate() is not None:
                self._ok = False
                return False
            if self._proof is not None:
                # Pin the level-0 consequences right away: the ongoing
                # inprocessing pass may delete the (now satisfied) clauses
                # that propagated them before anything else records them.
                for literal in self._trail[trail_before + 1 :]:
                    self._proof.add((literal,))
            return True
        clause = _Clause(lits, learnt=learnt, lbd=min(lbd, len(lits)) if lbd else 0)
        (self._learnts if learnt else self._clauses).append(clause)
        self._attach(clause)
        return True

    def _vivify(self) -> None:
        """Bounded vivification: shorten clauses by unit-propagation probing.

        For a clause ``l₁ ∨ … ∨ lₖ`` (detached first, so it cannot feed its
        own probe), assert ``¬l₁, ¬l₂, …`` one decision level at a time.  A
        propagation conflict after ``i`` literals proves the prefix
        ``l₁ ∨ … ∨ lᵢ`` is itself implied; a probe literal found already
        true ends the clause there; one found already false is redundant
        and dropped.  The pass is bounded by clause count and length.
        """
        candidates = [
            clause
            for store in (self._clauses, self._learnts)
            for clause in store
            if not clause.removed and 3 <= len(clause.lits) <= self._VIVIFY_LENGTH_LIMIT
        ]
        values = self._values
        for clause in candidates[: self._VIVIFY_CLAUSE_LIMIT]:
            if clause.removed:
                continue
            if any(values[literal] == 1 for literal in clause.lits):
                clause.removed = True
                if self._proof is not None:
                    self._proof.delete(clause.lits)
                continue
            lits = [literal for literal in clause.lits if values[literal] == 0]
            clause.removed = True  # detached: the probe must not use the clause itself
            shortened: List[int] = []
            conflicted = False
            for literal in lits:
                value = values[literal]
                if value == 1:
                    # The negated prefix already implies this literal.
                    shortened.append(literal)
                    conflicted = True
                    break
                if value == -1:
                    continue  # implied false under the prefix: redundant
                shortened.append(literal)
                self._trail_lim.append(len(self._trail))
                self._enqueue(-literal, None)
                if self._propagate() is not None:
                    conflicted = True
                    break
            self._cancel_until(0)
            if len(shortened) < len(clause.lits):
                self.stats.strengthened_clauses += 1
            # As in _backward_subsume: derive the shortened clause before
            # deleting the one it replaces.
            ok = self._readd(shortened, clause.learnt, clause.lbd)
            if self._proof is not None:
                self._proof.delete(clause.lits)
            if not ok:
                return

    # -- models ---------------------------------------------------------------------

    def model_value(self, literal: int) -> bool:
        """The last model's value of ``literal`` (only valid after a SAT answer)."""
        model = self._model
        if model is None:
            raise SatError("no model available; the last solve() did not return SAT")
        if not 0 < abs(literal) <= self._model_vars:
            raise SatError("variable %d was not part of the last model" % abs(literal))
        return model[literal] == 1

    def model(self) -> Dict[int, bool]:
        """The last model as a ``{variable: truth value}`` dictionary."""
        model = self._model
        if model is None:
            raise SatError("no model available; the last solve() did not return SAT")
        return {var: model[var] == 1 for var in range(1, self._model_vars + 1)}

    # -- introspection ---------------------------------------------------------------

    @property
    def num_clauses(self) -> int:
        """The number of problem (non-learnt) clauses currently attached."""
        return sum(1 for clause in self._clauses if not clause.removed)

    @property
    def num_learnts(self) -> int:
        """The number of learnt clauses currently attached."""
        return sum(1 for clause in self._learnts if not clause.removed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<Solver: %d vars, %d clauses, %d learnts, %d conflicts>" % (
            self._num_vars,
            self.num_clauses,
            self.num_learnts,
            self.stats.conflicts,
        )
