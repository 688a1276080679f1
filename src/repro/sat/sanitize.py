"""Opt-in runtime auditor for the CDCL solver's internal invariants.

A structural audit of a :class:`~repro.sat.solver.Solver` at its stable
points (end of :meth:`~repro.sat.solver.Solver.solve` and of
:meth:`~repro.sat.solver.Solver.inprocess`): two-watched-literal
bookkeeping, literal-value antisymmetry, trail/decision-level
consistency, implication-reason validity, VSIDS heap shape, and
learnt-database/LBD accounting.

Mirrors :mod:`repro.bdd.sanitize`: disabled by default, hook sites test
one module global (:data:`MODE`), enable with ``REPRO_SANITIZE=1`` /
:func:`enable` / the ``sanitizers`` pytest fixture.  ``MODE == 2`` is
the count-only mode the overhead benchmark uses.
"""

from __future__ import annotations

import os
from typing import Dict, List

from repro.errors import SanitizerError

__all__ = [
    "MODE",
    "CALLS",
    "enable",
    "enabled",
    "check_solver",
    "maybe_check_solver",
]

#: 0 = off, 1 = audit at every hook site, 2 = count hook firings only.
MODE = 1 if os.environ.get("REPRO_SANITIZE", "") not in ("", "0") else 0

#: Number of hook firings observed in count-only mode (``MODE == 2``).
CALLS = 0


def enable(on: bool = True) -> None:
    """Switch the sanitizer hooks on or off for this process."""
    global MODE
    MODE = 1 if on else 0


def enabled() -> bool:
    return MODE == 1


def maybe_check_solver(solver) -> None:
    """Hook target: audit ``solver`` when enabled, count when counting."""
    global CALLS
    if MODE == 2:
        CALLS += 1
        return
    if MODE:
        check_solver(solver)


def _fail(solver, message: str) -> None:
    raise SanitizerError(
        "SAT sanitizer: %s (solver: %d vars, %d clauses, %d learnts, level %d)"
        % (
            message,
            solver.num_vars,
            len(solver._clauses),
            len(solver._learnts),
            len(solver._trail_lim),
        )
    )


def check_solver(solver) -> None:
    """Audit every structural invariant of ``solver``; raise on the first hole.

    What the CDCL loop promises at a stable (fully propagated) point:

    * array sizes track ``num_vars``; the literal-indexed value and watch
      lists share one length with room for both polarities, every
      literal has a watch list, and the spare middle slots (and slot 0)
      are unassigned with no watch list;
    * literal values are in ``{-1, 0, +1}`` and antisymmetric: each
      literal's value is the negation of its mirror's (``values[-v] ==
      -values[v]``);
    * the trail holds each assigned variable exactly once, as a currently
      true literal, with decision levels matching the ``_trail_lim``
      segmentation; implied literals carry a reason clause that really
      implies them (all other literals false at no higher level);
    * every non-deleted clause of two or more literals is watched exactly
      once under each of ``lits[0]``/``lits[1]`` and nowhere else, every
      watch-list blocker belongs to its clause (or went stale through
      top-level stripping and is permanently false, which cannot mislead),
      and no dangling (unknown, non-deleted) clause hides in a watch list;
    * two-watch semantics: a clause with no true literal has no false
      watched literal (otherwise a propagation or conflict was missed) —
      checked only when the trail is fully propagated and the database is
      still satisfiable as far as the solver knows (``_ok``);
    * the VSIDS heap is a well-formed max-heap consistent with its
      position list, which holds ``-1`` exactly for the variables not in
      the heap, and (at decision level zero) contains every
      unassigned variable — a variable missing from the heap could never
      be branched on again;
    * learnt-database bookkeeping: ``learnt`` flags match the list a
      clause lives in, LBD values are sane, no duplicate or complementary
      literals inside a clause.
    """
    num_vars = solver.num_vars
    values = solver._values
    watches = solver._watches
    level = solver._level
    reason = solver._reason
    trail = solver._trail
    trail_lim = solver._trail_lim

    # -- array shapes ------------------------------------------------------
    if not (
        len(level)
        == len(reason)
        == len(solver._activity)
        == len(solver._order._position)
        == num_vars + 1
    ):
        _fail(solver, "per-variable arrays disagree with num_vars")
    if len(watches) != len(values):
        _fail(solver, "watch and value lists differ in length")
    if len(values) <= 2 * num_vars:
        _fail(solver, "literal-indexed lists too short for %d vars" % num_vars)
    for slot in range(num_vars + 1, len(values) - num_vars):
        if values[slot] != 0 or watches[slot] is not None:
            _fail(solver, "spare literal slot %d is in use" % slot)
    if values[0] != 0 or watches[0] is not None:
        _fail(solver, "literal slot 0 is in use")
    for var in range(1, num_vars + 1):
        if values[var] not in (-1, 0, 1):
            _fail(solver, "value of literal %d is %r" % (var, values[var]))
        if values[-var] != -values[var]:
            _fail(
                solver,
                "value of literal %d (%r) is not the negation of its mirror %d (%r)"
                % (-var, values[-var], var, values[var]),
            )

    # -- trail / levels ----------------------------------------------------
    decision_level = len(trail_lim)
    if not 0 <= solver._qhead <= len(trail):
        _fail(solver, "qhead %d outside the trail" % solver._qhead)
    previous = 0
    for lim in trail_lim:
        if not previous <= lim <= len(trail):
            _fail(solver, "trail_lim %r is not a monotone segmentation" % (trail_lim,))
        previous = lim
    seen_vars = set()
    segment = 0
    for index, literal in enumerate(trail):
        var = abs(literal)
        if var in seen_vars:
            _fail(solver, "var %d assigned twice on the trail" % var)
        seen_vars.add(var)
        while segment < decision_level and trail_lim[segment] <= index:
            segment += 1
        if values[literal] != 1:
            _fail(solver, "trail literal %d is not currently true" % literal)
        if level[var] != segment:
            _fail(
                solver,
                "trail literal %d sits in level-%d segment but level[] says %d"
                % (literal, segment, level[var]),
            )
    for var in range(1, num_vars + 1):
        if values[var] != 0 and var not in seen_vars:
            _fail(solver, "var %d assigned but missing from the trail" % var)
        if values[var] != 0 and level[var] > decision_level:
            _fail(
                solver,
                "var %d carries level %d above the current decision level %d"
                % (var, level[var], decision_level),
            )

    # -- reasons -----------------------------------------------------------
    for var in range(1, num_vars + 1):
        clause = reason[var]
        if clause is None:
            continue
        if values[var] == 0:
            _fail(solver, "unassigned var %d still has a reason clause" % var)
        if clause.removed:
            _fail(solver, "reason clause of var %d was deleted" % var)
        literal = var if values[var] > 0 else -var
        if literal not in clause.lits:
            _fail(solver, "reason clause of var %d does not contain its literal" % var)
        for other in clause.lits:
            if other == literal:
                continue
            other_var = abs(other)
            if values[other] != -1:
                _fail(
                    solver,
                    "reason clause of var %d has non-false co-literal %d" % (var, other),
                )
            if level[other_var] > level[var]:
                _fail(
                    solver,
                    "reason clause of var %d uses literal %d from a higher level"
                    % (var, other),
                )

    # -- clause database ---------------------------------------------------
    database: List = []
    for learnt_flag, clauses in ((False, solver._clauses), (True, solver._learnts)):
        for clause in clauses:
            if clause.removed:
                continue
            database.append(clause)
            if clause.learnt != learnt_flag:
                _fail(
                    solver,
                    "clause %r has learnt=%r but lives in the %s list"
                    % (clause.lits, clause.learnt, "learnt" if learnt_flag else "problem"),
                )
            lits = clause.lits
            if len(lits) < 2:
                _fail(solver, "stored clause %r has fewer than two literals" % (lits,))
            vars_here = set()
            for literal in lits:
                var = abs(literal)
                if literal == 0 or var > num_vars:
                    _fail(solver, "clause %r holds invalid literal %d" % (lits, literal))
                if var in vars_here:
                    _fail(
                        solver,
                        "clause %r mentions var %d twice (duplicate or tautology)"
                        % (lits, var),
                    )
                vars_here.add(var)
            if clause.learnt and not 0 <= clause.lbd <= len(lits):
                _fail(solver, "clause %r has implausible LBD %d" % (lits, clause.lbd))

    # -- watch lists -------------------------------------------------------
    known = {id(clause) for clause in database}
    watched_under: Dict[int, List[int]] = {}
    for literal in list(range(1, num_vars + 1)) + list(range(-num_vars, 0)):
        watchers = watches[literal]
        if watchers is None:
            _fail(solver, "literal %d has no watch list" % literal)
        if len(watchers) % 2:
            _fail(solver, "watch list of %d has odd length" % literal)
        for position in range(0, len(watchers), 2):
            blocker = watchers[position]
            clause = watchers[position + 1]
            if clause.removed:
                continue  # lazily purged later; fine
            if id(clause) not in known:
                _fail(
                    solver,
                    "watch list of %d holds a clause missing from the database: %r"
                    % (literal, clause.lits),
                )
            if blocker not in clause.lits:
                # Top-level simplification strips level-0-false literals
                # from lits[2:] in place without touching the watch lists,
                # so a blocker may go stale.  That is benign — a literal
                # false at level 0 can never become true, so the blocker
                # hint can never wrongly skip the clause.  Anything else
                # loose in a watch entry is a real corruption.
                blocker_var = abs(blocker)
                if not 1 <= blocker_var <= num_vars:
                    _fail(solver, "blocker %d is not a literal at all" % blocker)
                if not (values[blocker] == -1 and level[blocker_var] == 0):
                    _fail(
                        solver,
                        "blocker %d is not a literal of the watched clause %r "
                        "(and is not permanently false)" % (blocker, clause.lits),
                    )
            watched_under.setdefault(id(clause), []).append(literal)
    for clause in database:
        expected = sorted(clause.lits[:2])
        actual = sorted(watched_under.get(id(clause), []))
        if actual != expected:
            _fail(
                solver,
                "clause %r should be watched under %r but is watched under %r"
                % (clause.lits, expected, actual),
            )

    # -- two-watch semantics ----------------------------------------------
    fully_propagated = solver._qhead == len(trail) and solver._ok
    if fully_propagated:
        for clause in database:
            if any(values[literal] == 1 for literal in clause.lits):
                continue
            for literal in clause.lits[:2]:
                if values[literal] == -1:
                    _fail(
                        solver,
                        "unsatisfied clause %r has false watched literal %d "
                        "(missed propagation)" % (clause.lits, literal),
                    )

    # -- VSIDS heap --------------------------------------------------------
    order = solver._order
    heap = order._heap
    position = order._position
    activity = solver._activity
    if position[0] != -1:
        _fail(solver, "VSIDS position slot 0 is %r, not -1" % (position[0],))
    for index, var in enumerate(heap):
        if not 1 <= var <= num_vars:
            _fail(solver, "VSIDS heap holds invalid var %r" % (var,))
        if position[var] != index:
            _fail(solver, "VSIDS position list is stale for var %d" % var)
        if index:
            parent = heap[(index - 1) // 2]
            if activity[parent] < activity[var]:
                _fail(
                    solver,
                    "VSIDS max-heap violated: parent %d (%.3g) < child %d (%.3g)"
                    % (parent, activity[parent], var, activity[var]),
                )
    for var in range(1, num_vars + 1):
        index = position[var]
        if index != -1 and not (0 <= index < len(heap) and heap[index] == var):
            _fail(
                solver,
                "VSIDS position of var %d is %d, but the var is not there "
                "(a var outside the heap must sit at -1)" % (var, index),
            )
    if decision_level == 0 and fully_propagated:
        for var in range(1, num_vars + 1):
            if values[var] == 0 and position[var] < 0:
                _fail(solver, "unassigned var %d fell out of the VSIDS heap" % var)
