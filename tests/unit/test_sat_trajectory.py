"""Pin the CDCL solver's search trajectory on a fixed corpus.

The solver's data layout (literal-indexed values and watches, the
list-positioned VSIDS heap, inlined propagation and analysis) is tuned for
speed without touching any heuristic.  This test is the proof that such
changes are layout only: every decision, propagation, restart, learnt
clause, deletion and inprocessing round below must come out exactly as
recorded.  A deliberate heuristic change (branching, restarts, learnt-DB
policy, minimization, inprocessing) is expected to move these numbers; it
updates the constants here and says so in ``CHANGES.md``.
"""

import random

import pytest

from repro.mc.bmc import BoundedModelChecker
from repro.mc.ic3 import IC3ModelChecker
from repro.sat.fuzz import random_3cnf
from repro.sat.solver import Solver
from repro.systems import mutex

FIELDS = (
    "conflicts",
    "decisions",
    "propagations",
    "restarts",
    "learned_clauses",
    "deleted_clauses",
    "inprocessings",
)

#: (seed, variables, clauses) -> (first verdict, assumption verdict, counters).
#: The 140-variable instance is large enough to trigger learnt-DB reduction.
CNF_TRAJECTORIES = {
    (1, 60, 256): (True, True, (29, 54, 2150, 0, 29, 0, 1)),
    (2, 60, 256): (False, False, (134, 155, 1835, 1, 129, 0, 0)),
    (3, 60, 256): (True, False, (95, 108, 3398, 0, 95, 0, 1)),
    (2, 140, 596): (False, False, (1727, 2163, 52312, 11, 1720, 635, 0)),
}

IC3_MUTEX5 = (591, 2185, 40099, 1, 574, 0, 0)
BMC_BUGGY_MUTEX4 = (165, 299, 12766, 0, 161, 0, 0)


@pytest.mark.parametrize("seed,num_vars,num_clauses", sorted(CNF_TRAJECTORIES))
def test_random_cnf_trajectory(seed, num_vars, num_clauses):
    """Solve, inprocess the solved solver, then re-query under assumptions."""
    rng = random.Random(seed)
    cnf = random_3cnf(rng, num_vars, num_clauses)
    solver = Solver()
    for _ in range(cnf.num_vars):
        solver.new_var()
    for clause in cnf.clauses:
        solver.add_clause(clause)
    first = solver.solve()
    solver.inprocess()
    assumptions = [
        var if rng.random() < 0.5 else -var
        for var in rng.sample(range(1, num_vars + 1), 6)
    ]
    second = solver.solve(assumptions)
    counters = tuple(getattr(solver.stats, field) for field in FIELDS)
    assert (first, second, counters) == CNF_TRAJECTORIES[
        (seed, num_vars, num_clauses)
    ]


def test_ic3_mutex_trajectory():
    checker = IC3ModelChecker(mutex.symbolic_mutex(5, domain="free"))
    assert checker.check(mutex.mutex_safety(5))
    stats = checker.stats()
    assert tuple(stats[field] for field in FIELDS) == IC3_MUTEX5


def test_bmc_buggy_mutex_trajectory():
    checker = BoundedModelChecker(
        mutex.symbolic_mutex(4, buggy=True, domain="free"), bound=8
    )
    assert not checker.check(mutex.mutex_safety(4))
    stats = checker.stats()
    assert tuple(stats[field] for field in FIELDS) == BMC_BUGGY_MUTEX4
