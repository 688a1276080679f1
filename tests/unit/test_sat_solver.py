"""Unit tests for the CDCL solver: propagation, learning, assumptions, fuzz."""

import random

import pytest

from repro.sat.cnf import CNF, SatError, evaluate_clauses, naive_satisfiable
from repro.sat.fuzz import random_3cnf, run_fuzz
from repro.sat.solver import Solver, luby


def _solver_for(cnf: CNF) -> Solver:
    solver = Solver()
    for _ in range(cnf.num_vars):
        solver.new_var()
    for clause in cnf.clauses:
        solver.add_clause(clause)
    return solver


def test_luby_sequence():
    assert [luby(i) for i in range(15)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
    assert luby(6, base=100) == 400


def test_empty_formula_is_satisfiable():
    assert Solver().solve()


def test_unit_propagation_chain():
    """A 100-literal implication chain must resolve by propagation alone."""
    solver = Solver()
    variables = [solver.new_var() for _ in range(100)]
    solver.add_clause([variables[0]])
    for source, target in zip(variables, variables[1:]):
        solver.add_clause([-source, target])
    assert solver.solve()
    assert all(solver.model_value(var) for var in variables)
    assert solver.stats.decisions == 0  # the chain never needs a guess


def test_conflicting_units_unsat():
    solver = Solver()
    v = solver.new_var()
    solver.add_clause([v])
    assert not solver.add_clause([-v]) or not solver.solve()
    assert not solver.solve()


def test_pigeonhole_three_pigeons_two_holes_unsat():
    solver = Solver()
    pigeon = {(i, j): solver.new_var() for i in range(3) for j in range(2)}
    for i in range(3):
        solver.add_clause([pigeon[(i, 0)], pigeon[(i, 1)]])
    for j in range(2):
        for first in range(3):
            for second in range(first + 1, 3):
                solver.add_clause([-pigeon[(first, j)], -pigeon[(second, j)]])
    assert not solver.solve()
    assert solver.stats.conflicts > 0


def test_assumption_incrementality():
    """One solver, contradictory assumption sets, clauses added in between."""
    solver = Solver()
    a, b, c = (solver.new_var() for _ in range(3))
    solver.add_clause([a, b])
    assert solver.solve(assumptions=[-a, -b]) is False
    assert solver.solve(assumptions=[-a])  # still satisfiable: b carries
    assert solver.model_value(b)
    solver.add_clause([-b, c])  # incremental clause addition after solving
    assert solver.solve(assumptions=[-a])
    assert solver.model_value(c)
    assert solver.solve(assumptions=[a, -b, -c])
    assert not solver.solve(assumptions=[-a, -c])
    # The database itself never became unsatisfiable.
    assert solver.solve()


def test_assumptions_do_not_persist():
    solver = Solver()
    v = solver.new_var()
    assert solver.solve(assumptions=[-v])
    assert solver.solve(assumptions=[v])


def test_model_validity_on_random_instances():
    rng = random.Random(42)
    for _ in range(30):
        cnf = random_3cnf(rng, rng.randint(4, 10), rng.randint(8, 40))
        solver = _solver_for(cnf)
        if solver.solve():
            assert evaluate_clauses(cnf.clauses, solver.model())
        else:
            assert not naive_satisfiable(cnf)


def test_tautological_and_duplicate_clauses():
    solver = Solver()
    a, b = solver.new_var(), solver.new_var()
    solver.add_clause([a, -a, b])  # tautology: silently satisfied
    solver.add_clause([a, a, b])  # duplicate literal collapsed
    assert solver.solve(assumptions=[-a])
    assert solver.model_value(b)


def test_zero_literal_rejected():
    with pytest.raises(SatError):
        Solver().add_clause([0])
    with pytest.raises(SatError):
        Solver().solve(assumptions=[0])


def test_model_unavailable_before_sat():
    solver = Solver()
    v = solver.new_var()
    with pytest.raises(SatError):
        solver.model_value(v)


def test_empty_model_after_sat_on_variable_free_database():
    """SAT with no variables has an empty model, not a missing one."""
    solver = Solver()
    assert solver.solve()
    assert solver.model() == {}
    with pytest.raises(SatError, match="not part of the last model"):
        solver.model_value(1)


def test_model_predates_later_variables():
    """A variable allocated after the SAT answer is not in its model."""
    solver = Solver()
    a = solver.new_var()
    solver.add_clause([-a])
    assert solver.solve()
    later = solver.new_var()
    assert solver.model() == {a: False}
    assert solver.model_value(-a)
    with pytest.raises(SatError, match="not part of the last model"):
        solver.model_value(later)


def test_literal_indexed_lists_survive_regrowth():
    """Values and watches keep each literal's slot as the lists double."""
    solver = Solver()
    variables = [solver.new_var() for _ in range(3)]
    solver.add_clause([-variables[0], variables[1]])
    solver.add_clause([-variables[1], -variables[2], variables[0]])
    assert solver.solve(assumptions=[variables[0]])
    for _ in range(100):  # several doublings of the literal-indexed lists
        variables.append(solver.new_var())
    solver.add_clause([-variables[1], variables[-1]])
    solver.add_clause([-variables[-1], variables[-2]])
    assert solver.solve(assumptions=[variables[0]])
    assert solver.model_value(variables[-1]) and solver.model_value(variables[-2])
    assert not solver.solve(assumptions=[variables[0], -variables[-2]])
    assert solver.unsat_core() <= {variables[0], -variables[-2]}


def test_stale_model_cleared_on_unsat():
    """An UNSAT answer must invalidate the model of an earlier SAT call."""
    solver = Solver()
    a, b = solver.new_var(), solver.new_var()
    solver.add_clause([a, b])
    assert solver.solve()
    assert not solver.solve(assumptions=[-a, -b])
    with pytest.raises(SatError):
        solver.model()
    with pytest.raises(SatError):
        solver.model_value(a)


def test_stats_accumulate_across_calls():
    solver = Solver()
    variables = [solver.new_var() for _ in range(20)]
    rng = random.Random(7)
    for _ in range(80):
        clause = [var if rng.random() < 0.5 else -var for var in rng.sample(variables, 3)]
        solver.add_clause(clause)
    first = solver.solve()
    calls_after_first = solver.stats.solve_calls
    solver.solve(assumptions=[variables[0]])
    assert solver.stats.solve_calls == calls_after_first + 1
    assert solver.stats.propagations > 0
    assert isinstance(first, bool)
    payload = solver.stats.as_dict()
    assert set(payload) >= {"conflicts", "decisions", "propagations", "learned_clauses"}


def test_learnt_clause_database_reduction():
    """Force enough conflicts that the learnt DB is reduced at least once."""
    solver = Solver()
    solver._max_learnts = 10.0  # shrink the budget so reduction triggers fast
    variables = [solver.new_var() for _ in range(40)]
    rng = random.Random(3)
    for _ in range(170):
        clause = [var if rng.random() < 0.5 else -var for var in rng.sample(variables, 3)]
        solver.add_clause(clause)
    solver.solve()
    assert solver.stats.learned_clauses > 0
    assert solver.stats.deleted_clauses > 0


def test_gate_interface_on_solver():
    """The solver doubles as a Tseitin sink (ClauseSink mixin)."""
    solver = Solver()
    a, b = solver.new_var(), solver.new_var()
    both = solver.gate_and([a, b])
    solver.add_clause([both])
    assert solver.solve()
    assert solver.model_value(a) and solver.model_value(b)


def test_fuzz_harness_clean():
    assert run_fuzz(count=25, max_vars=10, seed=123) == 0


def test_unsat_core_names_the_assumptions_used():
    solver = Solver()
    x, y, z = (solver.new_var() for _ in range(3))
    solver.add_clause([x])
    solver.add_clause([-x, y])
    assert not solver.solve(assumptions=[-y, z])
    core = solver.unsat_core()
    assert core <= {-y, z}
    assert -y in core  # z is irrelevant to the conflict
    # The core is sufficient: the database plus the core alone is UNSAT.
    replay = Solver()
    for _ in range(3):
        replay.new_var()
    replay.add_clause([x])
    replay.add_clause([-x, y])
    assert not replay.solve(assumptions=sorted(core))


def test_unsat_core_empty_when_database_alone_is_unsat():
    solver = Solver()
    v = solver.new_var()
    w = solver.new_var()
    solver.add_clause([v])
    solver.add_clause([-v])
    assert not solver.solve(assumptions=[w])
    assert solver.unsat_core() == frozenset()


def test_unsat_core_unavailable_after_sat():
    solver = Solver()
    v = solver.new_var()
    solver.add_clause([v])
    assert solver.solve()
    with pytest.raises(SatError):
        solver.unsat_core()


def test_inprocess_preserves_satisfiability():
    """Explicit inprocessing must never change any verdict (differential)."""
    rng = random.Random(11)
    for _ in range(30):
        num_vars = rng.randint(4, 10)
        cnf = random_3cnf(rng, num_vars, int(4.0 * num_vars))
        plain, simplified = _solver_for(cnf), _solver_for(cnf)
        assert simplified.inprocess() or not naive_satisfiable(cnf)
        verdict = simplified.solve()
        assert verdict == plain.solve() == naive_satisfiable(cnf)
        if verdict:
            assert evaluate_clauses(cnf.clauses, simplified.model())


def test_inprocess_subsumes_and_strengthens():
    solver = Solver()
    a, b, c = (solver.new_var() for _ in range(3))
    solver.add_clause([a, b])
    solver.add_clause([a, b, c])      # subsumed by [a, b]
    solver.add_clause([-a, b, c])     # self-subsumption with [a, b] on a
    assert solver.inprocess()
    assert solver.stats.subsumed_clauses >= 1
    assert solver.stats.inprocessings == 1
    assert solver.solve()


def test_inprocess_keeps_incremental_solving_correct():
    """Assumptions asked after an inprocess() round still see all clauses."""
    solver = Solver()
    x, y = solver.new_var(), solver.new_var()
    solver.add_clause([x, y])
    solver.add_clause([x, -y])
    assert solver.inprocess()
    assert not solver.solve(assumptions=[-x])
    assert solver.unsat_core() == frozenset({-x})
    assert solver.solve(assumptions=[x])


def test_glue_reduction_keeps_binary_clauses_sound():
    """Aggressive DB reduction with glue-aware retention never loses answers."""
    rng = random.Random(5)
    cnf = random_3cnf(rng, 30, 126)
    solver = _solver_for(cnf)
    solver._max_learnts = 5.0  # force constant reduction pressure
    verdict = solver.solve()
    if verdict:
        assert evaluate_clauses(cnf.clauses, solver.model())
    # Re-query under assumptions: deleted learnts must not have taken
    # original clauses with them.
    for var in range(1, 6):
        if solver.solve(assumptions=[var]):
            assert solver.model_value(var)
        if solver.solve(assumptions=[-var]):
            assert not solver.model_value(var)
    assert solver.stats.deleted_clauses > 0 or solver.stats.conflicts < 10
