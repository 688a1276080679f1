"""Corrupt-and-detect tests for the BDD and SAT runtime sanitizers.

Each invariant family gets a test that deliberately breaks the structure
and asserts the audit reports it — a sanitizer that never fires is
indistinguishable from one that checks nothing.  The happy paths (clean
structures audit clean, hooks are inert when disabled, ``assert_no_leaks``
passes a leak-free block) are covered alongside, and the r=10 symbolic
sweep runs under the leak check as a regression guard for the fixpoint
memoisation path.
"""

from __future__ import annotations

import os

import pytest

import repro.bdd.sanitize as bdd_sanitize
import repro.sat.sanitize as sat_sanitize
from repro.bdd import BDDFunction, BDDManager
from repro.bdd.sanitize import assert_no_leaks, check_manager
from repro.errors import SanitizerError
from repro.sat.sanitize import check_solver
from repro.sat.solver import Solver

# The default-is-off tests are meaningless when the whole suite runs
# under REPRO_SANITIZE=1 (the sanitized CI lane does exactly that).
_default_off = pytest.mark.skipif(
    os.environ.get("REPRO_SANITIZE", "") not in ("", "0"),
    reason="suite runs with REPRO_SANITIZE=1; sanitizers are deliberately on",
)


# ---------------------------------------------------------------------------
# BDD sanitizer
# ---------------------------------------------------------------------------


@pytest.fixture()
def populated_manager():
    manager = BDDManager()
    a, b, c = (BDDFunction.variable(manager, level) for level in (0, 1, 2))
    keep = [(a & b) | c, a ^ b, ~(b & c)]
    return manager, keep


class TestBDDAudit:
    def test_clean_manager_passes(self, populated_manager):
        manager, _keep = populated_manager
        check_manager(manager)

    def test_detects_corrupt_terminal(self, populated_manager):
        manager, _keep = populated_manager
        manager._varr[0] = 0
        with pytest.raises(SanitizerError, match="terminal slot 0"):
            check_manager(manager)

    def test_detects_broken_variable_order(self, populated_manager):
        manager, _keep = populated_manager
        manager._var2level[0], manager._var2level[1] = (
            manager._var2level[1],
            manager._var2level[0],
        )
        with pytest.raises(SanitizerError, match="not inverse"):
            check_manager(manager)

    def test_detects_stored_field_mismatch(self, populated_manager):
        manager, keep = populated_manager
        node = keep[0].node >> 1
        manager._lo[node] ^= 1
        with pytest.raises(SanitizerError, match="differ from its key"):
            check_manager(manager)

    def test_detects_refcount_drift(self, populated_manager):
        manager, keep = populated_manager
        node = keep[0].node >> 1
        manager._ref[node] += 1
        with pytest.raises(SanitizerError, match="refcount"):
            check_manager(manager)

    def test_detects_live_counter_drift(self, populated_manager):
        manager, _keep = populated_manager
        manager._live += 1
        with pytest.raises(SanitizerError, match="live counter"):
            check_manager(manager)

    def test_detects_bogus_external_entry(self, populated_manager):
        manager, keep = populated_manager
        node = keep[0].node >> 1
        manager._external[node] = 0
        with pytest.raises(SanitizerError, match="non-positive count"):
            check_manager(manager)

    def test_detects_dead_edge_in_op_cache(self, populated_manager):
        manager, _keep = populated_manager
        dead = 2 * (len(manager._varr) + 5)
        manager._ite_cache.data[(dead, 2, 3)] = 2
        with pytest.raises(SanitizerError, match="ite cache key"):
            check_manager(manager)

    def test_collect_hook_fires_when_enabled(self, populated_manager, sanitizers):
        # collect() recomputes refcounts (self-healing), so corrupt something
        # it preserves: a zero-count external entry survives the sweep.
        manager, keep = populated_manager
        node = keep[0].node >> 1
        manager._external[node] = 0
        with pytest.raises(SanitizerError):
            manager.collect()

    @_default_off
    def test_hook_is_inert_when_disabled(self, populated_manager):
        manager, keep = populated_manager
        assert bdd_sanitize.MODE == 0
        node = keep[0].node >> 1
        manager._ref[node] += 1  # corrupt...
        manager.collect()  # ...but nobody is looking
        manager._ref[node] -= 1  # collect() recomputes nothing here; restore


class TestLeakCheck:
    def test_clean_block_passes(self, populated_manager):
        manager, _keep = populated_manager
        with assert_no_leaks(manager):
            a = BDDFunction.variable(manager, 0)
            b = BDDFunction.variable(manager, 1)
            del a, b  # everything created inside is released inside

    def test_planted_leak_is_reported(self, populated_manager):
        manager, _keep = populated_manager
        bucket = []  # outlives the block: the classic stale-memo leak
        with pytest.raises(SanitizerError, match="never released"):
            with assert_no_leaks(manager):
                a = BDDFunction.variable(manager, 0)
                b = BDDFunction.variable(manager, 1)
                bucket.append(a & b)

    def test_symbolic_sweep_does_not_leak(self):
        """Regression: the fixpoint memos must release every intermediate.

        The r=10 token-ring CTL sweep exercises the EU/EG/fair-EG fixpoint
        loops and the per-formula cache; any handle they fail to drop shows
        up as a grown external count here.
        """
        from repro.mc.symbolic import SymbolicCTLModelChecker
        from repro.systems import token_ring

        system = token_ring.symbolic_token_ring(10)
        with assert_no_leaks(system.manager):
            checker = SymbolicCTLModelChecker(system)
            verdicts = checker.check_batch(token_ring.ring_properties())
            assert all(verdicts.values())
            del checker, verdicts


# ---------------------------------------------------------------------------
# SAT sanitizer
# ---------------------------------------------------------------------------


def _solved_solver() -> Solver:
    solver = Solver()
    a, b, c, d = (solver.new_var() for _ in range(4))
    solver.add_clause([a, b])
    solver.add_clause([-a, c])
    solver.add_clause([-b, d])
    solver.add_clause([-c, -d, a])
    assert solver.solve()
    return solver


class TestSATAudit:
    def test_clean_solver_passes(self):
        check_solver(_solved_solver())

    def test_detects_phantom_assignment(self):
        solver = _solved_solver()
        assert solver._values[1] == 0
        solver._values[1] = 1  # assigned, but never pushed on the trail
        solver._values[-1] = -1
        with pytest.raises(SanitizerError, match="missing from the trail"):
            check_solver(solver)

    def test_detects_literal_disagreeing_with_its_negation(self):
        solver = _solved_solver()
        solver._values[-1] = solver._values[1] = 1  # x and ¬x both true
        with pytest.raises(SanitizerError, match="negation of its mirror"):
            check_solver(solver)

    def test_detects_corrupt_blocker(self):
        solver = _solved_solver()
        corrupted = False
        for watchers in solver._watches:
            if watchers:
                watchers[0] = solver.num_vars + 7  # not a literal of any clause
                corrupted = True
                break
        assert corrupted
        with pytest.raises(SanitizerError, match="blocker"):
            check_solver(solver)

    def test_detects_duplicate_literal_in_clause(self):
        solver = _solved_solver()
        clause = solver._clauses[0]
        clause.lits[1] = clause.lits[0]
        with pytest.raises(SanitizerError, match="twice"):
            check_solver(solver)

    def test_detects_stale_vsids_position(self):
        solver = Solver()
        for _ in range(6):
            solver.new_var()
        solver.add_clause([1, 2])
        heap = solver._order._heap
        if len(heap) >= 2:
            heap[0], heap[1] = heap[1], heap[0]  # heap moved, position list stale
        with pytest.raises(SanitizerError, match="VSIDS"):
            check_solver(solver)

    def test_detects_heap_position_of_var_outside_the_heap(self):
        solver = Solver()
        for _ in range(6):
            solver.new_var()
        solver._order.pop()  # var leaves the heap, its position becomes -1
        assert solver._order._position.count(-1) == 2  # slot 0 and the popped var
        popped = solver._order._position.index(-1, 1)
        solver._order._position[popped] = 0  # claims the root it does not hold
        with pytest.raises(SanitizerError, match="must sit at -1"):
            check_solver(solver)

    def test_detects_implausible_lbd(self):
        import random

        rng = random.Random(0)  # this seed is known to force conflicts
        solver = Solver()
        variables = [solver.new_var() for _ in range(20)]
        for _ in range(85):
            solver.add_clause(
                [rng.choice(variables) * rng.choice((1, -1)) for _ in range(3)]
            )
        assert solver.solve()
        assert solver._learnts, "instance unexpectedly solved without learning"
        solver._learnts[0].lbd = len(solver._learnts[0].lits) + 5
        with pytest.raises(SanitizerError, match="LBD"):
            check_solver(solver)

    def test_solve_hook_fires_when_enabled(self, sanitizers):
        solver = _solved_solver()  # solve() under the fixture audits clean
        # Corrupt bookkeeping solve() itself never trips over, so the error
        # can only come from the end-of-solve audit hook.
        solver._activity.append(0.0)
        with pytest.raises(SanitizerError):
            solver.solve()

    @_default_off
    def test_hook_is_inert_when_disabled(self):
        assert sat_sanitize.MODE == 0
        solver = _solved_solver()
        solver.solve()  # corrupt nothing, just confirm the path is silent


# ---------------------------------------------------------------------------
# Mode plumbing shared by both sanitizers
# ---------------------------------------------------------------------------


class TestModes:
    def test_fixture_enables_both(self, sanitizers):
        assert bdd_sanitize.enabled()
        assert sat_sanitize.enabled()

    @_default_off
    def test_default_is_off(self):
        assert not bdd_sanitize.enabled()
        assert not sat_sanitize.enabled()

    def test_count_only_mode_counts_without_auditing(self):
        manager = BDDManager()
        a = BDDFunction.variable(manager, 0)
        manager._ref[a.node >> 1] += 1  # corrupt: a full audit would raise
        previous = bdd_sanitize.MODE
        bdd_sanitize.MODE = 2
        before = bdd_sanitize.CALLS
        try:
            bdd_sanitize.maybe_check_manager(manager)
        finally:
            bdd_sanitize.MODE = previous
        assert bdd_sanitize.CALLS == before + 1
