"""Random-CNF fuzz smoke for the CDCL solver (``python -m repro.sat.fuzz``).

Generates random 3-CNF instances around the satisfiability phase transition,
solves each with :class:`repro.sat.solver.Solver`, and checks the verdict:

* a SAT answer must come with a model that satisfies every clause;
* an UNSAT answer is re-checked against the brute-force enumerator of
  :mod:`repro.sat.cnf` (which is why the variable count is kept small);
* each instance is additionally round-tripped through DIMACS before solving,
  so the serialiser and parser are fuzzed along the way;
* a second solver for the same instance runs :meth:`Solver.inprocess`
  (subsumption, strengthening, vivification) before solving and must reach
  the same verdict — the differential check for the inprocessing passes;
* the already-solved solver is then inprocessed over its learnt database
  (backward subsumption may promote learnt clauses, vivification may
  shorten them) and re-queried under random assumptions; an UNSAT answer
  there must come with an :meth:`Solver.unsat_core` that is a subset of the
  assumptions and is itself sufficient (the formula conjoined with just the
  core stays unsatisfiable under the enumerator), and a SAT answer with a
  model of the original formula;
* every solver runs with a :mod:`repro.sat.drat` proof log attached, and the
  full transcript — covering *every* UNSAT verdict the round produced — must
  pass the independent forward RUP/DRAT checker.

With ``--sanitize`` the :mod:`repro.sat.sanitize` and
:mod:`repro.bdd.sanitize` runtime auditors are switched on for the whole
batch, so every solver stability point is structurally audited as the fuzz
runs.

The exit status is non-zero on any mismatch, which lets CI run the module
directly as a smoke step.  Deterministic under ``--seed``.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional

from repro.sat.cnf import (
    CNF,
    evaluate_clauses,
    naive_satisfiable,
    parse_dimacs,
    to_dimacs,
)
from repro.sat.drat import ProofError, check_proof
from repro.sat.solver import Solver

__all__ = ["random_3cnf", "run_fuzz", "main"]


def random_3cnf(rng: random.Random, num_vars: int, num_clauses: int) -> CNF:
    """A uniform random 3-CNF with ``num_vars`` variables and ``num_clauses`` clauses."""
    cnf = CNF(num_vars)
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), k=min(3, num_vars))
        cnf.add_clause(
            [var if rng.random() < 0.5 else -var for var in variables]
        )
    return cnf


def run_fuzz(
    count: int = 50,
    max_vars: int = 12,
    seed: int = 0,
    out=None,
) -> int:
    """Run ``count`` random instances; returns the number of failures."""
    if out is None:
        out = sys.stdout  # bound at call time so capture/redirection works
    rng = random.Random(seed)
    failures = 0
    sat_count = 0
    certified_verdicts = 0
    for round_number in range(count):
        num_vars = rng.randint(3, max_vars)
        # Clause/variable ratios straddling the ~4.26 phase transition keep
        # the mix of SAT and UNSAT instances roughly balanced.
        ratio = rng.uniform(2.0, 6.0)
        num_clauses = max(1, int(round(ratio * num_vars)))
        cnf = parse_dimacs(to_dimacs(random_3cnf(rng, num_vars, num_clauses)))

        def fresh() -> Solver:
            solver = Solver()
            solver.start_proof()
            for _ in range(cnf.num_vars):
                solver.new_var()
            for clause in cnf.clauses:
                solver.add_clause(clause)
            return solver

        solver = fresh()
        verdict = solver.solve()
        if verdict:
            sat_count += 1
            model = solver.model()
            if not evaluate_clauses(cnf.clauses, model):
                failures += 1
                print(
                    "FAIL round %d: SAT model does not satisfy the formula" % round_number,
                    file=out,
                )
        elif naive_satisfiable(cnf):
            failures += 1
            print(
                "FAIL round %d: solver says UNSAT but the enumerator found a model"
                % round_number,
                file=out,
            )

        # Differential inprocessing: simplify first, the verdict must agree.
        simplified = fresh()
        simplified.inprocess()
        if simplified.solve() != verdict:
            failures += 1
            print(
                "FAIL round %d: inprocessing changed the verdict" % round_number,
                file=out,
            )

        # Assumption/core check on the already-solved incremental solver,
        # inprocessed first so simplification over learnt clauses is checked
        # (and DRAT-certified) too.
        solver.inprocess()
        assumptions = [
            var if rng.random() < 0.5 else -var
            for var in rng.sample(range(1, cnf.num_vars + 1), k=min(3, cnf.num_vars))
        ]
        if solver.solve(assumptions):
            model = solver.model()
            if not evaluate_clauses(cnf.clauses, model) or not all(
                model[abs(lit)] == (lit > 0) for lit in assumptions
            ):
                failures += 1
                print(
                    "FAIL round %d: assumption model is invalid" % round_number,
                    file=out,
                )
        else:
            core = solver.unsat_core()
            hardened = CNF(cnf.num_vars)
            for clause in cnf.clauses:
                hardened.add_clause(clause)
            for literal in core:
                hardened.add_clause([literal])
            if not core <= set(assumptions):
                failures += 1
                print(
                    "FAIL round %d: unsat core is not a subset of the assumptions"
                    % round_number,
                    file=out,
                )
            elif naive_satisfiable(hardened):
                failures += 1
                print(
                    "FAIL round %d: unsat core is not sufficient for UNSAT"
                    % round_number,
                    file=out,
                )

        # Certify every proof transcript: each UNSAT verdict above (plain,
        # inprocessed, or under assumptions) must survive the independent
        # RUP/DRAT checker.
        for name, proved in (("main", solver), ("inprocessed", simplified)):
            try:
                certified_verdicts += check_proof(proved.proof)["unsat_checks"]
            except ProofError as error:
                failures += 1
                print(
                    "FAIL round %d: %s solver proof rejected: %s"
                    % (round_number, name, error),
                    file=out,
                )
    print(
        "fuzz: %d instances (%d SAT / %d UNSAT), %d certified UNSAT verdicts, "
        "%d failures" % (count, sat_count, count - sat_count, certified_verdicts, failures),
        file=out,
    )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro.sat.fuzz``."""
    parser = argparse.ArgumentParser(
        prog="repro.sat.fuzz",
        description="Differentially fuzz the CDCL solver on random 3-CNFs.",
    )
    parser.add_argument("--count", type=int, default=50, help="instances to run (default: 50)")
    parser.add_argument(
        "--max-vars",
        type=int,
        default=12,
        help="maximum variables per instance (kept small: UNSAT is re-checked "
        "by exhaustive enumeration; default: 12)",
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="run the batch with the SAT and BDD runtime sanitizers enabled",
    )
    args = parser.parse_args(argv)
    if args.count < 1 or args.max_vars < 3:
        print("error: --count must be >= 1 and --max-vars >= 3", file=sys.stderr)
        return 2
    if args.sanitize:
        import repro.bdd.sanitize as bdd_sanitize
        import repro.sat.sanitize as sat_sanitize

        sat_sanitize.enable(True)
        bdd_sanitize.enable(True)
    return 1 if run_fuzz(args.count, args.max_vars, args.seed) else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI smoke
    sys.exit(main())
