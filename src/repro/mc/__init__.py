"""Model checkers: CTL (the :data:`~repro.mc.registry.ENGINE_NAMES` registry —
the naive/bitset/BDD fixpoint engines with optional fairness-constrained
semantics, plus the two SAT-based engines: bounded model checking with
k-induction and the unbounded IC3/PDR prover), existential LTL, CTL*, and
indexed CTL*.  ``docs/ENGINES.md`` is the when-to-use-which guide;
``docs/ARCHITECTURE.md`` maps how a system definition reaches each engine."""

from repro.mc.bmc import BoundedModelChecker
from repro.mc.ic3 import IC3ModelChecker, InvariantCertificate
from repro.mc.counterexample import (
    counterexample_af,
    counterexample_ag,
    resolve_checker,
    witness_ef,
    witness_eg,
    witness_eu,
)
from repro.mc.fairness import FairnessConstraint, normalize_fairness
from repro.mc.scc import strongly_connected_components
from repro.mc.bitset import BitsetCTLModelChecker
from repro.mc.bitset import check as check_ctl_bitset
from repro.mc.bitset import satisfaction_set as bitset_satisfaction_set
from repro.mc.ctl import CTLModelChecker
from repro.mc.ctl import check as check_ctl
from repro.mc.ctl import satisfaction_set as ctl_satisfaction_set
from repro.mc.ctlstar import CTLStarModelChecker
from repro.mc.ctlstar import check as check_ctlstar
from repro.mc.ctlstar import satisfaction_set as ctlstar_satisfaction_set
from repro.mc.indexed import ICTLStarModelChecker
from repro.mc.indexed import check as check_ictlstar
from repro.mc.indexed import check_batch as check_ictlstar_batch
from repro.mc.indexed import satisfaction_set as ictlstar_satisfaction_set
from repro.mc.ltl import exists_path_satisfying, existential_states
from repro.mc.symbolic import SymbolicCTLModelChecker
from repro.mc.symbolic import check as check_ctl_symbolic
from repro.mc.symbolic import satisfaction_set as symbolic_satisfaction_set
from repro.mc.registry import CTL_ENGINES, ENGINE_NAMES, make_ctl_checker
from repro.mc.oracle import (
    crosscheck_ctl_engines,
    find_lasso_witness,
    lasso_satisfies,
    simple_lasso_exists,
)

__all__ = [
    "BitsetCTLModelChecker",
    "BoundedModelChecker",
    "IC3ModelChecker",
    "InvariantCertificate",
    "CTL_ENGINES",
    "ENGINE_NAMES",
    "CTLModelChecker",
    "FairnessConstraint",
    "normalize_fairness",
    "strongly_connected_components",
    "resolve_checker",
    "make_ctl_checker",
    "check_ctl_bitset",
    "bitset_satisfaction_set",
    "CTLStarModelChecker",
    "ICTLStarModelChecker",
    "SymbolicCTLModelChecker",
    "check_ctl_symbolic",
    "symbolic_satisfaction_set",
    "check_ctl",
    "check_ctlstar",
    "check_ictlstar",
    "ctl_satisfaction_set",
    "ctlstar_satisfaction_set",
    "ictlstar_satisfaction_set",
    "existential_states",
    "exists_path_satisfying",
    "witness_ef",
    "witness_eu",
    "witness_eg",
    "counterexample_ag",
    "counterexample_af",
    "lasso_satisfies",
    "find_lasso_witness",
    "simple_lasso_exists",
    "crosscheck_ctl_engines",
    "check_ictlstar_batch",
]
