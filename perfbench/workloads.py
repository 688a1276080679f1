"""The benchmark's four workloads and the hand-written table of expected verdicts.

Every workload is closed loop with one client: the next check (or
``repro-mc`` process) starts only when the previous verdict is in.  The
workload seed only permutes that order, which matters because later checks
reuse the BDD computed table and solver state of earlier ones.

Each workload puts most of its time in one layer the repository means to
optimise, and little in the others, so a gain in one layer shows on its own
workload and a cost it imposes elsewhere shows on the rest:

* ``bdd-ring`` — the BDD kernel and image computation (direct symbolic
  token ring plus the fairness story); no SAT and almost no explicit-state
  work.
* ``sat-proofs`` — the CDCL solver, used two ways: many small incremental
  queries (IC3) and a few deep unrollings (BMC, k-induction).  The BDD
  layer only encodes relation parts here.
* ``paper-transfer`` — the paper's own workflow: establish a correspondence
  between a small and a large ring, transfer the Section 5 verdicts, cross
  check them directly, and re-refute the paper's ``M_2`` base case.  The
  correspondence decision procedure dominates; no BDD or SAT work.
* ``cli-short`` — sequential small ``repro-mc`` processes, where interpreter
  start, imports and the portfolio's fork/IPC per race dominate and kernel
  work is negligible.

Sizes are scaled so one round of each in-process workload takes a few
seconds on a 2-core machine, which lets a run of the benchmark time several
rounds and report medians.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, Dict, List, Tuple

WORKLOADS = ("bdd-ring", "sat-proofs", "paper-transfer", "cli-short")

#: Ring sizes of ``bdd-ring``: the CLI family on the direct encoding of
#: ``M_RING`` and the fairness pair on ``M_FAIR_RING``.
RING = 14
FAIR_RING = 12

#: The library modules each in-process workload imports before it builds.
MODULES = {
    "bdd-ring": ("repro.mc.symbolic", "repro.systems.token_ring"),
    "sat-proofs": (
        "repro.mc.bmc",
        "repro.mc.ic3",
        "repro.systems.mutex",
        "repro.systems.token_ring",
    ),
    "paper-transfer": (
        "repro.correspondence",
        "repro.mc.indexed",
        "repro.systems.token_ring",
    ),
}

# -- sources cited by the expected table ---------------------------------------

_S5_PROPERTY = (
    "paper Section 5 property %s, proved for every ring size (Theorem 5); "
    "reproduced by experiment E6"
)
_S5_INVARIANT = (
    "paper Section 5 invariant %s (request persistence / one token); "
    "reproduced by experiment E5"
)
_MUTUAL_EXCLUSION = (
    "consequence of Section 5 invariant 3 (one token); "
    "token_ring.ring_mutual_exclusion docstring, experiment E13 ring row"
)
_E11_UNFAIR = (
    "experiment E11: AND_i AF t_i is false without fairness (a process may "
    "stay neutral forever); token_ring.property_eventual_token docstring"
)
_E11_FAIR = "experiment E11: AND_i AF t_i holds under ring_scheduler_fairness"
_E13_MUTEX = "experiment E13 mutex row: mutex_safety holds on the lock protocol"
_E13_RING = (
    "experiment E13 ring row: pairwise mutual exclusion holds but is not "
    "inductive on the free domain; IC3 proves it"
)
_MUTEX_BUG = (
    "seeded bug (repro.systems.mutex, buggy=True): acquire ignores the lock, "
    "so mutual exclusion fails four transitions from the initial state"
)
_ONE_TOKEN_KIND = (
    "paper Section 5 invariant 3 (one token); 1-inductive per "
    "token_ring.ring_mutual_exclusion docstring, so k-induction proves it"
)
_E7_CORRECTED = (
    "experiment E7 corrected claim: M_3 (i,i')-corresponds to M_r for r >= 3 "
    "under corrected_index_relation (documented deviation E7)"
)
_E7_TRANSFER = (
    "experiment E7 transfer workflow: Section 5 property %s holds on M_3 and "
    "transfers to M_r by Theorem 5"
)
_E7_DIRECT = "experiment E7 cross-check: Section 5 property %s holds on M_r directly"
_E7_REFUTED = (
    "experiment E7 / documented deviation: the paper's M_2 ~ M_r claim under "
    "section5_index_relation is refuted"
)
_E7_PHI_M2 = "experiment E7: the distinguishing formula is true on M_2"
_E7_PHI_LARGE = "experiment E7: the distinguishing formula is false on every M_r, r >= 3"
_COUNTER = (
    "repro.systems.counter.counter_nonzero docstring: the saturating counter "
    "never wraps to zero"
)

_PROPERTIES = (
    "token_only_on_request",
    "critical_implies_token",
    "request_until_token",
    "eventual_entry",
)
_INVARIANTS = ("request_persistence", "one_token")


def _ring_family_expected(prefix: str) -> Dict[str, Tuple[bool, str]]:
    """The CLI's ring family (4 properties, 2 invariants, mutual exclusion): all true."""
    table = {}
    for number, name in enumerate(_PROPERTIES, start=1):
        table[prefix + "property " + name] = (True, _S5_PROPERTY % number)
    for number, name in enumerate(_INVARIANTS, start=2):
        table[prefix + "invariant " + name] = (True, _S5_INVARIANT % number)
    table[prefix + "invariant mutual_exclusion"] = (True, _MUTUAL_EXCLUSION)
    return table


#: workload -> check name -> (expected verdict, source of that verdict).
#: Every workload has at least one known-false check, so an engine that
#: answers ``True`` to everything fails.
EXPECTED: Dict[str, Dict[str, Tuple[bool, str]]] = {
    "bdd-ring": {
        **_ring_family_expected("M_14 "),
        "M_12 eventual_token unfair": (False, _E11_UNFAIR),
        "M_12 eventual_token fair": (True, _E11_FAIR),
    },
    "sat-proofs": {
        "ic3 mutex(9) mutual_exclusion": (True, _E13_MUTEX),
        "ic3 M_6 mutual_exclusion": (True, _E13_RING),
        "bmc mutex(8, buggy) mutual_exclusion": (False, _MUTEX_BUG),
        "k-induction M_12 one_token": (True, _ONE_TOKEN_KIND),
    },
    "paper-transfer": {
        "M_3 ~ M_4 establish": (True, _E7_CORRECTED),
        "M_3 ~ M_5 establish": (True, _E7_CORRECTED),
        **{
            "M_3 -> M_%d transfer %s" % (size, name): (True, _E7_TRANSFER % number)
            for size in (4, 5)
            for number, name in enumerate(_PROPERTIES, start=1)
        },
        **{
            "M_%d %s %s" % (size, engine, name): (True, _E7_DIRECT % number)
            for size in (4, 5)
            for engine in ("bitset", "naive")
            for number, name in enumerate(_PROPERTIES, start=1)
        },
        "M_2 ~ M_5 establish (paper's IN)": (False, _E7_REFUTED),
        "M_2 distinguishing_formula": (True, _E7_PHI_M2),
        "M_5 distinguishing_formula": (False, _E7_PHI_LARGE),
    },
    "cli-short": {
        **_ring_family_expected("bitset ring 4: "),
        **_ring_family_expected("bdd ring 4: "),
        "ic3 mutex 4: invariant mutual_exclusion": (True, _E13_MUTEX),
        "bdd counter 8: invariant nonzero": (True, _COUNTER),
        "portfolio mutex 4: invariant mutual_exclusion": (True, _E13_MUTEX),
        **_ring_family_expected("portfolio ring 6: "),
        "bmc mutex 4 buggy: invariant mutual_exclusion": (False, _MUTEX_BUG),
    },
}

#: ``cli-short``'s ``repro-mc`` invocations: label -> arguments.  The first
#: is the CLI's defaults spelled out, and its cold start is the workload's
#: set-up time.  ``--workers 2`` matches a 2-core machine.
INVOCATIONS: Dict[str, List[str]] = {
    "bitset ring 4": ["--engine", "bitset", "--system", "ring", "--size", "4"],
    "bdd ring 4": ["--engine", "bdd", "--system", "ring", "--size", "4"],
    "ic3 mutex 4": ["--engine", "ic3", "--system", "mutex", "--size", "4"],
    "bdd counter 8": ["--engine", "bdd", "--system", "counter", "--size", "8"],
    "portfolio mutex 4": [
        "--engine", "portfolio", "--system", "mutex", "--size", "4", "--workers", "2",
    ],
    "portfolio ring 6": [
        "--engine", "portfolio", "--system", "ring", "--size", "6",
        "--workers", "2", "--bound", "8",
    ],
    "bmc mutex 4 buggy": ["--engine", "bmc", "--system", "mutex", "--size", "4", "--buggy"],
}


def round_order(names, seed: int, reverse: bool = False) -> List[str]:
    """The order of one round: a seeded permutation of the sorted check or invocation names."""
    order = sorted(names)
    random.Random(seed).shuffle(order)
    if reverse:
        order.reverse()
    return order


def _ring_family(token_ring, size: int) -> Dict[str, object]:
    family = {}
    for name, formula in token_ring.ring_properties().items():
        family["property " + name] = formula
    for name, formula in token_ring.ring_invariants().items():
        family["invariant " + name] = formula
    family["invariant mutual_exclusion"] = token_ring.ring_mutual_exclusion(size)
    return family


def build_bdd_ring() -> Dict[str, Callable[[], bool]]:
    """Build every structure of ``bdd-ring``; return its checks as thunks."""
    from repro.mc.symbolic import SymbolicCTLModelChecker
    from repro.systems import token_ring

    checker = SymbolicCTLModelChecker(token_ring.symbolic_token_ring(RING))
    checks = {
        "M_%d %s" % (RING, name): partial(checker.check, formula)
        for name, formula in _ring_family(token_ring, RING).items()
    }
    fair_ring = token_ring.symbolic_token_ring(FAIR_RING)
    eventual_token = token_ring.property_eventual_token()
    unfair = SymbolicCTLModelChecker(fair_ring)
    fair = SymbolicCTLModelChecker(
        fair_ring, fairness=token_ring.ring_scheduler_fairness(FAIR_RING)
    )
    checks["M_%d eventual_token unfair" % FAIR_RING] = partial(unfair.check, eventual_token)
    checks["M_%d eventual_token fair" % FAIR_RING] = partial(fair.check, eventual_token)
    return checks


def build_sat_proofs() -> Dict[str, Callable[[], bool]]:
    """Build every structure of ``sat-proofs`` (free domain, no reachability fixpoint)."""
    from repro.mc.bmc import BoundedModelChecker
    from repro.mc.ic3 import IC3ModelChecker
    from repro.systems import mutex, token_ring

    ic3_mutex = IC3ModelChecker(mutex.symbolic_mutex(9, domain="free"))
    ic3_ring = IC3ModelChecker(token_ring.symbolic_token_ring(6, domain="free"))
    bmc = BoundedModelChecker(mutex.symbolic_mutex(8, buggy=True, domain="free"), bound=8)
    induction = BoundedModelChecker(
        token_ring.symbolic_token_ring(12, domain="free"), bound=8
    )
    return {
        "ic3 mutex(9) mutual_exclusion": partial(ic3_mutex.check, mutex.mutex_safety(9)),
        "ic3 M_6 mutual_exclusion": partial(
            ic3_ring.check, token_ring.ring_mutual_exclusion(6)
        ),
        "bmc mutex(8, buggy) mutual_exclusion": partial(bmc.check, mutex.mutex_safety(8)),
        "k-induction M_12 one_token": partial(
            induction.check, token_ring.invariant_one_token()
        ),
    }


def build_paper_transfer() -> Dict[str, Callable[[], bool]]:
    """Build the rings of ``paper-transfer`` and the verifiers that relate them."""
    from repro.correspondence import ParameterizedVerifier
    from repro.mc.indexed import ICTLStarModelChecker
    from repro.systems import token_ring

    base = token_ring.build_token_ring(3)
    paper_base = token_ring.build_token_ring(2)
    large = {size: token_ring.build_token_ring(size) for size in (4, 5)}
    properties = token_ring.ring_properties()
    checks: Dict[str, Callable[[], bool]] = {}
    for size, ring in large.items():
        verifier = ParameterizedVerifier(
            base, ring, token_ring.corrected_index_relation(3, size)
        )
        checks["M_3 ~ M_%d establish" % size] = lambda v=verifier: v.establish().holds
        for name, formula in properties.items():
            checks["M_3 -> M_%d transfer %s" % (size, name)] = (
                lambda v=verifier, f=formula: v.check(f).holds
            )
        for engine in ("bitset", "naive"):
            direct = ICTLStarModelChecker(ring, engine=engine)
            for name, formula in properties.items():
                checks["M_%d %s %s" % (size, engine, name)] = partial(direct.check, formula)
    paper = ParameterizedVerifier(
        paper_base, large[5], token_ring.section5_index_relation(5)
    )
    checks["M_2 ~ M_5 establish (paper's IN)"] = lambda: paper.establish().holds
    phi = token_ring.distinguishing_formula()
    checks["M_2 distinguishing_formula"] = partial(
        ICTLStarModelChecker(paper_base).check, phi
    )
    checks["M_5 distinguishing_formula"] = partial(ICTLStarModelChecker(large[5]).check, phi)
    return checks


BUILDERS = {
    "bdd-ring": build_bdd_ring,
    "sat-proofs": build_sat_proofs,
    "paper-transfer": build_paper_transfer,
}

