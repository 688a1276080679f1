"""SAT-based bounded model checking and k-induction (``engine="bmc"``).

Where the symbolic engine computes the *full* fixpoint — so even a bug three
steps from the initial state pays for the whole reachable-set construction —
bounded model checking asks a SAT solver one question per depth: *is there a
path of exactly ``k`` transitions from the initial state ending in a bad
state?*  The cost is proportional to the bound, which makes BMC the classic
complement to BDD symbolic checking for **falsification**; ``k``-induction
recovers unbounded **proofs** for inductive invariants.

Encoding
--------
The checker unrolls the transition relation of a
:class:`~repro.kripke.symbolic.SymbolicKripkeStructure` — the same clustered
BDD parts, over the same stable variable ids, that ``engine="bdd"`` uses —
into CNF.  Time frame ``t`` owns one solver variable per state bit; a BDD
over current/next variables is lowered by :func:`repro.sat.cnf.tseitin_bdd`
with current bit ``k`` mapped to frame ``t`` and next bit ``k`` to frame
``t + 1`` (one definition variable and four clauses per BDD node, complement
edges free).  Clusters stay factored: each conjunct tuple becomes a
conjunction of Tseitin outputs, the clusters' disjunction is asserted per
step.  Everything is **incremental**: one
:class:`~repro.sat.solver.Solver` per unrolling, frames appended as the
bound grows, per-depth questions asked through assumptions, and every
learned clause carried from bound to bound.

Queries
-------
* ``AG p`` (*invariant*): per depth ``k``, assume ``¬p`` at frame ``k`` —
  SAT gives a genuine minimal-depth counterexample path (decoded through
  :meth:`~repro.kripke.symbolic.SymbolicKripkeStructure.decode_state`);
  interleaved with the k-induction step — path of ``n`` transitions, ``p``
  on the first ``n`` frames, ``¬p`` on the last, all frames pairwise
  distinct (the *simple-path* strengthening that makes k-induction complete
  on finite structures) — whose UNSAT answer proves the invariant for
  **every** depth, with no bound ceiling.
* ``EF p``: the dual reachability question (witness path / unreachability
  proof).
* ``AF p`` / ``EG q`` (*liveness*): lasso search — frames ``0 … k`` with the
  last frame forced equal to an earlier one, the constraint (``¬p`` resp.
  ``q``) assumed on every cycle and stem frame; a model decodes to a
  :class:`~repro.kripke.paths.Lasso` whose infinite unrolling violates
  ``AF p`` (resp. witnesses ``EG q``).  Only the falsification direction is
  available: exhausting the bound raises
  :class:`~repro.errors.InconclusiveError` rather than guessing.

Boolean combinations of decidable sub-formulas and index quantifiers over
structures that know their index set are handled by recursion and
instantiation, so the Section 5 invariant family runs unchanged.  Fairness
constraints and nested/ branching-time operators outside the fragment raise
:class:`~repro.errors.FragmentError` — the three fixpoint engines
(:data:`repro.mc.registry.CTL_ENGINES`) remain the decision procedures for
full CTL.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.bdd import BDDFunction
from repro.errors import (
    FragmentError,
    InconclusiveError,
    ModelCheckingError,
    ReproError,
)
from repro.kripke.paths import Lasso
from repro.kripke.structure import KripkeStructure, State
from repro.kripke.symbolic import SymbolicKripkeStructure, symbolic_structure
from repro.kripke.validation import assert_total
from repro.logic.ast import (
    And,
    Atom,
    ExactlyOne,
    Exists,
    FalseLiteral,
    Finally,
    ForAll,
    Formula,
    Globally,
    Iff,
    Implies,
    IndexExists,
    IndexForall,
    IndexedAtom,
    Not,
    Or,
    TrueLiteral,
    walk,
)
from repro.logic.transform import instantiate_quantifiers
from repro.mc.fairness import FairnessConstraint, normalize_fairness
from repro.obs import metrics as _metrics
from repro.obs.progress import heartbeat as _heartbeat
from repro.obs.trace import span as _obs_span
from repro.runtime.limits import checkpoint as _checkpoint
from repro.sat.cnf import tseitin_bdd
from repro.sat.solver import Solver, SolverStats

__all__ = ["BoundedModelChecker", "DEFAULT_BOUND"]

#: Default falsification/induction depth ceiling of :class:`BoundedModelChecker`.
DEFAULT_BOUND = 25

_ATOMIC = (TrueLiteral, FalseLiteral, Atom, IndexedAtom, ExactlyOne)

_PROPOSITIONAL = _ATOMIC + (Not, And, Or, Implies, Iff)


class _FrameLiterals(Mapping):
    """BDD variable id → solver literal for one time step.

    Current-state variable ``2k`` reads frame ``t``'s bit ``k``; next-state
    variable ``2k + 1`` reads frame ``t + 1``'s.
    """

    __slots__ = ("_unroller", "_step")

    def __init__(self, unroller: "_Unroller", step: int) -> None:
        self._unroller = unroller
        self._step = step

    def __getitem__(self, var: int) -> int:
        bit, offset = var >> 1, var & 1
        frame = self._unroller.frame(self._step + offset)
        if bit >= len(frame):
            raise KeyError(var)
        return frame[bit]

    def __iter__(self):  # pragma: no cover - Mapping protocol completeness
        raise NotImplementedError("frame mappings are index-only")

    def __len__(self) -> int:  # pragma: no cover - Mapping protocol completeness
        return 2 * len(self._unroller.frame(self._step))


class _Unroller:
    """An incremental CNF unrolling of one symbolic structure.

    Owns one :class:`~repro.sat.solver.Solver`; time frames (one solver
    variable per state bit) and transition steps are appended monotonically,
    so clauses and learned facts persist across deepening bounds.  Every BDD
    edge lowered into the solver is pinned through a refcounted
    :class:`~repro.bdd.BDDFunction` handle: the per-frame Tseitin caches key
    on node indices, which must survive the manager's mark-and-sweep GC.
    (Dynamic reordering rewrites nodes in place and would invalidate the
    caches — the BMC engine never triggers it and assumes the shared manager
    does not reorder between queries.)
    """

    def __init__(self, symbolic: SymbolicKripkeStructure) -> None:
        self.symbolic = symbolic
        self.solver = Solver()
        self._frames: List[List[int]] = []
        self._caches: List[Dict[int, int]] = []
        self._steps = 0
        self._equalities: Dict[Tuple[int, int], int] = {}
        self._loop_selectors: Dict[int, int] = {}
        self._pinned: Dict[int, BDDFunction] = {}

    @property
    def num_steps(self) -> int:
        """The number of transition steps asserted so far."""
        return self._steps

    def frame(self, step: int) -> List[int]:
        """The solver variables of time frame ``step`` (allocated on demand)."""
        while len(self._frames) <= step:
            self._frames.append(
                [self.solver.new_var() for _ in range(self.symbolic.num_bits)]
            )
            self._caches.append({})
        return self._frames[step]

    def literal(self, edge: int, step: int) -> int:
        """Tseitin-encode a BDD ``edge`` at time ``step``; returns a solver literal.

        The edge may mention current *and* next variables (next bits land in
        frame ``step + 1``).  Encodings are cached per step, so re-asserting
        the same relation parts or properties at one step is free.
        """
        self.frame(step)
        if edge not in self._pinned:
            self._pinned[edge] = self.symbolic.function(edge)
        return tseitin_bdd(
            self.symbolic.manager,
            edge,
            _FrameLiterals(self, step),
            self.solver,
            self._caches[step],
        )

    def assert_initial(self) -> None:
        """Constrain frame 0 to the structure's initial state."""
        self.solver.add_clause((self.literal(self.symbolic.initial, 0),))

    def assert_property(self, edge: int, step: int) -> None:
        """Permanently assert a current-variables BDD at ``step`` (k-induction)."""
        self.solver.add_clause((self.literal(edge, step),))

    def extend(self, steps: int) -> None:
        """Assert transition steps until ``steps`` of them constrain the unrolling."""
        if self._steps >= steps:
            return
        start = self._steps
        with _obs_span("bmc.unroll", from_step=start, to_step=steps):
            while self._steps < steps:
                step = self._steps
                cluster_literals = []
                for conjuncts in self.symbolic.transition_parts:
                    conjunct_literals = [self.literal(edge, step) for edge in conjuncts]
                    cluster_literals.append(self.solver.gate_and(conjunct_literals))
                self.solver.add_clause((self.solver.gate_or(cluster_literals),))
                self._steps += 1
            _metrics.counter("bmc.unrolled_steps", engine="bmc").inc(steps - start)

    # -- frame comparisons ---------------------------------------------------

    def equality_literal(self, left: int, right: int) -> int:
        """A literal equivalent to "frames ``left`` and ``right`` agree on every bit"."""
        key = (min(left, right), max(left, right))
        literal = self._equalities.get(key)
        if literal is None:
            solver = self.solver
            bits = [
                solver.gate_iff(a, b)
                for a, b in zip(self.frame(key[0]), self.frame(key[1]))
            ]
            literal = solver.gate_and(bits)
            self._equalities[key] = literal
        return literal

    def assert_distinct(self, left: int, right: int) -> None:
        """Permanently require frames ``left`` and ``right`` to differ (simple path)."""
        solver = self.solver
        solver.add_clause(
            [solver.gate_xor(a, b) for a, b in zip(self.frame(left), self.frame(right))]
        )

    def loop_selector(self, last: int) -> int:
        """A literal equivalent to "frame ``last`` equals some earlier frame"."""
        literal = self._loop_selectors.get(last)
        if literal is None:
            literal = self.solver.gate_or(
                [self.equality_literal(j, last) for j in range(last)]
            )
            self._loop_selectors[last] = literal
        return literal

    # -- model decoding ------------------------------------------------------

    def decode_frame(self, step: int) -> State:
        """Decode the last model's frame ``step`` into a source-structure state."""
        model = self.solver.model()
        assignment = {
            2 * bit: model[variable] for bit, variable in enumerate(self._frames[step])
        }
        return self.symbolic.decode_state(assignment)

    def decode_path(self, last: int) -> List[State]:
        """Decode frames ``0 … last`` of the last model into a state path."""
        return [self.decode_frame(step) for step in range(last + 1)]


class BoundedModelChecker:
    """Bounded model checker + k-induction prover over a SAT solver.

    Accepts a plain :class:`KripkeStructure` (binary-encoded on the spot,
    sharing the memoised encoding with ``engine="bdd"``) or an
    already-encoded :class:`SymbolicKripkeStructure` — direct family
    encodings built with ``domain="free"`` skip the symbolic reachability
    fixpoint entirely, which is the whole point of the engine.

    ``bound`` caps both the falsification depth and the induction length;
    :meth:`check` raises :class:`~repro.errors.InconclusiveError` when the
    cap is hit undecided.  Verdicts are memoised per formula, and
    :attr:`last_detail` reports how the most recent one was decided
    (``"counterexample at depth 3"``, ``"proved by 1-induction"``, …).

    With ``drat=True`` every successful k-induction step is certified by
    the independent :mod:`repro.sat.drat` forward RUP/DRAT checker (the
    inductor solvers log proofs; :attr:`last_proof_stats` reports the
    checker's counters).
    """

    #: BMC decides single verdicts, not satisfaction sets — the indexed
    #: front-end dispatches ``check`` directly when it sees this flag.
    supports_satisfaction_sets = False

    def __init__(
        self,
        structure: Union[KripkeStructure, SymbolicKripkeStructure],
        bound: int = DEFAULT_BOUND,
        validate_structure: bool = True,
        fairness: Optional[FairnessConstraint] = None,
        drat: bool = False,
    ) -> None:
        if normalize_fairness(fairness) is not None:
            raise FragmentError(
                "bounded model checking does not implement fairness-constrained "
                "semantics; use one of the fixpoint engines"
            )
        if bound < 0:
            raise ModelCheckingError("the BMC bound must be non-negative")
        self._symbolic = symbolic_structure(structure)
        if validate_structure and self._symbolic.source is not None:
            assert_total(self._symbolic.source)
        self._bound = bound
        self._stats = SolverStats()
        self._falsifier: Optional[_Unroller] = None
        self._inductors: Dict[int, _Unroller] = {}
        self._inductor_handles: List[BDDFunction] = []
        self._node_cache: Dict[Formula, BDDFunction] = {}
        self._verdicts: Dict[Formula, bool] = {}
        self._drat = drat
        self.last_detail: str = ""
        self.last_counterexample: Optional[List[State]] = None
        self.last_lasso: Optional[Lasso] = None
        #: RUP/DRAT checker counters of the last certified k-induction proof
        #: (populated only when ``drat=True`` and an induction step succeeded).
        self.last_proof_stats: Optional[Dict[str, int]] = None

    # -- accessors -----------------------------------------------------------

    @property
    def symbolic(self) -> SymbolicKripkeStructure:
        """The BDD encoding whose clustered relation parts are unrolled."""
        return self._symbolic

    @property
    def structure(self) -> Optional[KripkeStructure]:
        """The explicit source structure, when this checker was built from one."""
        return self._symbolic.source

    @property
    def bound(self) -> int:
        """The falsification/induction depth ceiling."""
        return self._bound

    @property
    def fairness(self) -> None:
        """Always ``None``: BMC rejects fairness constraints at construction."""
        return None

    def stats(self) -> Dict[str, int]:
        """Aggregated SAT statistics across every unrolling of this checker."""
        total = SolverStats()
        total.accumulate(self._stats)
        for unroller in self._all_unrollers():
            total.accumulate(unroller.solver.stats)
        payload = total.as_dict()
        payload["solvers"] = len(self._all_unrollers())
        return payload

    def _all_unrollers(self) -> List[_Unroller]:
        unrollers = list(self._inductors.values())
        if self._falsifier is not None:
            unrollers.insert(0, self._falsifier)
        return unrollers

    # -- public API ----------------------------------------------------------

    def check(self, formula: Formula, state: Optional[State] = None) -> bool:
        """Decide ``M, s0 ⊨ formula`` for the BMC fragment.

        Raises :class:`~repro.errors.FragmentError` outside the fragment and
        :class:`~repro.errors.InconclusiveError` when the bound is exhausted
        without a verdict.  Only the initial state is supported as the start
        state (that is where the unrolling is rooted).
        """
        if state is not None and not self._is_initial(state):
            raise ModelCheckingError(
                "the bounded model checker is rooted at the initial state; "
                "cannot check from %r" % (state,)
            )
        if formula in self._verdicts:
            self.last_detail = "memoised verdict"
            return self._verdicts[formula]
        with _obs_span("mc.check", engine="bmc"):
            verdict = self._decide(self._instantiate(formula))
        _metrics.counter("mc.checks", engine="bmc").inc()
        self._verdicts[formula] = verdict
        self.publish_metrics()
        return verdict

    def publish_metrics(self) -> None:
        """Snapshot the aggregated solver statistics into the registry."""
        for field, value in self.stats().items():
            if isinstance(value, int):
                _metrics.gauge("sat." + field, engine="bmc").set(value)

    def invariant_counterexample(
        self, invariant: Formula, bound: Optional[int] = None
    ) -> Optional[List[State]]:
        """A minimal-depth path from the initial state to a state violating ``invariant``.

        Pure falsification: no induction runs, and ``None`` only means "no
        violation within the bound".  ``invariant`` is the *body* ``p`` of
        ``AG p`` and must be propositional.
        """
        bad = self._bad_states_node(invariant)
        return self._falsify(bad, self._bound if bound is None else bound)

    def prove_invariant(
        self, invariant: Formula, bound: Optional[int] = None
    ) -> Optional[int]:
        """Prove ``AG invariant`` by k-induction; returns the successful ``k``.

        Sound only together with a base check (:meth:`check` interleaves
        both); ``None`` means no induction length up to the bound sufficed.
        """
        node = self._propositional_node(invariant)
        limit = self._bound if bound is None else bound
        for length in range(1, limit + 1):
            if self._induction_step(node.node, length):
                return length
        return None

    def af_counterexample(
        self, target: Formula, bound: Optional[int] = None
    ) -> Optional[Lasso]:
        """A lasso from the initial state along which ``target`` never holds.

        The finite certificate that ``AF target`` is violated.
        """
        avoid = self._bad_states_node(target)  # states where target fails
        return self._find_lasso(avoid, self._bound if bound is None else bound)

    def eg_witness(self, body: Formula, bound: Optional[int] = None) -> Optional[Lasso]:
        """A lasso from the initial state on which ``body`` holds forever (``EG body``)."""
        node = self._propositional_node(body)
        hold = self._symbolic.manager.apply_and(node.node, self._symbolic.domain)
        return self._find_lasso(hold, self._bound if bound is None else bound)

    # -- formula dispatch ------------------------------------------------------

    def _instantiate(self, formula: Formula) -> Formula:
        if any(isinstance(node, (IndexExists, IndexForall)) for node in walk(formula)):
            values = self._symbolic.index_values
            if values is None:
                raise FragmentError(
                    "formula %s has index quantifiers but the structure has no "
                    "index set" % (formula,)
                )
            return instantiate_quantifiers(formula, values)
        return formula

    def _decide(self, formula: Formula) -> bool:
        if isinstance(formula, Not):
            return not self._decide(formula.operand)
        if isinstance(formula, And):
            return self._decide_junction((formula.left, formula.right), is_and=True)
        if isinstance(formula, Or):
            return self._decide_junction((formula.left, formula.right), is_and=False)
        if isinstance(formula, Implies):
            return self._decide_junction(
                (Not(formula.left), formula.right), is_and=False
            )
        if isinstance(formula, ForAll):
            path = formula.path
            if isinstance(path, Globally):
                return self._decide_invariant(path.operand)
            if isinstance(path, Finally):
                lasso = self.af_counterexample(path.operand)
                if lasso is not None:
                    self.last_lasso = lasso
                    self.last_detail = "lasso counterexample (|stem|=%d, |cycle|=%d)" % (
                        len(lasso.stem),
                        len(lasso.cycle),
                    )
                    return False
                raise InconclusiveError(
                    "no lasso violating AF within bound %d; BMC cannot prove "
                    "liveness — use a fixpoint engine" % self._bound,
                    depth_reached=self._bound,
                    conflicts_spent=self._conflicts_spent(),
                )
        if isinstance(formula, Exists):
            path = formula.path
            if isinstance(path, Finally):
                return not self._decide_invariant(Not(path.operand))
            if isinstance(path, Globally):
                lasso = self.eg_witness(path.operand)
                if lasso is not None:
                    self.last_lasso = lasso
                    self.last_detail = "lasso witness (|stem|=%d, |cycle|=%d)" % (
                        len(lasso.stem),
                        len(lasso.cycle),
                    )
                    return True
                raise InconclusiveError(
                    "no EG lasso witness within bound %d; BMC cannot refute "
                    "EG — use a fixpoint engine" % self._bound,
                    depth_reached=self._bound,
                    conflicts_spent=self._conflicts_spent(),
                )
        if self._is_propositional(formula):
            node = self._propositional_node(formula)
            holds = self._symbolic.manager.apply_and(node.node, self._symbolic.initial)
            self.last_detail = "propositional evaluation at the initial state"
            return holds != 0
        raise FragmentError(
            "the BMC engine decides the invariant fragment — boolean/index-"
            "quantified combinations of AG p, EF p, AF p, EG p with "
            "propositional p — got %s" % (formula,)
        )

    def _decide_junction(self, operands, is_and: bool) -> bool:
        inconclusive: Optional[InconclusiveError] = None
        for operand in operands:
            try:
                value = self._decide(operand)
            except InconclusiveError as error:
                inconclusive = error
                continue
            if value is not is_and:
                return value  # short-circuit: one False kills ∧, one True saves ∨
        if inconclusive is not None:
            raise inconclusive
        return is_and

    def _decide_invariant(self, body: Formula) -> bool:
        """Interleaved BMC falsification and k-induction for ``AG body``."""
        node = self._propositional_node(body)
        bad = self._symbolic.complement(node.node)
        bad_fn = self._symbolic.function(bad)
        falsifier = self._falsifier_unroller()
        for depth in range(self._bound + 1):
            with _obs_span("bmc.depth", k=depth) as sp:
                _checkpoint(
                    "bmc.depth",
                    sat_conflicts=falsifier.solver.stats.conflicts,
                )
                _heartbeat(
                    "bmc",
                    k=depth,
                    conflicts=falsifier.solver.stats.conflicts,
                )
                falsifier.extend(depth)
                assumption = falsifier.literal(bad_fn.node, depth)
                if falsifier.solver.solve([assumption]):
                    self.last_counterexample = falsifier.decode_path(depth)
                    self.last_detail = "counterexample at depth %d" % depth
                    sp.set(outcome="counterexample")
                    return False
                if self._induction_step(node.node, depth + 1):
                    self.last_detail = "proved by %d-induction" % (depth + 1)
                    sp.set(outcome="induction")
                    return True
                sp.set(outcome="deepen")
        raise InconclusiveError(
            "invariant neither violated within depth %d nor provable by "
            "%d-induction; raise the bound" % (self._bound, self._bound + 1),
            depth_reached=self._bound,
            conflicts_spent=self._conflicts_spent(),
        )

    # -- SAT queries -----------------------------------------------------------

    def _falsifier_unroller(self) -> _Unroller:
        if self._falsifier is None:
            self._falsifier = _Unroller(self._symbolic)
            self._falsifier.assert_initial()
        return self._falsifier

    def _conflicts_spent(self) -> int:
        total = 0
        if self._falsifier is not None:
            total += self._falsifier.solver.stats.conflicts
        for unroller in self._inductors.values():
            total += unroller.solver.stats.conflicts
        return total

    def _falsify(self, bad_node: int, bound: int) -> Optional[List[State]]:
        bad_fn = self._symbolic.function(bad_node)
        falsifier = self._falsifier_unroller()
        for depth in range(bound + 1):
            with _obs_span("bmc.depth", k=depth, mode="falsify"):
                _checkpoint(
                    "bmc.depth",
                    sat_conflicts=falsifier.solver.stats.conflicts,
                )
                _heartbeat("bmc", k=depth, mode="falsify")
                falsifier.extend(depth)
                if falsifier.solver.solve([falsifier.literal(bad_fn.node, depth)]):
                    self.last_counterexample = falsifier.decode_path(depth)
                    self.last_detail = "counterexample at depth %d" % depth
                    return self.last_counterexample
        return None

    def _induction_step(self, property_node: int, length: int) -> bool:
        """The k-induction step at ``length`` transitions, with simple paths.

        Frames ``0 … length``, the property asserted on all but the last,
        every frame pairwise distinct; UNSAT of "last frame violates" means
        any violation needs a reachable loop-free run longer than ``length``
        — impossible once the base case covers depth ``length - 1``.
        """
        unroller = self._inductors.get(property_node)
        if unroller is None:
            unroller = _Unroller(self._symbolic)
            if self._drat:
                unroller.solver.start_proof()
            self._inductors[property_node] = unroller
            self._inductor_handles.append(self._symbolic.function(property_node))
        with _obs_span("bmc.induction", length=length):
            unroller.frame(0)
            while unroller.num_steps < length:
                step = unroller.num_steps
                unroller.assert_property(property_node, step)
                unroller.extend(step + 1)
                for earlier in range(step + 1):
                    unroller.assert_distinct(earlier, step + 1)
            bad = self._symbolic.complement(property_node)
            bad_fn = self._symbolic.function(bad)
            assumption = unroller.literal(bad_fn.node, length)
            proved = not unroller.solver.solve([assumption])
            if proved and self._drat:
                # The k-induction proof is exactly this UNSAT verdict;
                # certify the whole incremental transcript behind it.
                from repro.sat.drat import ProofError, check_proof

                try:
                    self.last_proof_stats = check_proof(unroller.solver.proof)
                except ProofError as error:
                    raise ModelCheckingError(
                        "k-induction produced an uncertifiable UNSAT proof: %s"
                        % error
                    ) from error
            return proved

    def _find_lasso(self, constraint_node: int, bound: int) -> Optional[Lasso]:
        constraint_fn = self._symbolic.function(constraint_node)
        falsifier = self._falsifier_unroller()
        assumptions: List[int] = []
        for length in range(1, bound + 1):
            _checkpoint(
                "bmc.lasso",
                sat_conflicts=falsifier.solver.stats.conflicts,
            )
            falsifier.extend(length)
            assumptions.append(falsifier.literal(constraint_fn.node, length - 1))
            selector = falsifier.loop_selector(length)
            if falsifier.solver.solve(assumptions + [selector]):
                states = falsifier.decode_path(length)
                for start in range(length):
                    if states[start] == states[length]:
                        lasso = Lasso(
                            stem=tuple(states[:start]),
                            cycle=tuple(states[start:length]),
                        )
                        self.last_lasso = lasso
                        return lasso
                raise ModelCheckingError(
                    "SAT model closed no loop; the loop selector encoding is "
                    "inconsistent"
                )  # pragma: no cover - guarded by construction
        return None

    # -- propositional lowering --------------------------------------------------

    @staticmethod
    def _is_propositional(formula: Formula) -> bool:
        return all(isinstance(node, _PROPOSITIONAL) for node in walk(formula))

    def _bad_states_node(self, body: Formula) -> int:
        """The domain states violating the propositional formula ``body``."""
        node = self._propositional_node(body)
        return self._symbolic.complement(node.node)

    def _propositional_node(self, formula: Formula) -> BDDFunction:
        cached = self._node_cache.get(formula)
        if cached is not None:
            return cached
        result = self._symbolic.function(self._propositional_edge(formula))
        self._node_cache[formula] = result
        return result

    def _propositional_edge(self, formula: Formula) -> int:
        symbolic = self._symbolic
        manager = symbolic.manager
        if isinstance(formula, _ATOMIC):
            return symbolic.atom_node(formula)
        if isinstance(formula, Not):
            return manager.negate(self._propositional_edge(formula.operand))
        if isinstance(formula, And):
            return manager.apply_and(
                self._propositional_edge(formula.left),
                self._propositional_edge(formula.right),
            )
        if isinstance(formula, Or):
            return manager.apply_or(
                self._propositional_edge(formula.left),
                self._propositional_edge(formula.right),
            )
        if isinstance(formula, Implies):
            return manager.apply_or(
                manager.negate(self._propositional_edge(formula.left)),
                self._propositional_edge(formula.right),
            )
        if isinstance(formula, Iff):
            return manager.apply(
                "iff",
                self._propositional_edge(formula.left),
                self._propositional_edge(formula.right),
            )
        raise FragmentError(
            "BMC properties must be propositional (boolean combinations of "
            "atoms); got %s" % (formula,)
        )

    # -- helpers ---------------------------------------------------------------

    def _is_initial(self, state: State) -> bool:
        source = self._symbolic.source
        if source is not None:
            return state == source.initial_state
        try:
            assignment = self._symbolic.encode_state(state)
        except (ReproError, KeyError, ValueError):
            # No encoder (or one that rejects this state): cannot prove it
            # is the initial state.
            return False
        return self._symbolic.manager.evaluate(self._symbolic.initial, assignment)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<BoundedModelChecker: %d bits, bound %d, %d solver(s)>" % (
            self._symbolic.num_bits,
            self._bound,
            len(self._all_unrollers()),
        )
