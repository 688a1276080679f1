"""The model-checking engine registry and its one dispatch point.

:data:`ENGINE_NAMES` names every engine, :data:`CTL_ENGINES` the subset that
computes full-CTL satisfaction sets, and :func:`make_ctl_checker` builds a
checker for any of them.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.errors import ModelCheckingError
from repro.kripke.compiled import CompiledKripkeStructure
from repro.kripke.structure import KripkeStructure
from repro.mc.bitset import BitsetCTLModelChecker
from repro.mc.fairness import FairnessConstraint

__all__ = ["CTL_ENGINES", "ENGINE_NAMES", "make_ctl_checker"]

#: Every registered model-checking engine, in registry order — the single
#: source of truth for engine names everywhere (the CLI, the docstrings, the
#: parametrised tests; ``docs/ENGINES.md`` documents each one).  ``"bitset"``,
#: ``"naive"`` and ``"bdd"`` decide full CTL by fixpoint computation; the two
#: SAT-based engines decide the invariant fragment only: ``"bmc"``
#: (:mod:`repro.mc.bmc`) by bounded falsification + k-induction, ``"ic3"``
#: (:mod:`repro.mc.ic3`) by unbounded property-directed reachability with
#: re-verified invariant certificates.  ``"portfolio"``
#: (:mod:`repro.runtime.portfolio`) is the meta-engine racing the others in
#: supervised worker processes and keeping the first conclusive verdict.
ENGINE_NAMES = ("bitset", "naive", "bdd", "bmc", "ic3", "portfolio")

#: The engines computing full CTL *satisfaction sets* — the differential-
#: testing set replayed by :func:`repro.mc.oracle.crosscheck_ctl_engines`.
#: ``"bmc"``, ``"ic3"`` and ``"portfolio"`` are deliberately excluded: they
#: produce single verdicts, not sets.
CTL_ENGINES = tuple(
    name for name in ENGINE_NAMES if name not in ("bmc", "ic3", "portfolio")
)


def make_ctl_checker(
    structure: Union[KripkeStructure, CompiledKripkeStructure],
    engine: str = "bitset",
    validate_structure: bool = True,
    fairness: Optional[FairnessConstraint] = None,
    bound: Optional[int] = None,
):
    """Construct a model checker for ``structure`` using the named engine.

    The engines (see :data:`ENGINE_NAMES`): ``"bitset"`` returns a
    :class:`repro.mc.bitset.BitsetCTLModelChecker`; ``"naive"`` returns the
    frozenset-based :class:`repro.mc.ctl.CTLModelChecker` (the
    differential-testing oracle); ``"bdd"`` returns the symbolic
    :class:`repro.mc.symbolic.SymbolicCTLModelChecker`, which runs the CTL
    fixpoints on binary decision diagrams instead of enumerated state sets;
    ``"bmc"`` returns the SAT-based
    :class:`repro.mc.bmc.BoundedModelChecker`, which decides the invariant
    fragment by bounded falsification and k-induction (``bound`` caps its
    unrolling depth); ``"ic3"`` returns the unbounded SAT-based prover
    :class:`repro.mc.ic3.IC3ModelChecker` (``bound`` caps its *frame count*
    — a divergence safety net, not a proof parameter); ``"portfolio"``
    returns :class:`repro.runtime.portfolio.PortfolioModelChecker`, racing
    the other engines in supervised worker processes and keeping the first
    conclusive verdict (``bound`` is forwarded to its SAT workers).
    ``bound`` is ignored by the fixpoint engines.  See ``docs/ENGINES.md``
    for a when-to-use-which guide.

    Only the bitset engine reuses a :class:`CompiledKripkeStructure` as is;
    every other engine is handed its source structure.

    With ``fairness`` (a :class:`repro.mc.fairness.FairnessConstraint`) the
    returned checker decides the fairness-constrained CTL semantics: path
    quantifiers range over the paths visiting every fairness set infinitely
    often (rejected by the SAT engines).
    """
    options = {"validate_structure": validate_structure, "fairness": fairness}
    if engine == "bitset":
        return BitsetCTLModelChecker(structure, **options)
    if isinstance(structure, CompiledKripkeStructure):
        structure = structure.source
    if engine == "naive":
        from repro.mc.ctl import CTLModelChecker

        return CTLModelChecker(structure, **options)
    if engine == "bdd":
        from repro.mc.symbolic import SymbolicCTLModelChecker

        return SymbolicCTLModelChecker(structure, **options)
    if engine == "bmc":
        from repro.mc.bmc import DEFAULT_BOUND, BoundedModelChecker

        return BoundedModelChecker(
            structure, bound=DEFAULT_BOUND if bound is None else bound, **options
        )
    if engine == "ic3":
        from repro.mc.ic3 import DEFAULT_MAX_FRAMES, IC3ModelChecker

        return IC3ModelChecker(
            structure, max_frames=DEFAULT_MAX_FRAMES if bound is None else bound, **options
        )
    if engine == "portfolio":
        from repro.runtime.portfolio import PortfolioModelChecker

        return PortfolioModelChecker(structure, bound=bound, **options)
    raise ModelCheckingError(
        "unknown engine %r; expected one of %s" % (engine, ", ".join(ENGINE_NAMES))
    )
