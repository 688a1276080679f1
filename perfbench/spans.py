"""In-memory spans around the library's public layer entry points.

A traced round installs wrappers from this file (never by editing
``src/``) around the public entry point of every layer: the system
builders, the explicit and symbolic Kripke operations, the public
``BDDManager`` operations, ``Solver.solve``, the engines' ``check``, the
correspondence decision procedure and the portfolio race.  Each call
records one span ``[id, parent, name, start_ns, end_ns]`` in a list that
is written out when the round ends.

The layer of a span is the part of its name before the first dot, and a
layer's self time is the time its spans cover minus the part of that time
their child spans cover (:func:`self_times`).  :func:`rollup` turns the
per-name totals plus the counters the hooks gather into the per-layer
metrics the benchmark prints.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: The layers a traced round attributes time to, in report order.  ``bench``
#: is the harness itself plus library code outside every wrapped entry
#: point; ``import`` is the interpreter importing the library.
LAYERS = (
    "import",
    "build",
    "kripke",
    "symbolic",
    "bdd",
    "sat",
    "mc",
    "corr",
    "runtime",
    "bench",
)

#: The engines whose ``check`` entry points are wrapped as ``mc.<engine>``.
MC_ENGINES = ("bdd", "bitset", "naive", "ic3", "bmc")

#: Raw counters that merge by maximum rather than by sum.
MAX_KEYS = frozenset({"bdd_peak_live_nodes", "ic3_frames", "bmc_cex_depth", "corr_max_degree"})

_clock = time.perf_counter_ns


class Tracer:
    """Collects spans in memory; one tracer per traced process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.managers: list = []
        self.sat_checkers: list = []
        self.built: list = []
        self.relations: list = []
        self.races: list = []
        self.portfolio_sources: Dict[int, Tuple[dict, Optional[int]]] = {}

    def begin(self, name: str, start_ns: Optional[int] = None) -> list:
        """Open a span (optionally back-dated to ``start_ns``) and return its record."""
        record = [
            len(self.spans),
            self._stack[-1] if self._stack else -1,
            name,
            _clock() if start_ns is None else start_ns,
            0,
        ]
        self.spans.append(record)
        self._stack.append(record[0])
        return record

    def end(self, record: list) -> None:
        """Close ``record``, which must be the innermost open span."""
        record[4] = _clock()
        popped = self._stack.pop()
        if popped != record[0]:
            raise RuntimeError("span %r closed out of order" % (record[2],))

    def wrap(self, fn: Callable, name, hook: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped in a span; ``name`` may be a function of the call's arguments."""
        tracer = self
        naming = name if callable(name) else None

        def traced(*args, **kwargs):
            record = tracer.begin(naming(args) if naming is not None else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(record)
            if hook is not None:
                hook(args, kwargs, result, record)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced


def _rebind(original: Callable, replacement: Callable) -> int:
    """Point every loaded ``repro`` module's binding of ``original`` at ``replacement``.

    Callers that did ``from module import function`` hold their own
    binding (``repro.correspondence.indexed.find_correspondence`` is the
    same object as ``repro.correspondence.check.find_correspondence``), so
    patching only the defining module would miss their calls.
    """
    count = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        namespace = getattr(module, "__dict__", {})
        for attribute, value in list(namespace.items()):
            if value is original:
                setattr(module, attribute, replacement)
                count += 1
    return count


def _wrap_method(tracer: Tracer, cls, method: str, name, hook=None) -> None:
    original = cls.__dict__[method]
    setattr(cls, method, tracer.wrap(original, name, hook))


def _observe_init(cls, hook: Callable) -> None:
    """Call ``hook(instance, kwargs)`` after every ``cls(...)`` construction, without a span."""
    original = cls.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        hook(self, kwargs)

    cls.__init__ = init


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point of the library; for a process that only runs traced work.

    The wrappers are never removed: a traced round runs in its own
    process, so nothing untraced shares the patched modules.
    """
    import repro.correspondence.check as corr_check
    import repro.correspondence.indexed  # noqa: F401  (holds a binding to rebind)
    import repro.kripke.reduction as reduction
    import repro.runtime.portfolio as portfolio
    from repro.bdd.manager import BDDManager
    from repro.kripke.structure import KripkeStructure
    from repro.kripke.symbolic import SymbolicKripkeStructure
    from repro.mc.bmc import BoundedModelChecker
    from repro.mc.ic3 import IC3ModelChecker
    from repro.mc.indexed import ICTLStarModelChecker
    from repro.mc.symbolic import SymbolicCTLModelChecker
    from repro.sat.solver import Solver
    from repro.systems import counter, mutex, token_ring

    def keep_built(args, kwargs, result, record):
        if isinstance(result, KripkeStructure):
            tracer.built.append(result)

    for module in (token_ring, mutex, counter):
        for function_name in dir(module):
            if function_name.startswith(("build_", "symbolic_")):
                original = getattr(module, function_name)
                if callable(original) and getattr(original, "__module__", "") == module.__name__:
                    _rebind(
                        original,
                        tracer.wrap(original, "build." + function_name, keep_built),
                    )

    _rebind(
        reduction.reduce_to_index,
        tracer.wrap(reduction.reduce_to_index, "kripke.reduce"),
    )
    _wrap_method(tracer, SymbolicKripkeStructure, "image_fn", "symbolic.image")
    _wrap_method(tracer, SymbolicKripkeStructure, "preimage_fn", "symbolic.preimage")
    _wrap_method(tracer, SymbolicKripkeStructure, "_reachable_fn", "symbolic.reachable")

    for op in (
        "ite",
        "apply_and",
        "apply_or",
        "apply_xor",
        "apply",
        "restrict",
        "exists",
        "forall",
        "relprod",
        "rename",
    ):
        _wrap_method(tracer, BDDManager, op, "bdd." + op)
    _observe_init(BDDManager, lambda manager, kwargs: tracer.managers.append(manager))

    _wrap_method(tracer, Solver, "solve", "sat.solve")

    # The explicit engines are reached through the ICTL* front end (which
    # asks them for satisfaction sets, not verdicts), so its check is the
    # bitset/naive entry point; the symbolic and SAT engines are called
    # directly.
    _wrap_method(
        tracer, ICTLStarModelChecker, "check", lambda args: "mc." + args[0].engine
    )
    _wrap_method(tracer, SymbolicCTLModelChecker, "check", "mc.bdd")
    _wrap_method(tracer, IC3ModelChecker, "check", "mc.ic3")
    _wrap_method(tracer, BoundedModelChecker, "check", "mc.bmc")
    for cls in (IC3ModelChecker, BoundedModelChecker):
        _observe_init(cls, lambda checker, kwargs: tracer.sat_checkers.append(checker))

    def keep_relation(args, kwargs, result, record):
        if result is not None:
            tracer.relations.append(result)

    _rebind(
        corr_check.find_correspondence,
        tracer.wrap(corr_check.find_correspondence, "corr.find", keep_relation),
    )

    def keep_sources(checker, kwargs):
        tracer.portfolio_sources[id(checker)] = (kwargs.get("sources"), kwargs.get("bound"))

    def keep_race(args, kwargs, result, record):
        tracer.races.append((args[0], args[1], (record[4] - record[3]) / 1e9))

    _observe_init(portfolio.PortfolioModelChecker, keep_sources)
    _wrap_method(tracer, portfolio.PortfolioModelChecker, "check", "runtime.race", keep_race)


def self_times(spans: Sequence[Sequence]) -> Dict[str, List[float]]:
    """Per span name: ``[calls, total_s, self_s]``.

    A span's self time is its duration minus the part of its interval that
    its children cover; overlapping or overhanging children are merged and
    clipped, so the result never goes negative.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for _, parent, _, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals: Dict[str, List[float]] = {}
    for span_id, _, name, start, end in spans:
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        row = totals.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += (end - start) / 1e9
        row[2] += (end - start - covered) / 1e9
    return totals


def raw_counters(tracer: Tracer, spans_by_name: Dict[str, List[float]]) -> Dict[str, float]:
    """Flatten span totals and the hooks' observations into mergeable raw counters."""
    raw: Dict[str, float] = {}
    for name, (calls, total, own) in spans_by_name.items():
        raw["span.%s.calls" % name] = calls
        raw["span.%s.total_s" % name] = total
        raw["span.%s.self_s" % name] = own
    raw["kripke_states"] = sum(s.num_states for s in tracer.built)
    raw["kripke_transitions"] = sum(s.num_transitions for s in tracer.built)

    hits = lookups = peak = gc_runs = 0
    for manager in tracer.managers:
        stats = manager.stats()
        peak = max(peak, stats.peak_live_nodes)
        gc_runs += stats.gc_runs
        for cache in stats.caches:
            hits += cache.hits
            lookups += cache.hits + cache.misses
    raw.update(
        bdd_peak_live_nodes=peak, bdd_gc_runs=gc_runs, bdd_hits=hits, bdd_lookups=lookups
    )

    for key in ("conflicts", "decisions", "propagations", "learned_clauses"):
        raw["sat_" + key] = 0
    for key in ("obligations", "cubes_blocked", "relative_queries", "certificate_clauses"):
        raw["ic3_" + key] = 0
    raw.update(ic3_frames=0, bmc_solvers=0, bmc_cex_depth=0)
    for checker in tracer.sat_checkers:
        stats = checker.stats()
        for key in ("conflicts", "decisions", "propagations", "learned_clauses"):
            raw["sat_" + key] += stats[key]
        if "frames" in stats:
            raw["ic3_frames"] = max(raw["ic3_frames"], stats["frames"])
            for key in ("obligations", "cubes_blocked", "relative_queries"):
                raw["ic3_" + key] += stats[key]
            if checker.certificate is not None:
                raw["ic3_certificate_clauses"] += checker.certificate.num_clauses
        else:
            raw["bmc_solvers"] += stats["solvers"]
            if checker.last_counterexample is not None:
                depth = len(checker.last_counterexample) - 1
                raw["bmc_cex_depth"] = max(raw["bmc_cex_depth"], depth)

    raw["corr_pairs"] = sum(len(relation) for relation in tracer.relations)
    raw["corr_max_degree"] = max(
        (relation.max_degree for relation in tracer.relations), default=0
    )
    return raw


def merge_raw(raws: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Combine the raw counters of several traced processes (one round of ``cli-short``)."""
    merged: Dict[str, float] = {}
    for raw in raws:
        for key, value in raw.items():
            if key in MAX_KEYS:
                merged[key] = max(merged.get(key, 0), value)
            else:
                merged[key] = merged.get(key, 0) + value
    return merged


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def rollup(raw: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced round, from its (merged) raw counters."""

    def spans(prefix: str, field: str) -> float:
        total = 0.0
        for key, value in raw.items():
            if key.startswith("span." + prefix) and key.endswith("." + field):
                total += value
        return total

    def one(name: str, field: str) -> float:
        return raw.get("span.%s.%s" % (name, field), 0)

    metrics = {
        "build.calls": spans("build.", "calls"),
        "build.s": spans("build.", "total_s"),
        "kripke.states": raw.get("kripke_states", 0),
        "kripke.transitions": raw.get("kripke_transitions", 0),
        "kripke.reduce.s": one("kripke.reduce", "total_s"),
        "symbolic.image.calls": one("symbolic.image", "calls"),
        "symbolic.image.s": one("symbolic.image", "total_s"),
        "symbolic.preimage.calls": one("symbolic.preimage", "calls"),
        "symbolic.preimage.s": one("symbolic.preimage", "total_s"),
        "symbolic.reachable.s": one("symbolic.reachable", "total_s"),
        "bdd.op.calls": spans("bdd.", "calls"),
        "bdd.op.self_s": spans("bdd.", "self_s"),
        "bdd.peak_live_nodes": raw.get("bdd_peak_live_nodes", 0),
        "bdd.gc_runs": raw.get("bdd_gc_runs", 0),
        "bdd.cache_hit_rate": _ratio(raw.get("bdd_hits", 0), raw.get("bdd_lookups", 0)),
        "sat.solve.calls": one("sat.solve", "calls"),
        "sat.solve.self_s": one("sat.solve", "self_s"),
        "sat.conflicts": raw.get("sat_conflicts", 0),
        "sat.decisions": raw.get("sat_decisions", 0),
        "sat.propagations": raw.get("sat_propagations", 0),
        "sat.learned_clauses": raw.get("sat_learned_clauses", 0),
        "sat.props_per_s": _ratio(
            raw.get("sat_propagations", 0), one("sat.solve", "total_s")
        ),
    }
    for engine in MC_ENGINES:
        metrics["mc.%s.calls" % engine] = one("mc." + engine, "calls")
        metrics["mc.%s.self_s" % engine] = one("mc." + engine, "self_s")
    obligations = raw.get("ic3_obligations", 0)
    metrics.update(
        {
            "ic3.frames": raw.get("ic3_frames", 0),
            "ic3.obligations": obligations,
            "ic3.cubes_blocked": raw.get("ic3_cubes_blocked", 0),
            "ic3.relative_queries": raw.get("ic3_relative_queries", 0),
            "ic3.certificate_clauses": raw.get("ic3_certificate_clauses", 0),
            "ic3.block_ratio": _ratio(raw.get("ic3_cubes_blocked", 0), obligations),
            "bmc.solvers": raw.get("bmc_solvers", 0),
            "bmc.cex_depth": raw.get("bmc_cex_depth", 0),
            "corr.find.calls": one("corr.find", "calls"),
            "corr.find.self_s": one("corr.find", "self_s"),
            "corr.relation_pairs": raw.get("corr_pairs", 0),
            "corr.max_degree": raw.get("corr_max_degree", 0),
            "corr.pairs_per_s": _ratio(
                raw.get("corr_pairs", 0), one("corr.find", "total_s")
            ),
            "runtime.race.calls": one("runtime.race", "calls"),
            "runtime.race.s": one("runtime.race", "total_s"),
            "runtime.overhead_s": raw.get("runtime_overhead_s", 0),
            "runtime.crashes": raw.get("runtime_crashes", 0),
            "runtime.restarts": raw.get("runtime_restarts", 0),
        }
    )
    traced_total = spans("", "self_s")
    for layer in LAYERS:
        metrics["share." + layer] = _ratio(spans(layer + ".", "self_s"), traced_total)
    return metrics
