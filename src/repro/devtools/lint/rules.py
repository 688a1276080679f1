"""The project-specific lint rules behind ``repro-lint``.

Each rule is a small AST (or, for prose, text) analysis encoding one
invariant this codebase has historically broken by hand:

========  ==============================================================
``R001``  Hand-enumerated engine-name lists must match the registry
          (``ENGINE_NAMES`` / ``CTL_ENGINES`` / the SAT complement).
``R002``  No wall-clock reads (``time.time``, ``perf_counter*``, …)
          outside ``obs/`` and ``analysis/timing.py``.
``R003``  No mutable default arguments.
``R004``  Literal span/metric names must belong to the vocabulary
          documented in ``docs/OBSERVABILITY.md``.
``R005``  No bare/blanket ``except`` that swallows the exception.
``R006``  ``__all__`` must only export names the module actually binds.
========  ==============================================================

Rules receive a :class:`LintContext` and yield :class:`Finding` tuples;
suppression (``# repro-lint: disable=R00x`` pragmas) is handled by the
driver in :mod:`repro.devtools.lint.engine`, not here.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Finding",
    "LintContext",
    "Rule",
    "RULES",
    "RULES_BY_ID",
    "load_obs_vocabulary",
]


@dataclass(frozen=True)
class Finding:
    """One lint finding: a rule violation anchored to a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return "%s:%d:%d: %s %s" % (self.path, self.line, self.col, self.rule, self.message)

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


def _default_engine_names() -> Tuple[str, ...]:
    from repro.mc.registry import ENGINE_NAMES

    return tuple(ENGINE_NAMES)


def _default_ctl_engines() -> Tuple[str, ...]:
    from repro.mc.registry import CTL_ENGINES

    return tuple(CTL_ENGINES)


@dataclass
class LintContext:
    """Everything a rule may consult besides the module under analysis."""

    path: str = "<string>"
    engine_names: Tuple[str, ...] = field(default_factory=_default_engine_names)
    ctl_engines: Tuple[str, ...] = field(default_factory=_default_ctl_engines)
    #: Dotted span/metric names documented in docs/OBSERVABILITY.md, or
    #: ``None`` when the document could not be located (R004 then skips).
    obs_vocabulary: Optional[FrozenSet[str]] = None

    @property
    def allowed_engine_sets(self) -> Tuple[FrozenSet[str], ...]:
        full = frozenset(self.engine_names)
        ctl = frozenset(self.ctl_engines)
        return (full, ctl, full - ctl)


_CODE_SPAN = re.compile(r"`([^`\n]+)`")
_DOTTED_NAME = re.compile(r"\b[a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+\b")


def load_obs_vocabulary(text: str) -> FrozenSet[str]:
    """Extract the dotted span/metric vocabulary from OBSERVABILITY.md.

    Every inline-code span is scanned for dotted lowercase names;
    label annotations (``mc.checks{engine=…}``) are stripped first.
    """
    vocabulary = set()
    for code in _CODE_SPAN.findall(text):
        code = code.split("{")[0]
        for token in _DOTTED_NAME.findall(code):
            vocabulary.add(token)
    return frozenset(vocabulary)


class Rule:
    """Base class: one rule id, one invariant, one ``check`` pass."""

    id = "R000"
    title = "abstract rule"
    rationale = ""
    #: Rules with ``text_mode`` also run over prose files (``.md``).
    text_mode = False

    def check_module(
        self, tree: ast.Module, source: str, ctx: LintContext
    ) -> Iterator[Finding]:
        return iter(())

    def check_text(self, text: str, ctx: LintContext) -> Iterator[Finding]:
        return iter(())

    def _finding(self, ctx: LintContext, line: int, col: int, message: str) -> Finding:
        return Finding(path=ctx.path, line=line, col=col, rule=self.id, message=message)


# ---------------------------------------------------------------------------
# R001 — engine-name enumerations must match the registry
# ---------------------------------------------------------------------------


class EngineEnumerationRule(Rule):
    id = "R001"
    title = "engine enumerations must match ENGINE_NAMES"
    rationale = (
        "Hand-maintained engine lists in docstrings/CLI help/docs went stale "
        "in PRs 5-6 every time an engine was added; any run of three or more "
        "engine names must coincide with ENGINE_NAMES, CTL_ENGINES, or the "
        "SAT complement, or carry an explicit pragma."
    )
    text_mode = True

    #: Minimum run length that claims to be an enumeration.  Pairs are
    #: ubiquitous and harmless ("naive/bitset oracles"); triples read as
    #: exhaustive lists and go stale.
    _MIN_RUN = 3

    def _gap_pattern(self) -> re.Pattern:
        # Between two names of one enumeration we allow punctuation,
        # quoting/markup, and the glue words "or"/"and" — nothing else.
        # Sentence-level separators (. ; :) terminate a run.
        return re.compile(r"^(?:[\s,/|&(){}\[\]`'\"*_-]|\bor\b|\band\b)*$", re.IGNORECASE)

    def _runs(self, text: str, ctx: LintContext) -> Iterator[Tuple[int, List[str]]]:
        """Yield ``(offset, [names...])`` for each maximal enumeration run."""
        name_re = re.compile(
            r"\b(%s)\b" % "|".join(re.escape(n) for n in ctx.engine_names),
            re.IGNORECASE,
        )
        gap_ok = self._gap_pattern()
        matches = list(name_re.finditer(text))
        i = 0
        while i < len(matches):
            start = i
            while (
                i + 1 < len(matches)
                and gap_ok.match(text[matches[i].end() : matches[i + 1].start()])
            ):
                i += 1
            run = [m.group(0).lower() for m in matches[start : i + 1]]
            yield matches[start].start(), run
            i += 1

    def _check_blob(
        self, text: str, base_line: int, base_from_offset, ctx: LintContext
    ) -> Iterator[Finding]:
        for offset, run in self._runs(text, ctx):
            if len(run) < self._MIN_RUN:
                continue
            names = frozenset(run)
            if names in ctx.allowed_engine_sets:
                continue
            line = base_from_offset(offset)
            missing = sorted(frozenset(ctx.engine_names) - names)
            yield self._finding(
                ctx,
                line,
                0,
                "engine enumeration {%s} matches neither ENGINE_NAMES nor a "
                "registry subset (CTL/SAT); missing %s — derive the list from "
                "the registry or add a pragma for a deliberate subset"
                % (", ".join(sorted(names)), ", ".join(missing) or "none"),
            )

    def check_module(self, tree, source, ctx):
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                value = node.value
                lineno = node.lineno

                def from_offset(offset, _value=value, _lineno=lineno):
                    return _lineno + _value[:offset].count("\n")

                for finding in self._check_blob(value, lineno, from_offset, ctx):
                    yield finding

    def check_text(self, text, ctx):
        def from_offset(offset):
            return 1 + text[:offset].count("\n")

        for finding in self._check_blob(text, 1, from_offset, ctx):
            yield finding


# ---------------------------------------------------------------------------
# R002 — wall-clock reads only in obs/ and analysis/timing.py
# ---------------------------------------------------------------------------


class WallClockRule(Rule):
    id = "R002"
    title = "no wall-clock reads outside obs/ and analysis/timing.py"
    rationale = (
        "Engines must stay deterministic and measurable: all timing goes "
        "through repro.obs spans or analysis.timing, so a stray "
        "time.perf_counter() in an engine is either dead code or an "
        "unreported measurement."
    )

    _CLOCK_ATTRS = frozenset(
        {
            "time",
            "time_ns",
            "perf_counter",
            "perf_counter_ns",
            "monotonic",
            "monotonic_ns",
            "process_time",
            "process_time_ns",
        }
    )

    _EXEMPT_PARTS = ("/obs/",)
    _EXEMPT_SUFFIXES = ("analysis/timing.py",)

    def _exempt(self, ctx: LintContext) -> bool:
        path = ctx.path.replace("\\", "/")
        if any(part in path for part in self._EXEMPT_PARTS):
            return True
        return any(path.endswith(suffix) for suffix in self._EXEMPT_SUFFIXES)

    def check_module(self, tree, source, ctx):
        if self._exempt(ctx):
            return
        time_aliases = set()
        clock_names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        time_aliases.add(alias.asname or "time")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in self._CLOCK_ATTRS:
                            clock_names.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in self._CLOCK_ATTRS
                and isinstance(node.value, ast.Name)
                and node.value.id in time_aliases
            ):
                yield self._finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    "wall-clock read time.%s is reserved for obs/ and "
                    "analysis/timing.py; use repro.obs spans instead" % node.attr,
                )
            elif (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in clock_names
            ):
                yield self._finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    "wall-clock read %s (imported from time) is reserved for "
                    "obs/ and analysis/timing.py" % node.id,
                )


# ---------------------------------------------------------------------------
# R003 — no mutable default arguments
# ---------------------------------------------------------------------------


class MutableDefaultRule(Rule):
    id = "R003"
    title = "no mutable default arguments"
    rationale = (
        "A mutable default is evaluated once per process and shared across "
        "calls — in a library with long-lived managers and solvers that is "
        "a state-leak bug, not a style nit."
    )

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray", "defaultdict", "deque"})

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            return name in self._MUTABLE_CALLS
        return False

    def check_module(self, tree, source, ctx):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            defaults = list(args.defaults) + [d for d in args.kw_defaults if d is not None]
            for default in defaults:
                if self._is_mutable(default):
                    label = getattr(node, "name", "<lambda>")
                    yield self._finding(
                        ctx,
                        default.lineno,
                        default.col_offset,
                        "mutable default argument in %r; default to None and "
                        "materialise inside the body" % label,
                    )


# ---------------------------------------------------------------------------
# R004 — span/metric names must be documented vocabulary
# ---------------------------------------------------------------------------


class ObsVocabularyRule(Rule):
    id = "R004"
    title = "span/metric names must appear in docs/OBSERVABILITY.md"
    rationale = (
        "The observability vocabulary is an API: traces and dashboards key "
        "on it.  A literal name that is not in the documented inventory is "
        "either a typo or an undocumented signal."
    )

    _SINK_FUNCS = frozenset(
        {"span", "event", "counter", "gauge", "histogram", "_span", "_obs_span", "_obs_event"}
    )

    def check_module(self, tree, source, ctx):
        vocabulary = ctx.obs_vocabulary
        if vocabulary is None:
            return
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in self._SINK_FUNCS:
                continue
            first = node.args[0]
            if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
                continue  # dynamic names ("sat." + field) are out of scope
            candidate = first.value
            if "." not in candidate:
                continue  # single-word names carry no vocabulary contract
            if candidate not in vocabulary:
                yield self._finding(
                    ctx,
                    first.lineno,
                    first.col_offset,
                    "span/metric name %r is not in the docs/OBSERVABILITY.md "
                    "vocabulary; document it or fix the typo" % candidate,
                )


# ---------------------------------------------------------------------------
# R005 — no blanket except that swallows
# ---------------------------------------------------------------------------


class BlanketExceptRule(Rule):
    id = "R005"
    title = "no bare/blanket except swallowing exceptions"
    rationale = (
        "A swallowed Exception in engine code converts a soundness bug into "
        "a silent wrong answer.  Catch the specific error, re-raise, or "
        "pragma the (rare) deliberate shutdown-path guard."
    )

    _BLANKET = frozenset({"Exception", "BaseException"})

    def _is_blanket(self, handler: ast.ExceptHandler) -> bool:
        node = handler.type
        if node is None:
            return True
        if isinstance(node, ast.Name):
            return node.id in self._BLANKET
        if isinstance(node, ast.Tuple):
            return any(
                isinstance(el, ast.Name) and el.id in self._BLANKET for el in node.elts
            )
        return False

    def check_module(self, tree, source, ctx):
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_blanket(node):
                continue
            if any(isinstance(inner, ast.Raise) for inner in ast.walk(node)):
                continue
            what = "bare except" if node.type is None else "blanket except"
            yield self._finding(
                ctx,
                node.lineno,
                node.col_offset,
                "%s swallows the exception; catch the specific error or "
                "re-raise" % what,
            )


# ---------------------------------------------------------------------------
# R006 — __all__ must match module bindings
# ---------------------------------------------------------------------------


class DunderAllRule(Rule):
    id = "R006"
    title = "__all__ entries must name module bindings"
    rationale = (
        "__all__ is the public contract: an entry that no longer exists "
        "breaks `from module import *` and misleads readers about the API."
    )

    def _top_level_names(self, body: Sequence[ast.stmt]) -> Iterable[str]:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield stmt.name
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    yield alias.asname or alias.name.split(".")[0]
            elif isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    for name_node in ast.walk(target):
                        if isinstance(name_node, ast.Name):
                            yield name_node.id
            elif isinstance(stmt, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
                for attr in ("body", "orelse", "finalbody"):
                    yield from self._top_level_names(getattr(stmt, attr, []) or [])
                for handler in getattr(stmt, "handlers", []) or []:
                    yield from self._top_level_names(handler.body)
                if isinstance(stmt, ast.For):
                    for name_node in ast.walk(stmt.target):
                        if isinstance(name_node, ast.Name):
                            yield name_node.id
                if isinstance(stmt, ast.With):
                    for item in stmt.items:
                        if item.optional_vars is not None:
                            for name_node in ast.walk(item.optional_vars):
                                if isinstance(name_node, ast.Name):
                                    yield name_node.id

    def check_module(self, tree, source, ctx):
        exported = None
        for stmt in tree.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == "__all__"
                and isinstance(stmt.value, (ast.List, ast.Tuple))
            ):
                exported = stmt
                break
        if exported is None:
            return
        entries = []
        for element in exported.value.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                entries.append((element.value, element.lineno, element.col_offset))
            else:
                return  # dynamically built __all__: out of scope
        defined = set(self._top_level_names(tree.body))
        seen = set()
        for name, lineno, col in entries:
            if name in seen:
                yield self._finding(
                    ctx, lineno, col, "__all__ lists %r more than once" % name
                )
            seen.add(name)
            if name not in defined:
                yield self._finding(
                    ctx,
                    lineno,
                    col,
                    "__all__ exports %r but the module never binds that name" % name,
                )


RULES: Tuple[Rule, ...] = (
    EngineEnumerationRule(),
    WallClockRule(),
    MutableDefaultRule(),
    ObsVocabularyRule(),
    BlanketExceptRule(),
    DunderAllRule(),
)

RULES_BY_ID = {rule.id: rule for rule in RULES}
