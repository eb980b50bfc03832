"""The project-specific rule set (RL001–RL007).

Each rule pins one platform invariant that otherwise lives only in review
culture:

========  ======================  =============================================
RL001     no-nondeterminism       library code takes rng/seed as parameters;
                                  wall clocks and global RNG are banned
RL002     config-serializable     ``SerializableConfig`` dataclasses stay
                                  JSON-round-trippable (annotated, immutable
                                  defaults, representable field types)
RL003     stage-contract          every Stage class is registered in
                                  ``STAGE_REGISTRY`` under its own ``name``,
                                  and ``run_batch`` never appears without
                                  the scalar ``run`` fallback
RL004     metric-names            telemetry name literals match the
                                  ``metric_key`` grammar and the generated
                                  ``repro.obs.metric_names`` registry
RL005     float-equality          no ``==``/``!=`` against float literals in
                                  library code (use ``np.isclose`` or a
                                  justified exact-sentinel suppression)
RL006     silent-except           no bare or pass-only exception handlers
RL007     unjustified-suppression every ``reprolint: disable`` carries a
                                  ``-- reason``
========  ======================  =============================================

Rules are pure AST walks — nothing here imports the code under analysis, so
the linter can run on a tree that does not even import cleanly.

Importing this module registers the rules. It re-exports the engine's
``RULE_REGISTRY`` and ``lint_paths``, and the package and the command line
take both from here, so neither comes without its rules.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from .framework import (
    RULE_REGISTRY,
    FileContext,
    Finding,
    ProjectRule,
    Rule,
    lint_paths,
    register_rule,
)

__all__ = [
    "RULE_REGISTRY",
    "lint_paths",
    "METRIC_NAME_RE",
    "METRIC_EMIT_METHODS",
    "NoNondeterminismRule",
    "ConfigSerializableRule",
    "StageContractRule",
    "MetricNamesRule",
    "FloatEqualityRule",
    "SilentExceptRule",
    "UnjustifiedSuppressionRule",
    "collect_metric_emissions",
]

#: Bare metric-name grammar: lowercase dotted segments, matching every name
#: `metric_key` encodes (labels are appended at runtime, not in the literal).
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$")

#: Methods whose first positional string literal is a metric name —
#: ``Telemetry.count/gauge/observe/observe_many`` and
#: ``MetricsRegistry.counter/gauge/histogram``.
METRIC_EMIT_METHODS = frozenset(
    {"count", "counter", "gauge", "histogram", "observe", "observe_many"}
)


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for an attribute chain, '' when it is not a plain chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _walk(tree: ast.AST) -> Iterator[ast.AST]:
    return ast.walk(tree)


# --------------------------------------------------------------------------
# RL001 — no-nondeterminism
# --------------------------------------------------------------------------

#: Wall-clock calls banned in library code (telemetry's perf_counter spans
#: measure *durations* and stay allowed; absolute time must flow in).
_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "date.today",
    }
)

#: Legacy module-level numpy RNG entry points (shared global stream).
_NP_RANDOM_LEGACY = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "choice",
        "shuffle",
        "permutation",
        "normal",
        "uniform",
        "standard_normal",
        "exponential",
        "poisson",
        "get_state",
        "set_state",
    }
)


@register_rule
class NoNondeterminismRule(Rule):
    """Library paths must be a function of their inputs.

    Bit-identity pins (batch==scalar, sanitize-clean==identity, the
    all-default scenario) only hold if nothing inside ``src/repro`` reads a
    wall clock or a process-global RNG. Randomness enters through an
    explicit ``rng``/``seed`` parameter; time enters as data.
    """

    code = "RL001"
    name = "no-nondeterminism"
    description = (
        "ban wall clocks (time.time, datetime.now) and global RNG "
        "(np.random.*, seedless default_rng()) in library code"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.library:
            return
        assert ctx.tree is not None
        for node in _walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted in _CLOCK_CALLS:
                yield ctx.finding(
                    self.code,
                    node,
                    f"wall-clock call {dotted}() in library code; pass the "
                    f"timestamp in as a parameter (determinism in "
                    f"(seed, trip_index) depends on it)",
                )
                continue
            tail = dotted.rsplit(".", 1)[-1] if dotted else ""
            if (
                dotted.startswith(("np.random.", "numpy.random."))
                and tail in _NP_RANDOM_LEGACY
            ):
                yield ctx.finding(
                    self.code,
                    node,
                    f"module-level RNG {dotted}() uses the shared global "
                    f"stream; take an np.random.Generator (rng=) or an "
                    f"explicit seed parameter instead",
                )
                continue
            if tail == "default_rng" and not node.args and not node.keywords:
                yield ctx.finding(
                    self.code,
                    node,
                    "default_rng() without a seed is entropy-seeded; thread "
                    "an explicit seed or Generator through instead",
                )


# --------------------------------------------------------------------------
# RL002 — config-serializable
# --------------------------------------------------------------------------

#: Annotation names that can never round-trip through config_to_dict/json.
_UNSERIALIZABLE_NAMES = frozenset(
    {"Any", "Callable", "ndarray", "np.ndarray", "numpy.ndarray", "set", "frozenset",
     "bytes", "object", "Telemetry"}
)

_MUTABLE_FACTORIES = frozenset({"list", "dict", "set"})


def _is_serializable_config(node: ast.ClassDef) -> bool:
    for base in node.bases:
        name = _dotted(base)
        if name.rsplit(".", 1)[-1] == "SerializableConfig":
            return True
    return False


def _annotation_problem(node: ast.expr) -> str | None:
    """Why an annotation cannot round-trip through JSON, or None if fine."""
    if isinstance(node, ast.Constant):
        if node.value is None:
            return None
        if isinstance(node.value, str):  # forward reference: trust it
            return None
        return f"constant annotation {node.value!r}"
    if isinstance(node, (ast.Name, ast.Attribute)):
        dotted = _dotted(node)
        tail = dotted.rsplit(".", 1)[-1]
        if dotted in _UNSERIALIZABLE_NAMES or tail in _UNSERIALIZABLE_NAMES:
            return f"type {dotted or tail!s} is not JSON-representable"
        return None  # builtins (int/float/bool/str) or a nested config class
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotation_problem(node.left) or _annotation_problem(node.right)
    if isinstance(node, ast.Subscript):
        base = _dotted(node.value).rsplit(".", 1)[-1]
        if base in {"set", "frozenset", "Set", "FrozenSet", "Callable"}:
            return f"type {base}[...] is not JSON-representable"
        inner = node.slice
        elts = inner.elts if isinstance(inner, ast.Tuple) else [inner]
        for elt in elts:
            if isinstance(elt, ast.Constant) and elt.value is Ellipsis:
                continue
            problem = _annotation_problem(elt)
            if problem:
                return problem
        return None
    return None  # anything fancier is left to mypy


def _mutable_default(value: ast.expr | None) -> str | None:
    if value is None:
        return None
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return "mutable literal default"
    if isinstance(value, ast.Call):
        fname = _dotted(value.func).rsplit(".", 1)[-1]
        if fname in _MUTABLE_FACTORIES:
            return f"mutable default {fname}()"
        if fname == "field":
            for kw in value.keywords:
                if kw.arg == "default_factory":
                    factory = _dotted(kw.value).rsplit(".", 1)[-1]
                    if factory in _MUTABLE_FACTORIES:
                        return f"field(default_factory={factory})"
    return None


@register_rule
class ConfigSerializableRule(Rule):
    """``SerializableConfig`` dataclasses must stay pure data.

    The round-trip layer (:mod:`repro.config`) can only reconstruct fields
    it can annotate-decode: JSON scalars, ``X | None``, tuples, and nested
    config dataclasses. Mutable defaults additionally alias state between
    instances and break ``frozen=True`` hashing.
    """

    code = "RL002"
    name = "config-serializable"
    description = (
        "SerializableConfig dataclasses: fully annotated fields, "
        "JSON-representable types, no mutable defaults"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        assert ctx.tree is not None
        for node in _walk(ctx.tree):
            if not isinstance(node, ast.ClassDef) or not _is_serializable_config(node):
                continue
            cls = node.name
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if (
                            isinstance(target, ast.Name)
                            and not target.id.startswith("_")
                        ):
                            yield ctx.finding(
                                self.code,
                                stmt,
                                f"{cls}.{target.id}: no type annotation, so "
                                f"dataclasses treats it as a class attribute "
                                f"and it silently drops out of to_dict()",
                            )
                    continue
                if not isinstance(stmt, ast.AnnAssign):
                    continue
                target = stmt.target
                if not isinstance(target, ast.Name) or target.id.startswith("_"):
                    continue
                if _dotted(stmt.annotation).rsplit(".", 1)[-1] == "ClassVar" or (
                    isinstance(stmt.annotation, ast.Subscript)
                    and _dotted(stmt.annotation.value).rsplit(".", 1)[-1] == "ClassVar"
                ):
                    continue
                problem = _annotation_problem(stmt.annotation)
                if problem:
                    yield ctx.finding(
                        self.code,
                        stmt,
                        f"{cls}.{target.id}: {problem}; config fields must "
                        f"survive config_to_dict -> JSON -> config_from_dict",
                    )
                mutable = _mutable_default(stmt.value)
                if mutable:
                    yield ctx.finding(
                        self.code,
                        stmt,
                        f"{cls}.{target.id}: {mutable}; use a tuple (or a "
                        f"nested config default_factory) so instances share "
                        f"no state and the config stays hashable",
                    )


# --------------------------------------------------------------------------
# RL003 — stage-contract (project rule)
# --------------------------------------------------------------------------


def _stage_name_attr(node: ast.ClassDef) -> tuple[str, ast.stmt] | None:
    """The class-level ``name = "literal"`` assignment, if present."""
    for stmt in node.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == "name"
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str)
        ):
            return stmt.value.value, stmt
    return None


def _has_method(node: ast.ClassDef, method: str) -> bool:
    return any(
        isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and stmt.name == method
        for stmt in node.body
    )


@register_rule
class StageContractRule(ProjectRule):
    """Every concrete Stage class is registered under its own ``name``.

    A stage class that is never passed to ``register_stage`` cannot be
    reached from ``config.stages`` (dead pipeline code); a registration
    string that differs from the class's ``name`` attribute breaks the
    telemetry span labels, which use ``stage.name``. A stage that defines
    ``run_batch`` without ``run`` is equally broken: the batch dispatcher
    treats ``run_batch`` as an optional acceleration whose mandatory
    fallback is the scalar ``run`` — ``run`` is the per-trip contract that
    ``run_batch`` must reproduce.
    """

    code = "RL003"
    name = "stage-contract"
    description = (
        "Stage subclasses must be registered in STAGE_REGISTRY, the "
        "registered key must equal the class's name attribute, and a "
        "stage defining run_batch must also define run"
    )

    def check_project(self, ctxs: list[FileContext]) -> Iterator[Finding]:
        # Pass 1: every register_stage("key", factory) call; record which
        # class names the factory expression mentions.
        registered: dict[str, set[str]] = {}
        for ctx in ctxs:
            if ctx.tree is None:
                continue
            for node in _walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                if _dotted(node.func).rsplit(".", 1)[-1] != "register_stage":
                    continue
                if not node.args or not (
                    isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                ):
                    continue
                key = node.args[0].value
                classes = registered.setdefault(key, set())
                for arg in node.args[1:]:
                    for sub in _walk(arg):
                        if isinstance(sub, ast.Name):
                            classes.add(sub.id)
                        elif isinstance(sub, ast.Attribute):
                            classes.add(sub.attr)

        class_to_keys: dict[str, set[str]] = {}
        for key, classes in registered.items():
            for cls in classes:
                class_to_keys.setdefault(cls, set()).add(key)

        # Pass 2: every concrete stage class (has run() + literal name).
        for ctx in ctxs:
            if ctx.tree is None:
                continue
            for node in _walk(ctx.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                if not node.name.endswith("Stage") or node.name == "Stage":
                    continue
                if _has_method(node, "run_batch") and not _has_method(node, "run"):
                    yield ctx.finding(
                        self.code,
                        node,
                        f"stage class {node.name} defines run_batch() but "
                        f"no run(); run_batch is an optional batch "
                        f"acceleration — the scalar run() is its mandatory "
                        f"fallback and the per-trip contract it must "
                        f"reproduce",
                    )
                named = _stage_name_attr(node)
                if named is None or not _has_method(node, "run"):
                    continue
                stage_name, stmt = named
                keys = class_to_keys.get(node.name, set())
                if not keys:
                    yield ctx.finding(
                        self.code,
                        node,
                        f"stage class {node.name} (name={stage_name!r}) is "
                        f"never registered via register_stage(), so no "
                        f"config.stages tuple can reach it",
                    )
                elif stage_name not in keys:
                    yield ctx.finding(
                        self.code,
                        stmt,
                        f"stage class {node.name} is registered under "
                        f"{sorted(keys)} but its name attribute is "
                        f"{stage_name!r}; the registry key and stage.name "
                        f"must match",
                    )


# --------------------------------------------------------------------------
# RL004 — metric-names (project rule)
# --------------------------------------------------------------------------


def collect_metric_emissions(
    ctxs: list[FileContext],
) -> list[tuple[FileContext, ast.Call, str]]:
    """Every ``(file, call, name)`` metric emission with a literal name."""
    out: list[tuple[FileContext, ast.Call, str]] = []
    for ctx in ctxs:
        if ctx.tree is None:
            continue
        for node in _walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in METRIC_EMIT_METHODS
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                out.append((ctx, node, node.args[0].value))
    return out


def _registry_names(ctxs: list[FileContext]) -> tuple[set[str] | None, FileContext | None]:
    """``METRIC_NAMES`` parsed out of a scanned ``metric_names.py``, if any."""
    for ctx in ctxs:
        if ctx.path.name != "metric_names.py" or ctx.tree is None:
            continue
        for node in _walk(ctx.tree):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "METRIC_NAMES"
            ):
                names: set[str] = set()
                for sub in _walk(node.value):
                    if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                        names.add(sub.value)
                return names, ctx
    return None, None


@register_rule
class MetricNamesRule(ProjectRule):
    """Telemetry names form a closed, grammar-checked vocabulary.

    Exporters, dashboards and benchtrack rules key on metric names; a typo
    in one emission site would silently fork a time series. Every literal
    must parse under the ``metric_key`` grammar and appear in the generated
    ``repro.obs.metric_names`` registry (regenerate with
    ``python -m repro.lint --write-metric-names src/repro``). When the
    registry module is not part of the scanned tree, only the grammar is
    checked, so single-file lints stay useful.
    """

    code = "RL004"
    name = "metric-names"
    description = (
        "metric name literals must match the metric_key grammar and be "
        "declared in the generated repro.obs.metric_names registry"
    )

    def check_project(self, ctxs: list[FileContext]) -> Iterator[Finding]:
        emissions = collect_metric_emissions(ctxs)
        declared, _registry_ctx = _registry_names(ctxs)
        for ctx, node, metric in emissions:
            if not METRIC_NAME_RE.match(metric):
                yield ctx.finding(
                    self.code,
                    node,
                    f"metric name {metric!r} violates the metric_key grammar "
                    f"(lowercase dotted segments, [a-z][a-z0-9_]*); labels "
                    f"belong in labels=, not in the name",
                )
                continue
            if declared is not None and ctx.library and metric not in declared:
                yield ctx.finding(
                    self.code,
                    node,
                    f"metric name {metric!r} is not declared in "
                    f"repro.obs.metric_names; regenerate the registry with "
                    f"`python -m repro.lint --write-metric-names src/repro`",
                )


# --------------------------------------------------------------------------
# RL005 — float-equality
# --------------------------------------------------------------------------


def _is_float_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_float_literal(node.operand)
    return False


@register_rule
class FloatEqualityRule(Rule):
    """``==``/``!=`` against a float literal is almost always a tolerance bug.

    Estimation code compares quantities that went through floating-point
    arithmetic; exact equality silently becomes never-true (or worse,
    platform-dependent). Use ``np.isclose``/``math.isclose`` with an explicit
    tolerance — or, for genuine exact-sentinel checks (a value that is only
    ever *assigned* the sentinel, never computed), a justified suppression.
    """

    code = "RL005"
    name = "float-equality"
    description = (
        "ban == / != against float literals in library code; use "
        "np.isclose or a justified exact-sentinel suppression"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.library:
            return
        assert ctx.tree is not None
        for node in _walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                literal = next(
                    (n for n in (left, right) if _is_float_literal(n)), None
                )
                if literal is None:
                    continue
                sym = "==" if isinstance(op, ast.Eq) else "!="
                yield ctx.finding(
                    self.code,
                    node,
                    f"float literal compared with {sym}; use np.isclose / "
                    f"math.isclose with an explicit tolerance, or suppress "
                    f"with a justification if this is an exact sentinel",
                )


# --------------------------------------------------------------------------
# RL006 — silent-except
# --------------------------------------------------------------------------


def _swallows_silently(handler: ast.ExceptHandler) -> bool:
    for stmt in handler.body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring / ellipsis
        return False
    return True


@register_rule
class SilentExceptRule(Rule):
    """Estimation paths must not eat exceptions.

    A swallowed exception inside a stage turns a degraded trip into a
    silently wrong gradient map. Handlers either narrow and re-raise, wrap
    in a library error (``SensorError``/``EstimationError``), or at minimum
    count the event through telemetry before continuing.
    """

    code = "RL006"
    name = "silent-except"
    description = (
        "no bare excepts and no pass-only handlers; re-raise, wrap, or "
        "count the failure via telemetry"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        assert ctx.tree is not None
        for node in _walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield ctx.finding(
                    self.code,
                    node,
                    "bare `except:` catches SystemExit/KeyboardInterrupt "
                    "too; name the exception types",
                )
            elif _swallows_silently(node):
                yield ctx.finding(
                    self.code,
                    node,
                    "exception handler swallows the error with no action; "
                    "re-raise, wrap in a repro error, or count it via "
                    "telemetry",
                )


# --------------------------------------------------------------------------
# RL007 — unjustified-suppression
# --------------------------------------------------------------------------


@register_rule
class UnjustifiedSuppressionRule(Rule):
    """Suppressions must say *why* (``-- reason``), so waivers stay auditable."""

    code = "RL007"
    name = "unjustified-suppression"
    description = (
        "every `# reprolint: disable=...` comment must carry a "
        "`-- justification`"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for sup in ctx.suppressions:
            if not sup.justified:
                yield ctx.finding(
                    self.code,
                    sup.line,
                    f"suppression of {', '.join(sup.rules)} has no "
                    f"justification; append `-- <why this is safe>`",
                )
