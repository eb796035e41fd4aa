"""The determinism & unit-discipline rules (TMO001-TMO008).

Every rule targets a failure mode this simulator has actually been
bitten by or is structurally exposed to; docs/LINTING.md anchors each
one to the design decision it protects.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.astutil import (
    DIMENSIONED_UNITS,
    dotted_name,
    expr_unit,
    is_ambiguous_name,
)
from repro.lint.registry import FileContext, LintRule, register
from repro.lint.violations import Violation

# ----------------------------------------------------------------------
# TMO001 — global RNG state


@register
class GlobalRngRule(LintRule):
    """Randomness must flow through ``repro.sim.rng.derive_rng``.

    Calls into ``numpy.random``'s module-level API (``default_rng``,
    ``seed``, ``rand``, ...) or the stdlib ``random`` module create or
    mutate RNG state outside the seed-derivation tree, so two runs with
    the same host seed can diverge. Components must accept a
    ``numpy.random.Generator`` or call ``derive_rng(seed, label)``.
    """

    rule_id = "TMO001"
    name = "no-global-rng"
    summary = (
        "np.random.* / random.* call bypasses derive_rng seed discipline"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.path_exempt():
            return
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.imports.resolve_call(node)
            if resolved is None:
                continue
            if resolved.startswith("numpy.random."):
                func = resolved[len("numpy.random."):]
                yield self.violation(
                    ctx, node,
                    f"call to numpy.random.{func} bypasses the seed "
                    "derivation tree; take a numpy.random.Generator or "
                    "use repro.sim.rng.derive_rng(seed, label)",
                )
            elif resolved.startswith("random.") or resolved == "random":
                yield self.violation(
                    ctx, node,
                    f"call into the stdlib random module ({resolved}) "
                    "uses hidden global RNG state; use "
                    "repro.sim.rng.derive_rng(seed, label) instead",
                )


# ----------------------------------------------------------------------
# TMO002 — wall-clock reads

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.sleep",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)


@register
class WallClockRule(LintRule):
    """Simulated time only: no wall-clock or host-entropy reads.

    The simulator's clock (:class:`repro.sim.clock.Clock`) is the only
    source of time; reading the host's clock or entropy pool makes a
    run irreproducible and couples results to the machine it ran on.
    """

    rule_id = "TMO002"
    name = "no-wall-clock"
    summary = "wall-clock/entropy read inside the simulator"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.path_exempt():
            return
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.imports.resolve_call(node)
            if resolved in _WALL_CLOCK_CALLS:
                yield self.violation(
                    ctx, node,
                    f"{resolved} reads the host's wall clock or entropy "
                    "pool; simulated components must use the sim Clock "
                    "(clock.now) so runs stay deterministic",
                )


# ----------------------------------------------------------------------
# TMO003 — iteration over unordered sets


def _is_set_expr(node: ast.AST, set_names: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    return False


class _SetIterVisitor(ast.NodeVisitor):
    """Tracks names bound to set expressions per scope and flags
    order-sensitive consumption of them."""

    _ORDER_SENSITIVE_WRAPPERS = ("list", "tuple", "iter", "enumerate")

    def __init__(self, rule: "SetIterationRule", ctx: FileContext) -> None:
        self.rule = rule
        self.ctx = ctx
        self.findings: List[Violation] = []
        self._scopes: List[Set[str]] = [set()]

    # -- scope management

    def _push_scope(self, node: ast.AST) -> None:
        self._scopes.append(set())
        self.generic_visit(node)
        self._scopes.pop()

    visit_FunctionDef = _push_scope
    visit_AsyncFunctionDef = _push_scope
    visit_Lambda = _push_scope

    def _set_names(self) -> Set[str]:
        names: Set[str] = set()
        for scope in self._scopes:
            names |= scope
        return names

    def visit_Assign(self, node: ast.Assign) -> None:
        is_set = _is_set_expr(node.value, self._set_names())
        for target in node.targets:
            if isinstance(target, ast.Name):
                if is_set:
                    self._scopes[-1].add(target.id)
                else:
                    for scope in self._scopes:
                        scope.discard(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None and isinstance(node.target, ast.Name):
            if _is_set_expr(node.value, self._set_names()):
                self._scopes[-1].add(node.target.id)
        self.generic_visit(node)

    # -- consumption sites

    def _flag(self, node: ast.AST, how: str) -> None:
        self.findings.append(
            self.rule.violation(
                self.ctx, node,
                f"{how} iterates a set in hash-randomised order; wrap "
                "it in sorted(...) to fix the traversal order",
            )
        )

    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter, self._set_names()):
            self._flag(node.iter, "for loop")
        self.generic_visit(node)

    def _check_comprehension(self, node) -> None:
        for gen in node.generators:
            if _is_set_expr(gen.iter, self._set_names()):
                self._flag(gen.iter, "comprehension")
        self.generic_visit(node)

    visit_ListComp = _check_comprehension
    visit_GeneratorExp = _check_comprehension
    visit_DictComp = _check_comprehension

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # Building another set from a set is order-insensitive.
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id in self._ORDER_SENSITIVE_WRAPPERS
            and node.args
            and _is_set_expr(node.args[0], self._set_names())
        ):
            self._flag(node, f"{func.id}(...) over a set")
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "join"
            and node.args
            and _is_set_expr(node.args[0], self._set_names())
        ):
            self._flag(node, "str.join over a set")
        self.generic_visit(node)


@register
class SetIterationRule(LintRule):
    """Iterating a set leaks hash-randomised order into results.

    Under ``PYTHONHASHSEED`` randomisation, two identical runs can
    traverse a set of strings in different orders, which perturbs any
    order-sensitive downstream state (RNG consumption, tie-breaks,
    metric emission order). Iterate ``sorted(the_set)`` instead.
    """

    rule_id = "TMO003"
    name = "no-set-iteration"
    summary = "iteration over an unordered set without sorted(...)"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        visitor = _SetIterVisitor(self, ctx)
        visitor.visit(ctx.tree)
        yield from visitor.findings


# ----------------------------------------------------------------------
# TMO004 — unit discipline


@register
class UnitDisciplineRule(LintRule):
    """Quantities in public signatures must say their unit.

    A parameter called ``size`` or ``interval`` forces every caller to
    guess bytes-vs-pages or seconds-vs-milliseconds; the guess that is
    wrong by a factor of 1000 still "works". Public parameters,
    dataclass fields and instance attributes holding sizes, rates or
    durations must carry a unit suffix (``_bytes``, ``_pages``, ``_s``,
    ``_ms``, ...), and one arithmetic expression must never mix two
    different units.
    """

    rule_id = "TMO004"
    name = "unit-discipline"
    summary = "quantity without a unit suffix, or mixed-unit arithmetic"

    _CMP_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        allowed = set(self.rule_options_allowed(ctx))
        yield from self._check_signatures(ctx, allowed)
        yield from self._check_mixing(ctx)

    @staticmethod
    def rule_options_allowed(ctx: FileContext):
        return ctx.options.get("allowed_names", ())

    # -- part A: unit-less names in public signatures

    def _check_signatures(
        self, ctx: FileContext, allowed: Set[str]
    ) -> Iterator[Violation]:
        yield from self._walk_scope(ctx, ctx.tree, allowed, class_public=True)

    def _walk_scope(
        self,
        ctx: FileContext,
        node: ast.AST,
        allowed: Set[str],
        class_public: bool,
    ) -> Iterator[Violation]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                public = class_public and not child.name.startswith("_")
                if public:
                    yield from self._check_class_fields(ctx, child, allowed)
                yield from self._walk_scope(ctx, child, allowed, public)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                public = class_public and (
                    not child.name.startswith("_")
                    or child.name == "__init__"
                )
                if public:
                    yield from self._check_params(ctx, child, allowed)
                    yield from self._check_self_attrs(ctx, child, allowed)
                yield from self._walk_scope(ctx, child, allowed, class_public)
            else:
                yield from self._walk_scope(ctx, child, allowed, class_public)

    def _flag_name(self, ctx, node, name: str, where: str) -> Violation:
        return self.violation(
            ctx, node,
            f"{where} {name!r} holds a quantity but carries no unit "
            "suffix; append _bytes/_pages/_s/_ms (or another recognised "
            "unit) so callers cannot misread the scale",
        )

    def _check_params(
        self, ctx: FileContext, func, allowed: Set[str]
    ) -> Iterator[Violation]:
        args = func.args
        params = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        for arg in params:
            name = arg.arg
            if name in ("self", "cls") or name.startswith("_"):
                continue
            if name in allowed:
                continue
            if is_ambiguous_name(name):
                yield self._flag_name(
                    ctx, arg, name, f"parameter of {func.name}()"
                )

    def _check_class_fields(
        self, ctx: FileContext, cls: ast.ClassDef, allowed: Set[str]
    ) -> Iterator[Violation]:
        for stmt in cls.body:
            targets: List[ast.expr] = []
            if isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            elif isinstance(stmt, ast.Assign):
                targets = stmt.targets
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                name = target.id
                if name.startswith("_") or name in allowed:
                    continue
                if is_ambiguous_name(name):
                    yield self._flag_name(
                        ctx, target, name, f"field of class {cls.name}"
                    )

    def _check_self_attrs(
        self, ctx: FileContext, func, allowed: Set[str]
    ) -> Iterator[Violation]:
        for node in ast.walk(func):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    name = target.attr
                    if name.startswith("_") or name in allowed:
                        continue
                    if is_ambiguous_name(name):
                        yield self._flag_name(
                            ctx, target, name, "attribute self."
                        )

    # -- part B: mixed-unit arithmetic

    def _check_mixing(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ctx.nodes:
            pairs: List[Tuple[ast.AST, ast.AST]] = []
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                pairs.append((node.left, node.right))
            elif isinstance(node, ast.Compare):
                operands = [node.left] + list(node.comparators)
                for op, left, right in zip(
                    node.ops, operands, operands[1:]
                ):
                    if isinstance(op, self._CMP_OPS):
                        pairs.append((left, right))
            for left, right in pairs:
                lu, ru = expr_unit(left), expr_unit(right)
                if (
                    lu is not None
                    and ru is not None
                    and lu != ru
                    and lu in DIMENSIONED_UNITS
                    and ru in DIMENSIONED_UNITS
                ):
                    yield self.violation(
                        ctx, node,
                        f"expression mixes units {lu!r} and {ru!r}; "
                        "convert one operand explicitly before "
                        "adding/comparing",
                    )


# ----------------------------------------------------------------------
# TMO005 — mutable default arguments

_MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "bytearray",
     "collections.OrderedDict", "collections.defaultdict",
     "collections.deque", "collections.Counter"}
)


@register
class MutableDefaultRule(LintRule):
    """Mutable default arguments are shared across every call.

    A ``def f(items=[])`` accumulates state between calls — classic
    cross-run contamination that breaks run-to-run identity even with
    fixed seeds.
    """

    rule_id = "TMO005"
    name = "no-mutable-default"
    summary = "mutable default argument"

    def _is_mutable(self, node: ast.AST, ctx: FileContext) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name in _MUTABLE_FACTORIES:
                return True
            resolved = ctx.imports.resolve(name)
            if resolved in _MUTABLE_FACTORIES:
                return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ctx.nodes:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default, ctx):
                    yield self.violation(
                        ctx, default,
                        f"mutable default argument in {node.name}(); "
                        "use None and construct inside the function",
                    )


# ----------------------------------------------------------------------
# TMO006 — float equality on sim time

_TIME_SUFFIXES = ("_s", "_sec", "_secs", "_seconds", "_ms", "_us",
                  "_ns", "_time", "_deadline")
_TIME_NAMES = frozenset({"now", "when", "deadline", "t0", "t1"})


def _time_like(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        return None
    if name in _TIME_NAMES or name.endswith(_TIME_SUFFIXES):
        return name
    return None


@register
class FloatTimeEqualityRule(LintRule):
    """Accumulated sim-time must not be compared with ``==``.

    The clock accumulates float tick deltas, so ``now == 600.0`` is
    true or false depending on rounding of the accumulation path — an
    epsilon comparison or an integer tick index is required.
    """

    rule_id = "TMO006"
    name = "no-float-time-equality"
    summary = "==/!= comparison on accumulated simulation time"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                name = _time_like(left) or _time_like(right)
                if name is not None:
                    yield self.violation(
                        ctx, node,
                        f"float equality on sim-time value {name!r}; "
                        "accumulated float time needs an epsilon window "
                        "or an integer tick counter",
                    )


# ----------------------------------------------------------------------
# TMO007 — RNG shared across components

_RNG_PRODUCERS = ("derive_rng", "default_rng")


class _SharedRngVisitor(ast.NodeVisitor):
    def __init__(self, rule: "SharedRngRule", ctx: FileContext) -> None:
        self.rule = rule
        self.ctx = ctx
        self.findings: List[Violation] = []
        self._scopes: List[Dict[str, int]] = [{}]  # rng name -> uses

    def _enter_function(self, node) -> None:
        scope: Dict[str, int] = {}
        for arg in list(node.args.args) + list(node.args.kwonlyargs):
            annotation = getattr(arg, "annotation", None)
            if annotation is not None:
                ann = dotted_name(annotation)
                if ann is not None and ann.split(".")[-1] == "Generator":
                    scope[arg.arg] = 0
        self._scopes.append(scope)
        self.generic_visit(node)
        self._scopes.pop()

    visit_FunctionDef = _enter_function
    visit_AsyncFunctionDef = _enter_function

    def _lookup(self, name: str) -> Optional[Dict[str, int]]:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope
        return None

    def visit_Assign(self, node: ast.Assign) -> None:
        produces_rng = False
        if isinstance(node.value, ast.Call):
            callee = dotted_name(node.value.func) or ""
            if callee.split(".")[-1] in _RNG_PRODUCERS:
                produces_rng = True
        for target in node.targets:
            if isinstance(target, ast.Name):
                if produces_rng:
                    self._scopes[-1][target.id] = 0
                else:
                    scope = self._lookup(target.id)
                    if scope is not None:
                        scope.pop(target.id, None)
        self.generic_visit(node)

    @staticmethod
    def _is_component_call(func: ast.AST) -> bool:
        name = dotted_name(func)
        if name is None:
            return False
        tail = name.split(".")[-1]
        return tail[:1].isupper() or tail.startswith("make_")

    def visit_Call(self, node: ast.Call) -> None:
        if self._is_component_call(node.func):
            values = list(node.args) + [kw.value for kw in node.keywords]
            for value in values:
                if not isinstance(value, ast.Name):
                    continue
                scope = self._lookup(value.id)
                if scope is None:
                    continue
                scope[value.id] += 1
                if scope[value.id] > 1:
                    self.findings.append(
                        self.rule.violation(
                            self.ctx, node,
                            f"generator {value.id!r} is handed to more "
                            "than one component; each component must "
                            "own an independent stream — derive one "
                            "per component with derive_rng(seed, label)",
                        )
                    )
        self.generic_visit(node)


@register
class SharedRngRule(LintRule):
    """One ``Generator``, one component.

    Two components drawing from the same generator interleave their
    streams: adding a draw in one silently changes every number the
    other sees. Each component derives its own generator with a stable
    label instead.
    """

    rule_id = "TMO007"
    name = "no-shared-rng"
    summary = "one RNG object passed to multiple component constructors"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        visitor = _SharedRngVisitor(self, ctx)
        visitor.visit(ctx.tree)
        yield from visitor.findings


# ----------------------------------------------------------------------
# TMO008 — swallowed exceptions


@register
class ExceptionSwallowRule(LintRule):
    """Invariant violations must not be silently swallowed.

    A bare ``except:`` (or ``except Exception: pass``) absorbs the
    assertion/accounting errors the substrate raises when its internal
    state goes bad — the run continues with corrupt state and produces
    a plausible-looking but wrong figure.
    """

    rule_id = "TMO008"
    name = "no-swallowed-exceptions"
    summary = "bare except, or except Exception with an empty body"

    _BROAD = frozenset({"Exception", "BaseException"})

    @staticmethod
    def _body_is_empty(body: List[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Constant
            ) and stmt.value.value is Ellipsis:
                continue
            return False
        return True

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ctx.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.violation(
                    ctx, node,
                    "bare except: catches everything including "
                    "invariant violations; name the exception types "
                    "this handler is prepared to handle",
                )
                continue
            type_name = dotted_name(node.type)
            if (
                type_name is not None
                and type_name.split(".")[-1] in self._BROAD
                and self._body_is_empty(node.body)
            ):
                yield self.violation(
                    ctx, node,
                    f"except {type_name}: pass swallows every error "
                    "silently; handle or at least record the failure",
                )


# ----------------------------------------------------------------------
# TMO013 — no pickle/marshal serialization


@register
class OpaqueSerializationRule(LintRule):
    """State must serialize through the versioned snapshot format.

    ``pickle``/``marshal`` documents are neither versioned nor
    canonical: their bytes drift across interpreter versions, they
    silently skew when a class changes shape, and unpickling executes
    arbitrary code. Everything :mod:`repro.checkpoint` guarantees —
    schema-version refusal, digest integrity, bit-reproducible
    restores — an opaque binary blob cannot.
    """

    rule_id = "TMO013"
    name = "no-opaque-serialization"
    summary = "pickle/marshal serialization (non-versioned, opaque)"

    #: The opaque-serialization stdlib surface: pickle and its
    #: implementation aliases, marshal, and the pickle-backed shelve.
    _BANNED = frozenset({"pickle", "cPickle", "_pickle", "marshal",
                         "shelve"})

    def _message(self, module: str) -> str:
        return (
            f"{module} is non-versioned, non-deterministic "
            "serialization; snapshot state through repro.checkpoint's "
            "versioned, digest-checked format instead"
        )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ctx.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in self._BANNED:
                        yield self.violation(
                            ctx, node, self._message(alias.name)
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if node.level == 0 and root in self._BANNED:
                    yield self.violation(
                        ctx, node, self._message(node.module)
                    )
