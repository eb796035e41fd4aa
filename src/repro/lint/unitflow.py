"""Interprocedural unit-flow analysis (rules TMO009-TMO011).

TMO004 checks one statement at a time: it flags ``a_bytes + b_pages``
only when both operands *spell* their unit. Real unit bugs cross
assignments and function boundaries — a pages quantity flows through a
local, a return value or a call argument and is consumed as bytes three
modules away. This pass tracks units through those paths.

The unit lattice
----------------

Canonical units form a small lattice: the data amounts (``bytes`` and
its scale variants ``kb``/``mb``/``gb``/``tb``), ``pages``,
``entries``, the time units (``s``/``ms``/``us``/``ns``), rates
(``bytes_per_s``, ``pages_per_s``, generic ``per_s``), the
dimensionless units ``ratio`` and ``count``, and ``unknown`` (no
information — the lattice bottom, absorbed by everything else).

Units are inferred from name suffixes (``heap_bytes``), numeric
literals (``count``), and arithmetic:

* ``+``/``-``/comparisons keep the operands' common unit; a
  dimensionless operand is absorbed (``x_bytes + 1`` is bytes);
* ``*`` by ``count``/``ratio`` keeps the unit; a rate times a time
  yields the rate's numerator (``bw_bytes_per_s * dt_s`` is bytes);
  any other dimensioned product changes dimension and becomes unknown
  (``n_pages * page_size_bytes`` is a deliberate conversion);
* ``/`` of equal units is a ``ratio``; an amount over a time is a
  rate; division by ``count``/``ratio`` keeps the unit.

Propagation is two-phase so facts are collected per file: phase A
(:func:`collect`) walks one module and records *symbolic* unit
expressions — JSON-serialisable trees whose leaves are constants,
parameters, or calls into other project functions. Phase B
(:func:`check`) evaluates those trees against every module's summary,
substituting call arguments into callee return expressions, and emits:

* **TMO009** ``unit-mismatch-arith`` — an addition, subtraction,
  comparison or min/max whose operands carry different dimensioned
  units through the flow (sites where both units are spelled inline
  are left to TMO004);
* **TMO010** ``unit-mismatch-call`` — an argument whose inferred unit
  contradicts the unit suffix of the parameter it binds to, including
  dataclass constructor fields;
* **TMO011** ``unit-lost-conversion`` — an assignment to a
  unit-suffixed name whose right-hand side carries a *different*
  dimensioned unit with no conversion arithmetic in between
  (``cap_bytes = spare_pages``).
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.astutil import unit_of
from repro.lint.callgraph import (
    ModuleInfo,
    ModuleResolver,
    ProjectIndex,
    collect_self_attr_classes,
)
from repro.lint.registry import LintRule, register
from repro.lint.violations import Violation

# ----------------------------------------------------------------------
# the unit lattice

DATA_UNITS = frozenset({"bytes", "kb", "mb", "gb", "tb"})
TIME_UNITS = frozenset({"s", "ms", "us", "ns"})
RATE_UNITS = frozenset({"per_s", "bytes_per_s", "pages_per_s"})
#: Units whose silent mixing is always a bug.
DIMENSIONED = frozenset(
    DATA_UNITS | TIME_UNITS | {"pages", "entries"} | RATE_UNITS
)
DIMENSIONLESS = frozenset({"ratio", "count"})

#: astutil suffix tokens → lattice units (astutil keeps the historical
#: token names; the lattice canonicalises them).
_CANON = {
    "frac": "ratio",
    "per_s": "per_s",
    "pbw": None,  # device-endurance totals mix freely with budgets
}

#: Names that *are* a data-scale token with no stem (``MB = 1 << 20``)
#: are multiplier constants, not quantities; ``4 * MB`` is a conversion
#: into bytes, not a value measured in megabytes.
_SCALE_CONSTANTS = frozenset(
    {"kb", "kib", "mb", "mib", "gb", "gib", "tb", "tib"}
)


def unit_of_name(name: str) -> Optional[str]:
    """Lattice unit carried by ``name``'s suffix, or None (unknown)."""
    lowered = name.lower().strip("_")
    if lowered in _SCALE_CONSTANTS:
        return None
    token = unit_of(lowered)
    if token is None:
        return None
    return _CANON.get(token, token)


def _rate_family(unit: str) -> bool:
    return unit in RATE_UNITS


def units_conflict(a: Optional[str], b: Optional[str]) -> bool:
    """Whether mixing ``a`` and ``b`` additively is a unit bug."""
    if a is None or b is None or a == b:
        return False
    if a not in DIMENSIONED or b not in DIMENSIONED:
        return False
    # A generic rate does not conflict with a specific one.
    if _rate_family(a) and _rate_family(b) and "per_s" in (a, b):
        return False
    return True


def binding_conflict(declared: Optional[str], actual: Optional[str]) -> bool:
    """Conflict rule for call arguments and assignments.

    Stricter than :func:`units_conflict`: handing a dimensioned value
    to a ``ratio`` slot (or vice versa) is also flagged — a fraction
    is never interchangeable with bytes.
    """
    if declared is None or actual is None or declared == actual:
        return False
    strict = DIMENSIONED | {"ratio"}
    if declared not in strict or actual not in strict:
        return False
    if (
        _rate_family(declared)
        and _rate_family(actual)
        and "per_s" in (declared, actual)
    ):
        return False
    return True


def join_units(a: Optional[str], b: Optional[str]) -> Optional[str]:
    """Least upper bound for ``min``/``max``/merged returns."""
    if a is None or b is None:
        return None
    if a == b:
        return a
    if a == "count":
        return b
    if b == "count":
        return a
    return None


def add_units(a: Optional[str], b: Optional[str]) -> Optional[str]:
    if a is None or b is None:
        return None
    if a == b:
        return a
    if a in DIMENSIONLESS:
        return b
    if b in DIMENSIONLESS:
        return a
    return None  # conflicting: the site is flagged, result is unknown


#: rate * time -> amount products recognised by :func:`mul_units`.
_RATE_AMOUNTS = {"bytes_per_s": "bytes", "pages_per_s": "pages"}


def mul_units(a: Optional[str], b: Optional[str]) -> Optional[str]:
    if a is None or b is None:
        return None
    if a in DIMENSIONLESS and b in DIMENSIONLESS:
        # Scaling a count by a fraction still counts things.
        return "ratio" if a == b == "ratio" else "count"
    if a in DIMENSIONLESS:
        return b
    if b in DIMENSIONLESS:
        return a
    for rate, other in ((a, b), (b, a)):
        if other in TIME_UNITS and rate in _RATE_AMOUNTS:
            return _RATE_AMOUNTS[rate]
    return None  # dimension changed (a conversion), give up


def div_units(a: Optional[str], b: Optional[str]) -> Optional[str]:
    if a is None or b is None:
        return None
    if b == "count" or b == "ratio":
        return a
    if a == b:
        return "ratio"
    if b in TIME_UNITS:
        if a in DATA_UNITS:
            return "bytes_per_s" if a == "bytes" else "per_s"
        if a == "pages":
            return "pages_per_s"
        if a in ("entries", "count"):
            return "per_s"
    return None


# ----------------------------------------------------------------------
# symbolic unit expressions (JSON-serialisable)
#
#   ["u", unit]                      constant (unit may be None)
#   ["p", index]                     parameter of the current function
#   ["c", key, bound, [args], {kw}]  call into a project function
#   ["b", op, left, right]           arithmetic ("+", "*", "/", "%")
#   ["j", [exprs]]                   join (min/max, merged returns)

UNKNOWN: List[Any] = ["u", None]


def _is_const(expr: Sequence[Any]) -> bool:
    return expr[0] == "u"


class _FunctionFlow:
    """Phase-A walker for one function (or the module top level)."""

    def __init__(
        self,
        module: ModuleInfo,
        resolver: ModuleResolver,
        lines: List[str],
        key: str,
        params: List[str],
        self_class: Optional[str],
        self_attr_classes: Dict[str, str],
        out: Dict[str, Any],
    ) -> None:
        self.module = module
        self.resolver = resolver
        self.lines = lines
        self.key = key
        self.params = params
        self.self_class = self_class
        self.self_attr_classes = self_attr_classes
        self.out = out
        self.env: Dict[str, List[Any]] = {}
        self.local_classes: Dict[str, str] = {}
        self.returns: List[List[Any]] = []
        self._seen_records: Set[Tuple[str, int, int, str]] = set()
        for i, name in enumerate(params):
            declared = unit_of_name(name)
            self.env[name] = ["u", declared] if declared else ["p", i]

    # -- recording -----------------------------------------------------

    def _snippet(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def _record(self, bucket: str, node: ast.AST, **payload: Any) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        # Expressions are re-analysed when reached along several
        # statement paths; one site yields one record.
        tag = str(payload.get("op") or payload.get("key")
                  or payload.get("target") or "")
        dedupe = (bucket, line, col, tag)
        if dedupe in self._seen_records:
            return
        self._seen_records.add(dedupe)
        payload.update(line=line, col=col, snippet=self._snippet(line))
        self.out.setdefault(bucket, []).append(payload)

    # -- expression analysis -------------------------------------------

    def unit_expr(self, node: ast.AST) -> Tuple[List[Any], bool]:
        """Return ``(symbolic unit expr, spelled_inline)``.

        ``spelled_inline`` is True when the unit is visible in the
        source at this very node (a unit-suffixed name), which is
        TMO004's territory.
        """
        if isinstance(node, ast.Name):
            unit = unit_of_name(node.id)
            if unit is not None:
                return ["u", unit], True
            if node.id in self.env:
                return self.env[node.id], False
            return UNKNOWN, False
        if isinstance(node, ast.Attribute):
            unit = unit_of_name(node.attr)
            return (["u", unit], unit is not None)
        if isinstance(node, ast.Subscript):
            expr, direct = self.unit_expr(node.value)
            return expr, direct
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return UNKNOWN, False
            if isinstance(node.value, (int, float)):
                return ["u", "count"], False
            return UNKNOWN, False
        if isinstance(node, ast.UnaryOp):
            return self.unit_expr(node.operand)
        if isinstance(node, ast.BinOp):
            return self._binop_expr(node), False
        if isinstance(node, ast.IfExp):
            body, _ = self.unit_expr(node.body)
            orelse, _ = self.unit_expr(node.orelse)
            return ["j", [body, orelse]], False
        if isinstance(node, ast.Call):
            return self._call_expr(node), False
        if isinstance(node, ast.Starred):
            return self.unit_expr(node.value)
        return UNKNOWN, False

    _OP_MAP = {
        ast.Add: "+", ast.Sub: "+",
        ast.Mult: "*",
        ast.Div: "/", ast.FloorDiv: "/",
        ast.Mod: "%",
    }

    def _binop_expr(self, node: ast.BinOp) -> List[Any]:
        op = self._OP_MAP.get(type(node.op))
        left, ldirect = self.unit_expr(node.left)
        right, rdirect = self.unit_expr(node.right)
        if op is None:
            return UNKNOWN
        if op == "+":
            self._record(
                "arith", node,
                op="-" if isinstance(node.op, ast.Sub) else "+",
                l=left, r=right, inline=int(ldirect and rdirect),
            )
        return ["b", op, left, right]

    _PASSTHROUGH = frozenset({"abs", "int", "float", "round"})
    _PASSTHROUGH_TAILS = frozenset({"floor", "ceil", "rint", "trunc"})
    _COUNT_CALLS = frozenset({"len", "sum", "ord", "id"})
    _JOIN_CALLS = frozenset({"min", "max"})

    def _call_expr(self, node: ast.Call) -> List[Any]:
        func = node.func
        if isinstance(func, ast.Name) and func.id in self._JOIN_CALLS:
            exprs = []
            directs = []
            for arg in node.args:
                expr, direct = self.unit_expr(arg)
                exprs.append(expr)
                directs.append(direct)
            if len(exprs) >= 2:
                self._record(
                    "arith", node, op=func.id,
                    l=exprs[0], r=exprs[1],
                    inline=0,
                )
            return ["j", exprs] if exprs else UNKNOWN
        if isinstance(func, ast.Name) and func.id in self._PASSTHROUGH:
            if node.args:
                return self.unit_expr(node.args[0])[0]
            return UNKNOWN
        if isinstance(func, ast.Name) and func.id in self._COUNT_CALLS:
            return ["u", "count"]
        if (
            isinstance(func, ast.Attribute)
            and func.attr in self._PASSTHROUGH_TAILS
            and node.args
        ):
            return self.unit_expr(node.args[0])[0]

        resolved = self.resolver.resolve_call(
            node, self.local_classes, self.self_class, self.self_attr_classes
        )
        if resolved is None:
            return UNKNOWN
        kind, key, bound = resolved
        args = [self.unit_expr(a)[0] for a in node.args
                if not isinstance(a, ast.Starred)]
        kwargs = {
            kw.arg: self.unit_expr(kw.value)[0]
            for kw in node.keywords if kw.arg is not None
        }
        self._record(
            "calls", node, kind=kind, key=key, bound=int(bound),
            args=args, kwargs=kwargs,
        )
        if kind == "class":
            return UNKNOWN
        return ["c", key, int(bound), args, kwargs]

    # -- statement analysis --------------------------------------------

    def walk_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self.walk_stmt(stmt)

    def walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            value, _ = self.unit_expr(stmt.value)
            convertible = _has_conversion(stmt.value)
            for target in stmt.targets:
                self._bind_target(stmt, target, value, convertible)
            self._visit_exprs(stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                value, _ = self.unit_expr(stmt.value)
                self._bind_target(
                    stmt, stmt.target, value, _has_conversion(stmt.value)
                )
                self._visit_exprs(stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            value, rdirect = self.unit_expr(stmt.value)
            self._visit_exprs(stmt.value)
            target_expr, _ = self.unit_expr(stmt.target)
            if isinstance(stmt.op, (ast.Add, ast.Sub)):
                # TMO004 never sees augmented assignments, so these are
                # recorded even when both units are spelled inline.
                self._record(
                    "arith", stmt,
                    op="+", l=target_expr, r=value, inline=0,
                )
            if isinstance(stmt.target, ast.Name):
                op = self._OP_MAP.get(type(stmt.op))
                if op is not None and unit_of_name(stmt.target.id) is None:
                    self.env[stmt.target.id] = ["b", op, target_expr, value]
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                expr, _ = self.unit_expr(stmt.value)
                self.returns.append(expr)
                self._visit_exprs(stmt.value)
        elif isinstance(stmt, ast.Expr):
            self.unit_expr(stmt.value)
            self._visit_exprs(stmt.value)
        elif isinstance(stmt, ast.For):
            element, _ = self.unit_expr(stmt.iter)
            if isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = element
            self._visit_exprs(stmt.iter)
            self.walk_body(stmt.body)
            self.walk_body(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._visit_exprs(stmt.test)
            self.walk_body(stmt.body)
            self.walk_body(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._visit_exprs(stmt.test)
            self.walk_body(stmt.body)
            self.walk_body(stmt.orelse)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self._visit_exprs(item.context_expr)
            self.walk_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.walk_body(stmt.body)
            for handler in stmt.handlers:
                self.walk_body(handler.body)
            self.walk_body(stmt.orelse)
            self.walk_body(stmt.finalbody)
        elif isinstance(stmt, (ast.Assert, ast.Raise, ast.Delete)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._visit_exprs(child)
        # Nested function/class definitions are analysed by the module
        # driver; other statements carry no unit information.

    def _bind_target(
        self,
        stmt: ast.stmt,
        target: ast.expr,
        value: List[Any],
        convertible: bool,
    ) -> None:
        name: Optional[str] = None
        if isinstance(target, ast.Name):
            name = target.id
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            name = target.attr
        if name is None:
            return
        declared = unit_of_name(name)
        if declared is not None and not convertible:
            self._record(
                "assigns", stmt, target=name, unit=declared, value=value,
            )
        if isinstance(target, ast.Name):
            # Track the class of locals for method resolution.
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                value_node = stmt.value
                if isinstance(value_node, ast.Call):
                    resolved = self.resolver.resolve_call(
                        value_node, self.local_classes,
                        self.self_class, self.self_attr_classes,
                    )
                    if resolved is not None and resolved[0] == "class":
                        self.local_classes[name] = resolved[1]
            self.env[name] = ["u", declared] if declared else value

    def _visit_exprs(self, node: ast.expr) -> None:
        """Record checks in sub-expressions ``unit_expr`` cannot reach.

        ``unit_expr`` recurses through arithmetic and call arguments,
        but comparisons and calls also hide inside conditions, ternary
        tests and boolean operators; this sweep records them too
        (``_record`` de-duplicates sites reached both ways).
        """
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                self.unit_expr(child)
            elif isinstance(child, ast.Compare):
                operands = [child.left] + list(child.comparators)
                for op, left, right in zip(
                    child.ops, operands, operands[1:]
                ):
                    if isinstance(
                        op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE,
                             ast.Eq, ast.NotEq)
                    ):
                        lexpr, ld = self.unit_expr(left)
                        rexpr, rd = self.unit_expr(right)
                        self._record(
                            "arith", child, op="cmp",
                            l=lexpr, r=rexpr, inline=int(ld and rd),
                        )

    def finish(self) -> Dict[str, Any]:
        if not self.returns:
            ret: Optional[List[Any]] = None
        elif len(self.returns) == 1:
            ret = self.returns[0]
        else:
            ret = ["j", self.returns]
        return {
            "params": self.params,
            "param_units": [unit_of_name(p) for p in self.params],
            "ret": ret,
        }


def _has_conversion(node: ast.expr) -> bool:
    """Whether the RHS contains arithmetic that could convert units."""
    for child in ast.walk(node):
        if isinstance(child, ast.BinOp) and isinstance(
            child.op, (ast.Mult, ast.Div, ast.FloorDiv, ast.Pow,
                       ast.LShift, ast.RShift)
        ):
            return True
    return False


# ----------------------------------------------------------------------
# phase A driver: one module → serialisable facts


def collect_module(
    module: ModuleInfo, index: ProjectIndex, source: str
) -> Dict[str, Any]:
    """Extract the unit-flow facts for one parsed module."""
    assert module.tree is not None
    resolver = ModuleResolver(index, module)
    lines = source.splitlines()
    functions: Dict[str, Dict[str, Any]] = {}
    records: Dict[str, Any] = {}

    def analyse(
        node: ast.AST,
        key: str,
        params: List[str],
        body: Sequence[ast.stmt],
        self_class: Optional[str],
        self_attrs: Dict[str, str],
    ) -> None:
        flow = _FunctionFlow(
            module, resolver, lines, key, params,
            self_class, self_attrs, records,
        )
        flow.walk_body(body)
        functions[key] = flow.finish()
        # Nested defs get their own (unsummarised) pass for checks.
        for stmt in ast.walk(ast.Module(body=list(body), type_ignores=[])):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                stmt.lineno != getattr(node, "lineno", -1)
            ):
                nested = _FunctionFlow(
                    module, resolver, lines,
                    f"{key}.<local>.{stmt.name}", _params_of(stmt),
                    self_class, self_attrs, records,
                )
                nested.walk_body(stmt.body)

    toplevel = [
        stmt for stmt in module.tree.body
        if not isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
    ]
    analyse(module.tree, f"{module.name}.<toplevel>", [], toplevel, None, {})

    for stmt in module.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            analyse(
                stmt, f"{module.name}.{stmt.name}", _params_of(stmt),
                stmt.body, None, {},
            )
        elif isinstance(stmt, ast.ClassDef):
            class_key = f"{module.name}.{stmt.name}"
            self_attrs = collect_self_attr_classes(resolver, stmt)
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    analyse(
                        item, f"{class_key}.{item.name}", _params_of(item),
                        item.body, class_key, self_attrs,
                    )

    classes = {
        info.key: {
            "params": info.constructor_params(),
            "param_units": [
                unit_of_name(p) for p in info.constructor_params()
            ],
        }
        for info in module.classes.values()
    }
    return {
        "functions": functions,
        "classes": classes,
        "arith": records.get("arith", []),
        "calls": records.get("calls", []),
        "assigns": records.get("assigns", []),
    }


def _params_of(func: ast.AST) -> List[str]:
    args = func.args
    return [a.arg for a in
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)]


# ----------------------------------------------------------------------
# phase B: evaluation over all module facts


class UnitEvaluator:
    """Evaluates symbolic unit expressions against global summaries."""

    def __init__(self, facts_by_path: Dict[str, Dict[str, Any]]) -> None:
        self.functions: Dict[str, Dict[str, Any]] = {}
        self.classes: Dict[str, Dict[str, Any]] = {}
        for facts in facts_by_path.values():
            unit = facts.get("unit", {})
            self.functions.update(unit.get("functions", {}))
            self.classes.update(unit.get("classes", {}))

    def callee_signature(
        self, kind: str, key: str, bound: bool
    ) -> Optional[Tuple[List[str], List[Optional[str]]]]:
        """(param names, declared units) as seen by the call site."""
        if kind == "class":
            ctor = self.classes.get(key)
            if ctor is None:
                return None
            return ctor["params"], ctor["param_units"]
        func = self.functions.get(key)
        if func is None:
            return None
        params = list(func["params"])
        units = list(func["param_units"])
        if bound and params and params[0] in ("self", "cls"):
            params, units = params[1:], units[1:]
        elif params and params[0] in ("self", "cls") and not bound:
            # Methods reached without a receiver expression (rare);
            # keep self in place so positional binding stays aligned.
            pass
        return params, units

    def bind_args(
        self,
        kind: str,
        key: str,
        bound: bool,
        args: List[Any],
        kwargs: Dict[str, Any],
    ) -> List[Tuple[str, Optional[str], Any]]:
        """Yield (param name, declared unit, arg expr) bindings."""
        signature = self.callee_signature(kind, key, bound)
        if signature is None:
            return []
        params, units = signature
        out: List[Tuple[str, Optional[str], Any]] = []
        for i, arg in enumerate(args):
            if i < len(params):
                out.append((params[i], units[i], arg))
        for name, arg in kwargs.items():
            if name in params:
                idx = params.index(name)
                out.append((name, units[idx], arg))
        return out

    def evaluate(
        self,
        expr: Optional[Sequence[Any]],
        param_env: Optional[Dict[int, Optional[str]]] = None,
        stack: Optional[Set[str]] = None,
    ) -> Optional[str]:
        if expr is None:
            return None
        tag = expr[0]
        if tag == "u":
            return expr[1]
        if tag == "p":
            if param_env is not None:
                return param_env.get(expr[1])
            return None
        if tag == "b":
            _, op, left, right = expr
            lu = self.evaluate(left, param_env, stack)
            ru = self.evaluate(right, param_env, stack)
            if op == "+":
                return None if units_conflict(lu, ru) else add_units(lu, ru)
            if op == "*":
                return mul_units(lu, ru)
            if op == "/":
                return div_units(lu, ru)
            if op == "%":
                return lu
            return None
        if tag == "j":
            result: Optional[str] = "count"
            for sub in expr[1]:
                result = join_units(result, self.evaluate(sub, param_env, stack))
                if result is None:
                    return None
            return result
        if tag == "c":
            _, key, bound, args, kwargs = expr
            func = self.functions.get(key)
            if func is None or func.get("ret") is None:
                return None
            stack = stack or set()
            if key in stack:
                return None  # recursion: give up rather than loop
            callee_env: Dict[int, Optional[str]] = {}
            params = list(func["params"])
            units = list(func["param_units"])
            offset = 1 if bound and params and params[0] in ("self", "cls") else 0
            for i, param in enumerate(params):
                callee_env[i] = units[i]
            for i, arg in enumerate(args):
                idx = i + offset
                if idx < len(params) and callee_env.get(idx) is None:
                    callee_env[idx] = self.evaluate(arg, param_env, stack)
            for name, arg in kwargs.items():
                if name in params:
                    idx = params.index(name)
                    if callee_env.get(idx) is None:
                        callee_env[idx] = self.evaluate(arg, param_env, stack)
            return self.evaluate(
                func["ret"], callee_env, stack | {key}
            )
        return None


def check(
    facts_by_path: Dict[str, Dict[str, Any]],
) -> Iterator[Violation]:
    """Phase B: evaluate every recorded site and emit TMO009-TMO011."""
    evaluator = UnitEvaluator(facts_by_path)
    for path in sorted(facts_by_path):
        unit_facts = facts_by_path[path].get("unit", {})
        for record in unit_facts.get("arith", []):
            if record.get("inline"):
                continue  # both units spelled in source: TMO004's site
            lu = evaluator.evaluate(record["l"])
            ru = evaluator.evaluate(record["r"])
            if units_conflict(lu, ru):
                op = record["op"]
                what = {
                    "+": "addition/subtraction",
                    "-": "addition/subtraction",
                    "cmp": "comparison",
                    "min": "min()", "max": "max()",
                }.get(op, op)
                yield Violation(
                    path=path, line=record["line"], col=record["col"],
                    rule_id="TMO009",
                    message=(
                        f"{what} mixes units {lu!r} and {ru!r} flowing "
                        "through this expression; convert one side "
                        "explicitly before combining"
                    ),
                    snippet=record["snippet"],
                )
        for record in unit_facts.get("calls", []):
            bindings = evaluator.bind_args(
                record["kind"], record["key"], bool(record["bound"]),
                record["args"], record["kwargs"],
            )
            for param, declared, arg in bindings:
                actual = evaluator.evaluate(arg)
                if binding_conflict(declared, actual):
                    callee = record["key"].rpartition(".")[2]
                    if record["kind"] == "class":
                        callee = record["key"].rpartition(".")[2] + "()"
                    yield Violation(
                        path=path, line=record["line"], col=record["col"],
                        rule_id="TMO010",
                        message=(
                            f"argument for parameter {param!r} of "
                            f"{callee} carries unit {actual!r} but the "
                            f"parameter declares {declared!r}; convert "
                            "before the call"
                        ),
                        snippet=record["snippet"],
                    )
        for record in unit_facts.get("assigns", []):
            actual = evaluator.evaluate(record["value"])
            if binding_conflict(record["unit"], actual):
                yield Violation(
                    path=path, line=record["line"], col=record["col"],
                    rule_id="TMO011",
                    message=(
                        f"assignment binds a {actual!r} value to "
                        f"{record['target']!r} (declared "
                        f"{record['unit']!r}) with no conversion; "
                        "multiply/divide by the conversion factor or "
                        "rename the target"
                    ),
                    snippet=record["snippet"],
                )


# ----------------------------------------------------------------------
# rule registrations


class FlowRule(LintRule):
    """Base for whole-program rules: the engine never calls ``check``;
    their findings come from phase B."""

    flow = True


@register
class UnitMismatchArithRule(FlowRule):
    rule_id = "TMO009"
    name = "unit-mismatch-arith"
    summary = (
        "arithmetic/comparison mixes units flowing across functions "
        "(flow pass)"
    )


@register
class UnitMismatchCallRule(FlowRule):
    rule_id = "TMO010"
    name = "unit-mismatch-call"
    summary = (
        "call argument unit contradicts the parameter's declared unit "
        "(flow pass)"
    )


@register
class UnitLostConversionRule(FlowRule):
    rule_id = "TMO011"
    name = "unit-lost-conversion"
    summary = (
        "assignment changes unit without a conversion (flow pass)"
    )
