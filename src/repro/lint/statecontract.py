"""State-contract analysis (rules TMO015-TMO016).

The simulator's production value rests on two contracts that, before
this pass, were only enforced dynamically:

* **process safety** — fleet worker processes must share no mutable
  module-level state, or parallel runs diverge from serial ones on
  *some* seed;
* **metric-name stability** — metric names feed digests, the bench
  gate and chaos verdicts, so they must come from one declared
  registry rather than scattered string literals.

This pass proves both statically, on every ``tmo-lint --flow``
run, using the same two-phase scheme as :mod:`repro.lint.unitflow`:
phase A (:func:`collect_module`) records JSON-serialisable facts per
file (cached on disk by the flow driver), phase B (:func:`check`)
evaluates them whole-program.

**TMO015 process-unsafe-global.** Phase A records each module's
mutable module-level globals and, per function, every read or
mutation of project module-level state (its own globals, ``global``
rebinds, and imported objects — including mutating method calls,
subscript stores and attribute stores). Phase B computes the set of
functions reachable from the configured ProcessPool worker
entrypoints — over the call edges the taint pass already recorded,
widening a reachable constructor to all methods of its class, since a
worker that builds an object may later call anything on it — and
flags mutations reachable from a worker, plus reads of any global
some function mutates at runtime. Import-time (module toplevel)
initialisation is deterministic across worker processes and stays
allowed, as do reads of never-mutated constant tables.

**TMO016 metric-registry-drift.** Phase A collects every metric-name
string literal flowing into the recorder sinks — directly, through a
bound-method alias (``rec = self.metrics.record``), or as a literal
argument to a wrapper whose parameter the taint machinery proves
sink-flowing — plus the literal names at read sites
(``metrics.series("...")`` / ``summary([...])``). Phase B checks
every name against the registry declared in
:mod:`repro.sim.metric_names` (full names, per-cgroup suffixes,
dynamic namespaces), reporting unregistered names with near-miss
suggestions, and — when the analysed paths include the test tree —
names recorded but never read by any test or analysis. Names without
a ``/`` namespace are out of scope: they are ad-hoc local recorders,
not fleet metrics.
"""

from __future__ import annotations

import ast
import difflib
from pathlib import PurePosixPath
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.callgraph import (
    ModuleInfo,
    ModuleResolver,
    ProjectIndex,
    collect_self_attr_classes,
)
from repro.lint.registry import register
from repro.lint.taint import TaintEvaluator, compute_sink_params
from repro.lint.unitflow import FlowRule
from repro.lint.violations import Violation

#: Constructor names whose call produces a mutable container.
_MUTABLE_CTORS = frozenset({
    "dict", "list", "set", "bytearray",
    "defaultdict", "OrderedDict", "Counter", "deque",
})

#: Method calls that mutate their receiver in place.
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "discard", "appendleft", "extendleft",
    "sort", "reverse",
})

#: Module-level assignments a registry module uses to declare names.
_REGISTRY_VARS = {
    "METRIC_NAMES": "names",
    "PER_CGROUP_METRICS": "per_cgroup",
    "DYNAMIC_NAMESPACES": "dynamic",
    "UNREAD_OK": "unread_ok",
}


def _is_mutable_value(node: ast.AST) -> bool:
    """Whether an expression builds a mutable container."""
    if isinstance(node, (ast.Dict, ast.List, ast.Set,
                         ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        return name in _MUTABLE_CTORS
    return False


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _name_entry(index: int, node: ast.AST) -> Optional[Dict[str, Any]]:
    """Classify one argument as a (partially) literal metric name.

    Returns ``{"index", "value"}`` for a plain literal,
    ``{"index", "suffix"}`` for an f-string with a dynamic head and a
    constant ``/suffix`` tail (``f"{cgroup}/senpai_reclaim"``), and
    ``{"index", "prefix"}`` for a constant ``ns/`` head with a dynamic
    tail (``f"faults/{ev.kind}"``); None when nothing is statically
    known about the name.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {"index": index, "value": node.value}
    if isinstance(node, ast.JoinedStr) and node.values:
        first = node.values[0]
        last = node.values[-1]
        if (
            isinstance(last, ast.Constant)
            and isinstance(last.value, str)
            and last.value.startswith("/")
            and not isinstance(first, ast.Constant)
        ):
            return {"index": index, "suffix": last.value[1:]}
        if (
            isinstance(first, ast.Constant)
            and isinstance(first.value, str)
            and "/" in first.value
            and not isinstance(last, ast.Constant)
        ):
            return {"index": index, "prefix": first.value}
    return None


# ----------------------------------------------------------------------
# phase A: per-module fact collection


def _module_mutable_globals(tree: ast.Module) -> Dict[str, int]:
    """Module-level names bound to mutable containers, with lines."""
    out: Dict[str, int] = {}
    for stmt in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.AST] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        if value is None or not _is_mutable_value(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                out.setdefault(target.id, stmt.lineno)
    return out


def _module_assigned_names(tree: ast.Module) -> Set[str]:
    """Every name assigned at module toplevel (any value)."""
    out: Set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        out.add(name.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            out.add(stmt.target.id)
    return out


def _local_names(func: ast.AST) -> Tuple[Set[str], Set[str]]:
    """(names bound locally, names declared ``global``) in a function."""
    local: Set[str] = set()
    declared_global: Set[str] = set()
    args = func.args
    for arg in (list(args.posonlyargs) + list(args.args)
                + list(args.kwonlyargs)):
        local.add(arg.arg)
    if args.vararg is not None:
        local.add(args.vararg.arg)
    if args.kwarg is not None:
        local.add(args.kwarg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            local.add(node.id)
        elif isinstance(node, ast.comprehension):
            for name in ast.walk(node.target):
                if isinstance(name, ast.Name):
                    local.add(name.id)
    return local - declared_global, declared_global


class _FunctionFacts:
    """Phase-A walker for one function: globals + metric names."""

    def __init__(
        self,
        module: ModuleInfo,
        resolver: ModuleResolver,
        lines: List[str],
        key: str,
        func: Optional[ast.AST],
        self_class: Optional[str],
        self_attr_classes: Dict[str, str],
        module_globals: Dict[str, int],
        module_names: Set[str],
        out: Dict[str, List[Dict[str, Any]]],
        options: Dict[str, Dict[str, Any]],
    ) -> None:
        self.module = module
        self.resolver = resolver
        self.lines = lines
        self.key = key
        self.self_class = self_class
        self.self_attr_classes = self_attr_classes
        self.module_globals = module_globals
        self.module_names = module_names
        self.out = out
        t16 = options.get("TMO016", {})
        self.record_suffixes: Tuple[str, ...] = tuple(
            t16.get("record_sink_suffixes", ())
        )
        self.record_methods: Set[str] = set(
            t16.get("record_method_names", ())
        )
        self.read_suffixes: Tuple[str, ...] = tuple(
            t16.get("read_sink_suffixes", ())
        )
        self.read_methods: Set[str] = set(t16.get("read_method_names", ()))
        if func is not None:
            self.locals, self.declared_global = _local_names(func)
        else:
            self.locals, self.declared_global = set(), set()
        self.local_classes: Dict[str, str] = {}
        #: local name -> sink-method key for bound aliases like
        #: ``rec = self.metrics.record``.
        self.sink_aliases: Dict[str, str] = {}
        self._flagged: Set[Tuple[int, int, str]] = set()
        if func is not None:
            for arg in (list(func.args.args) + list(func.args.kwonlyargs)):
                if arg.annotation is not None:
                    ann = _dotted(arg.annotation)
                    if ann:
                        resolved = resolver.resolve_name(ann)
                        if resolved and resolved[0] == "class":
                            self.local_classes[arg.arg] = resolved[1]

    # -- shared helpers ------------------------------------------------

    def _snippet(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def _emit(self, bucket: str, node: ast.AST, **payload) -> None:
        payload.update(
            owner=self.key,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            snippet=self._snippet(getattr(node, "lineno", 1)),
        )
        self.out.setdefault(bucket, []).append(payload)

    # -- module-level state resolution ---------------------------------

    def _in_project(self, target: str) -> bool:
        mod = target.rpartition(".")[0]
        return mod in self.resolver.index.modules

    def _global_key(self, name: str) -> Optional[str]:
        """Resolve a bare name to a ``module.GLOBAL`` key, if any."""
        if name in self.locals:
            return None
        if name in self.declared_global or name in self.module_names:
            return f"{self.module.name}.{name}"
        imported = self.module.imports.get(name)
        if imported is not None and imported[0] == "obj":
            target = imported[1]
            if not self._in_project(target):
                return None
            # Imported functions/classes/modules are code, not state.
            if self.resolver.resolve_name(name) is not None:
                return None
            return target
        return None

    def _base_global(self, node: ast.AST) -> Optional[str]:
        """Global key of the *receiver* of a mutation/subscript."""
        if isinstance(node, ast.Name):
            return self._global_key(node.id)
        dotted = _dotted(node)
        if dotted is None or "." not in dotted:
            return None
        head, _, attr = dotted.partition(".")
        if head in self.locals:
            return None
        imported = self.module.imports.get(head)
        if imported is not None and imported[0] == "mod" and "." not in attr:
            # one attribute deep: ``fleetmod._CACHE``
            target = f"{imported[1]}.{attr}"
            if self._in_project(target) and (
                self.resolver.resolve_name(dotted) is None
            ):
                return target
        return None

    def _note_global(self, node: ast.AST, key: str, mode: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        dedupe = (line, col, key)
        if dedupe in self._flagged:
            return
        self._flagged.add(dedupe)
        self._emit("global_accesses", node, target=key, mode=mode)

    # -- metric names --------------------------------------------------

    def _resolve_method_ref(self, node: ast.AST) -> Optional[str]:
        """Resolve ``self.metrics.record``-style method references."""
        if not isinstance(node, ast.Attribute):
            return None
        value = node.value
        class_key: Optional[str] = None
        if isinstance(value, ast.Name):
            if value.id == "self":
                class_key = self.self_class
            else:
                class_key = self.local_classes.get(value.id)
        elif (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "self"
        ):
            class_key = self.self_attr_classes.get(value.attr)
        if class_key is None:
            return None
        method = self.resolver.index.resolve_method(class_key, node.attr)
        return method.key if method is not None else None

    def _match(self, key: str, suffixes: Sequence[str]) -> bool:
        return any(key == s or key.endswith("." + s) for s in suffixes)

    def _visit_call(self, call: ast.Call) -> None:
        if isinstance(call.func, ast.Name):
            alias = self.sink_aliases.get(call.func.id)
            if alias is not None:
                self._emit_names(call, "sink", alias, 0)
                return
        resolved = self.resolver.resolve_call(
            call, self.local_classes, self.self_class,
            self.self_attr_classes,
        )
        if resolved is not None and resolved[0] == "func":
            key = resolved[1]
            if self._match(key, self.record_suffixes):
                self._emit_names(call, "sink", key, 0)
            elif self._match(key, self.read_suffixes):
                self._emit_reads(call)
            else:
                self._emit_names(call, "call", key, int(resolved[2]))
            return
        if resolved is None and isinstance(call.func, ast.Attribute):
            if call.func.attr in self.record_methods:
                self._emit_names(
                    call, "sink", f"<unresolved>.{call.func.attr}", 0
                )
            elif call.func.attr in self.read_methods:
                self._emit_reads(call)

    def _emit_names(
        self, call: ast.Call, kind: str, key: str, bound: int
    ) -> None:
        names = []
        for i, arg in enumerate(call.args):
            entry = _name_entry(i, arg)
            if entry is not None:
                names.append(entry)
        kwnames: Dict[str, Dict[str, Any]] = {}
        if kind == "call":
            for kw in call.keywords:
                if kw.arg is None:
                    continue
                entry = _name_entry(0, kw.value)
                if entry is not None:
                    entry.pop("index", None)
                    kwnames[kw.arg] = entry
        if names or kwnames:
            self._emit(
                "metric_records", call, kind=kind, key=key, bound=bound,
                names=names, kwnames=kwnames,
            )

    def _emit_reads(self, call: ast.Call) -> None:
        for arg in call.args:
            for child in ast.walk(arg):
                if isinstance(child, ast.Constant) and isinstance(
                    child.value, str
                ):
                    self._emit("metric_reads", call, value=child.value)

    # -- the walk ------------------------------------------------------

    def run(self, body: Sequence[ast.stmt]) -> None:
        skip: Set[int] = set()
        for stmt in body:
            for node in ast.walk(stmt):
                if id(node) in skip:
                    continue
                if isinstance(
                    node,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                ):
                    # Nested definitions get their own walker (with
                    # their own local scope) from collect_module.
                    for sub in ast.walk(node):
                        skip.add(id(sub))
                    continue
                self._visit_node(node)

    def _visit_node(self, node: ast.AST) -> None:
        if isinstance(node, ast.Assign):
            self._track_assign(node)
            for target in node.targets:
                self._note_store_target(target)
        elif isinstance(node, ast.AugAssign):
            self._note_store_target(node.target)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                self._note_store_target(target)
        elif isinstance(node, ast.Call):
            self._visit_call(node)
            if isinstance(node.func, ast.Attribute) and (
                node.func.attr in _MUTATOR_METHODS
            ):
                key = self._base_global(node.func.value)
                if key is not None:
                    self._note_global(node, key, "write")
        elif isinstance(node, ast.Subscript) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            key = self._base_global(node.value)
            if key is not None:
                self._note_global(node, key, "write")
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            key = self._global_key(node.id)
            if key is not None:
                self._note_global(node, key, "read")
        elif isinstance(node, ast.Attribute) and isinstance(
            node.ctx, ast.Load
        ):
            key = self._base_global(node)
            if key is not None:
                self._note_global(node, key, "read")

    def _note_store_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.declared_global:
                self._note_global(
                    target, f"{self.module.name}.{target.id}", "write"
                )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._note_store_target(elt)
        elif isinstance(target, ast.Subscript):
            key = self._base_global(target.value)
            if key is not None:
                self._note_global(target, key, "write")
        elif isinstance(target, ast.Attribute):
            key = self._base_global(target) or self._base_global(
                target.value
            )
            if key is not None:
                self._note_global(target, key, "write")

    def _track_assign(self, stmt: ast.Assign) -> None:
        """Track class-typed locals and bound sink-method aliases."""
        value = stmt.value
        if isinstance(value, ast.Call):
            resolved = self.resolver.resolve_call(
                value, self.local_classes, self.self_class,
                self.self_attr_classes,
            )
            if resolved is not None and resolved[0] == "class":
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self.local_classes[target.id] = resolved[1]
        elif isinstance(value, ast.Attribute):
            key = self._resolve_method_ref(value)
            if key is not None and not self._match(
                key, self.record_suffixes
            ):
                key = None
            if key is None and value.attr in self.record_methods:
                dotted = _dotted(value)
                if dotted is None or self.resolver.resolve_name(
                    dotted
                ) is None:
                    # ``rec = host.metrics.record`` with untyped host.
                    key = f"<unresolved>.{value.attr}"
            if key is not None:
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self.sink_aliases[target.id] = key


def _registry_literal(node: ast.AST) -> Optional[List[str]]:
    """String elements of a literal dict/set/tuple/frozenset(...)."""
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else None
        if name in ("frozenset", "set", "tuple") and len(node.args) == 1:
            node = node.args[0]
        else:
            return None
    if isinstance(node, ast.Dict):
        elements = [k for k in node.keys if k is not None]
    elif isinstance(node, (ast.Set, ast.Tuple, ast.List)):
        elements = list(node.elts)
    else:
        return None
    out: List[str] = []
    for element in elements:
        if isinstance(element, ast.Constant) and isinstance(
            element.value, str
        ):
            out.append(element.value)
        else:
            return None
    return out


def _collect_registry(tree: ast.Module) -> Optional[Dict[str, List[str]]]:
    """Registry declarations, when the module makes any."""
    found: Dict[str, List[str]] = {}
    for stmt in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.AST] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            bucket = _REGISTRY_VARS.get(target.id)
            if bucket is None or value is None:
                continue
            values = _registry_literal(value)
            if values is not None:
                found.setdefault(bucket, []).extend(values)
    return found or None


def collect_module(
    module: ModuleInfo,
    index: ProjectIndex,
    source: str,
    options: Dict[str, Dict[str, Any]],
) -> Dict[str, Any]:
    """Phase A: extract state-contract facts for one parsed module."""
    assert module.tree is not None
    resolver = ModuleResolver(index, module)
    lines = source.splitlines()
    own_globals = _module_mutable_globals(module.tree)
    own_names = _module_assigned_names(module.tree)
    records: Dict[str, List[Dict[str, Any]]] = {}

    # -- class method keys and bases (for worker reachability) ---------
    classes: List[Dict[str, Any]] = []
    for stmt in module.tree.body:
        if not isinstance(stmt, ast.ClassDef):
            continue
        class_key = f"{module.name}.{stmt.name}"
        bases: List[str] = []
        info = module.classes.get(stmt.name)
        if info is not None:
            for base_name in info.base_names:
                resolved = resolver.resolve_name(base_name)
                if resolved is not None and resolved[0] == "class":
                    bases.append(resolved[1])
        classes.append({
            "key": class_key,
            "bases": bases,
            "methods": sorted(
                f"{class_key}.{m}" for m in (
                    info.methods if info is not None else {}
                )
            ),
        })

    # -- per-function walks (globals + metric names) -------------------
    def analyse(
        key: str,
        func: Optional[ast.AST],
        body: Sequence[ast.stmt],
        self_class: Optional[str],
        self_attrs: Dict[str, str],
    ) -> None:
        walker = _FunctionFacts(
            module, resolver, lines, key, func, self_class, self_attrs,
            own_globals, own_names, records, options,
        )
        walker.run(body)
        for stmt in ast.walk(ast.Module(body=list(body), type_ignores=[])):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = _FunctionFacts(
                    module, resolver, lines,
                    f"{key}.<local>.{stmt.name}", stmt,
                    self_class, self_attrs,
                    own_globals, own_names, records, options,
                )
                nested.run(stmt.body)

    toplevel = [
        stmt for stmt in module.tree.body
        if not isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
    ]
    analyse(f"{module.name}.<toplevel>", None, toplevel, None, {})
    for stmt in module.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            analyse(f"{module.name}.{stmt.name}", stmt, stmt.body, None, {})
        elif isinstance(stmt, ast.ClassDef):
            class_key = f"{module.name}.{stmt.name}"
            self_attrs = collect_self_attr_classes(resolver, stmt)
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    analyse(
                        f"{class_key}.{item.name}", item, item.body,
                        class_key, self_attrs,
                    )

    return {
        "module": module.name,
        "classes": classes,
        "globals": [
            {"name": name, "line": line}
            for name, line in sorted(own_globals.items())
        ],
        "global_accesses": records.get("global_accesses", []),
        "metric_records": records.get("metric_records", []),
        "metric_reads": records.get("metric_reads", []),
        "registry": _collect_registry(module.tree),
    }


# ----------------------------------------------------------------------
# phase B: evaluation


def _state_facts(
    facts_by_path: Dict[str, Dict[str, Any]]
) -> List[Tuple[str, Dict[str, Any]]]:
    out = []
    for path in sorted(facts_by_path):
        state = facts_by_path[path].get("state")
        if state is not None:
            out.append((path, state))
    return out


def check(
    facts_by_path: Dict[str, Dict[str, Any]],
    options: Dict[str, Dict[str, Any]],
) -> Iterator[Violation]:
    """Phase B: emit TMO015/TMO016 findings."""
    state_facts = _state_facts(facts_by_path)
    yield from _check_process_safety(facts_by_path, state_facts, options)
    yield from _check_metric_registry(facts_by_path, state_facts)


# -- TMO015 ------------------------------------------------------------


def _reachable_functions(
    facts_by_path: Dict[str, Dict[str, Any]],
    state_facts: List[Tuple[str, Dict[str, Any]]],
    entrypoints: Sequence[str],
) -> Set[str]:
    """Function keys reachable from the worker entrypoints.

    Edges come from the taint pass's resolved call records. A
    reachable class constructor widens to every method of the class
    (and its project bases): a worker that builds an object may call
    anything on it later.
    """
    edges: Dict[str, Set[str]] = {}
    for facts in facts_by_path.values():
        taint = facts.get("taint", {})
        for record in taint.get("calls", []):
            owner = record.get("owner")
            if owner is None:
                continue
            target = record["key"]
            if record.get("kind") == "class":
                target = f"class:{target}"
            edges.setdefault(owner, set()).add(target)

    class_methods: Dict[str, List[str]] = {}
    class_bases: Dict[str, List[str]] = {}
    for _, state in state_facts:
        for cls in state.get("classes", []):
            class_methods[cls["key"]] = cls["methods"]
            class_bases[cls["key"]] = cls["bases"]

    reachable: Set[str] = set()
    queue: List[str] = list(entrypoints)
    while queue:
        node = queue.pop()
        if node in reachable:
            continue
        reachable.add(node)
        if node.startswith("class:"):
            stack = [node[len("class:"):]]
            seen_classes: Set[str] = set()
            while stack:
                current = stack.pop()
                if current in seen_classes:
                    continue
                seen_classes.add(current)
                queue.extend(class_methods.get(current, ()))
                stack.extend(class_bases.get(current, ()))
            continue
        queue.extend(edges.get(node, ()))
    return reachable


def _check_process_safety(
    facts_by_path: Dict[str, Dict[str, Any]],
    state_facts: List[Tuple[str, Dict[str, Any]]],
    options: Dict[str, Dict[str, Any]],
) -> Iterator[Violation]:
    opts = options.get("TMO015", {})
    entrypoints: Tuple[str, ...] = tuple(opts.get("worker_entrypoints", ()))
    if not entrypoints:
        return

    #: module state some function mutates at runtime (import-time
    #: toplevel initialisation is deterministic across processes).
    mutated: Set[str] = set()
    for _, state in state_facts:
        for access in state.get("global_accesses", []):
            owner = access.get("owner", "")
            if access["mode"] == "write" and not owner.endswith("<toplevel>"):
                mutated.add(access["target"])

    reachable = _reachable_functions(facts_by_path, state_facts, entrypoints)
    entry_label = ", ".join(e.rpartition(".")[2] for e in entrypoints)

    for path, state in state_facts:
        for access in state.get("global_accesses", []):
            owner = access.get("owner", "")
            if owner not in reachable or owner.endswith("<toplevel>"):
                continue
            target = access["target"]
            short = owner.rpartition(".")[2]
            if access["mode"] == "write":
                message = (
                    f"{short}() is reachable from worker entrypoint(s) "
                    f"{entry_label} and mutates module-level state "
                    f"{target}; per-process copies diverge, so parallel "
                    "fleet results stop matching serial ones (move the "
                    "state into an object passed through the call, or "
                    "derive it from the seed)"
                )
            else:
                if target not in mutated:
                    continue  # reads of frozen constant tables are fine
                message = (
                    f"{short}() is reachable from worker entrypoint(s) "
                    f"{entry_label} and reads module-level state "
                    f"{target}, which is mutated at runtime elsewhere; "
                    "its value depends on per-process history, so "
                    "worker results can diverge from serial runs"
                )
            yield Violation(
                path=path,
                line=access["line"],
                col=access["col"],
                rule_id="TMO015",
                message=message,
                snippet=access["snippet"],
            )


# -- TMO016 ------------------------------------------------------------


def _is_record_sink(label: Optional[str]) -> bool:
    return label is not None and label.endswith(".record")


def _check_metric_registry(
    facts_by_path: Dict[str, Dict[str, Any]],
    state_facts: List[Tuple[str, Dict[str, Any]]],
) -> Iterator[Violation]:
    names: Set[str] = set()
    per_cgroup: Set[str] = set()
    dynamic: Set[str] = set()
    unread_ok: Set[str] = set()
    for _, state in state_facts:
        registry = state.get("registry")
        if not registry:
            continue
        names.update(registry.get("names", ()))
        per_cgroup.update(registry.get("per_cgroup", ()))
        dynamic.update(registry.get("dynamic", ()))
        unread_ok.update(registry.get("unread_ok", ()))
    if not (names or per_cgroup or dynamic):
        return  # no registry in the analysed set: nothing to check

    evaluator = TaintEvaluator(facts_by_path)
    sink_params = compute_sink_params(facts_by_path, evaluator)

    candidates = sorted(names | per_cgroup | dynamic)

    def suggestion(value: str) -> str:
        close = difflib.get_close_matches(value, candidates, n=1)
        return f"; did you mean '{close[0]}'?" if close else ""

    def classify(entry: Dict[str, Any]) -> Tuple[str, Optional[str]]:
        """(status, recorded-name-label-for-unread-check)."""
        if "value" in entry:
            value = entry["value"]
            if "/" not in value:
                return "ok", None  # ad-hoc local recorder, out of scope
            if value in names:
                return "ok", value
            head, _, tail = value.partition("/")
            if tail in per_cgroup:
                return "ok", f"*/{tail}"
            if head in dynamic:
                return "ok", None
            return "bad-full", None
        if "suffix" in entry:
            if entry["suffix"] in per_cgroup:
                return "ok", f"*/{entry['suffix']}"
            return "bad-suffix", None
        if entry["prefix"].partition("/")[0] in dynamic:
            return "ok", None
        return "bad-prefix", None

    def finding(
        path: str, record: Dict[str, Any], entry: Dict[str, Any],
        status: str, verb: str,
    ) -> Violation:
        if status == "bad-full":
            value = entry["value"]
            message = (
                f"{verb} metric '{value}' is not declared in the metric "
                f"registry (METRIC_NAMES){suggestion(value)}"
            )
        elif status == "bad-suffix":
            suffix = entry["suffix"]
            message = (
                f"{verb} per-cgroup metric suffix '{suffix}' is not "
                f"declared in PER_CGROUP_METRICS in the metric registry"
                f"{suggestion(suffix)}"
            )
        else:
            namespace = entry["prefix"].partition("/")[0]
            message = (
                f"{verb} dynamic metric namespace '{namespace}/' is not "
                f"declared in DYNAMIC_NAMESPACES in the metric registry"
                f"{suggestion(namespace)}"
            )
        return Violation(
            path=path,
            line=record["line"],
            col=record["col"],
            rule_id="TMO016",
            message=message,
            snippet=record["snippet"],
        )

    def recorded_entries(
        record: Dict[str, Any]
    ) -> Iterator[Dict[str, Any]]:
        """Name entries of this record that actually reach a sink."""
        if record["kind"] == "sink":
            if not _is_record_sink(record["key"]):
                return
            for entry in record["names"]:
                if entry["index"] == 0:
                    yield entry
            return
        # Wrapper call: a literal counts only when it flows into a
        # recorder sink through the callee's sink-flowing parameters.
        flows = sink_params.get(record["key"])
        if not flows:
            return
        func = evaluator.functions.get(record["key"])
        params = list(func["params"]) if func else []
        offset = (
            1 if record["bound"] and params
            and params[0] in ("self", "cls") else 0
        )
        for entry in record["names"]:
            if _is_record_sink(flows.get(entry["index"] + offset)):
                yield entry
        for name, entry in record.get("kwnames", {}).items():
            if name in params and _is_record_sink(
                flows.get(params.index(name))
            ):
                yield entry

    # -- validate recorded and read names ------------------------------
    recorded_labels: List[Tuple[str, Dict[str, Any], str]] = []
    for path, state in state_facts:
        for record in state.get("metric_records", []):
            for entry in recorded_entries(record):
                status, label = classify(entry)
                if status != "ok":
                    yield finding(path, record, entry, status, "recorded")
                elif label is not None:
                    recorded_labels.append((path, record, label))
        for read in state.get("metric_reads", []):
            value = read["value"]
            if "/" not in value:
                continue
            status, _ = classify({"index": 0, "value": value})
            if status != "ok":
                yield finding(path, read, {"value": value}, status, "read")

    # -- recorded-but-never-read --------------------------------------
    if not any(
        "tests" in PurePosixPath(path.replace("\\", "/")).parts
        for path, _ in state_facts
    ):
        return  # without the test tree, "never read" is unknowable
    reads_full: Set[str] = set()
    for _, state in state_facts:
        for read in state.get("metric_reads", []):
            reads_full.add(read["value"])
    read_suffixes = {
        value.split("/", 1)[1] for value in reads_full if "/" in value
    }
    seen_unread: Set[str] = set()
    for path, record, label in recorded_labels:
        if label.startswith("*/"):
            suffix = label[2:]
            if suffix in read_suffixes or suffix in unread_ok:
                continue
            display = f"<cgroup>/{suffix}"
        else:
            if label in reads_full or label in unread_ok:
                continue
            display = label
        if display in seen_unread:
            continue
        seen_unread.add(display)
        yield Violation(
            path=path,
            line=record["line"],
            col=record["col"],
            rule_id="TMO016",
            message=(
                f"metric '{display}' is recorded but never read by any "
                "test or analysis in the analysed tree; add a reader, "
                "or declare it in UNREAD_OK in the metric registry "
                "with a reason"
            ),
            snippet=record["snippet"],
        )


# ----------------------------------------------------------------------
# rule registration


@register
class ProcessUnsafeGlobalRule(FlowRule):
    rule_id = "TMO015"
    name = "process-unsafe-global"
    summary = (
        "worker-reachable code touches mutable module-level state "
        "(flow pass)"
    )


@register
class MetricRegistryDriftRule(FlowRule):
    rule_id = "TMO016"
    name = "metric-registry-drift"
    summary = (
        "metric name missing from the declared registry, or recorded "
        "but never read (flow pass)"
    )
