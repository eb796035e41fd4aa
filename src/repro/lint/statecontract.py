"""State-contract analysis (rule TMO015).

The simulator's parallel fleet rests on a process-safety contract
that, before this pass, was only enforced dynamically: fleet worker
processes must share no mutable module-level state, or parallel runs
diverge from serial ones on *some* seed.

This pass proves it statically, on every ``tmo-lint`` run, using the
same two-phase scheme as :mod:`repro.lint.unitflow`: phase A
(:func:`collect_module`) records JSON-serialisable facts per file,
phase B (:func:`check`) evaluates them whole-program.

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

Metric names are not checked here: the recorder enforces the name
registry at runtime (:func:`repro.sim.metric_names.check_metric_name`).
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.callgraph import ModuleInfo, ModuleResolver, ProjectIndex
from repro.lint.registry import register
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
    """Phase-A walker for one function: module-level state accesses."""

    def __init__(
        self,
        module: ModuleInfo,
        resolver: ModuleResolver,
        lines: List[str],
        key: str,
        func: Optional[ast.AST],
        module_names: Set[str],
        out: Dict[str, List[Dict[str, Any]]],
    ) -> None:
        self.module = module
        self.resolver = resolver
        self.lines = lines
        self.key = key
        self.module_names = module_names
        self.out = out
        if func is not None:
            self.locals, self.declared_global = _local_names(func)
        else:
            self.locals, self.declared_global = set(), set()
        self._flagged: Set[Tuple[int, int, str]] = set()

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
            for target in node.targets:
                self._note_store_target(target)
        elif isinstance(node, ast.AugAssign):
            self._note_store_target(node.target)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                self._note_store_target(target)
        elif isinstance(node, ast.Call):
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


def collect_module(
    module: ModuleInfo, index: ProjectIndex, source: str
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

    # -- per-function walks ---------------------------------------------
    def analyse(
        key: str, func: Optional[ast.AST], body: Sequence[ast.stmt]
    ) -> None:
        _FunctionFacts(
            module, resolver, lines, key, func, own_names, records,
        ).run(body)
        for stmt in ast.walk(ast.Module(body=list(body), type_ignores=[])):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _FunctionFacts(
                    module, resolver, lines,
                    f"{key}.<local>.{stmt.name}", stmt,
                    own_names, records,
                ).run(stmt.body)

    toplevel = [
        stmt for stmt in module.tree.body
        if not isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
    ]
    analyse(f"{module.name}.<toplevel>", None, toplevel)
    for stmt in module.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            analyse(f"{module.name}.{stmt.name}", stmt, stmt.body)
        elif isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    analyse(
                        f"{module.name}.{stmt.name}.{item.name}", item,
                        item.body,
                    )

    return {
        "module": module.name,
        "classes": classes,
        "globals": [
            {"name": name, "line": line}
            for name, line in sorted(own_globals.items())
        ],
        "global_accesses": records.get("global_accesses", []),
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
    """Phase B: emit TMO015 findings."""
    state_facts = _state_facts(facts_by_path)
    yield from _check_process_safety(facts_by_path, state_facts, options)


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

