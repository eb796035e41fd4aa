"""Project-wide call-graph resolution for the flow passes.

The per-statement rules (TMO001-TMO008) see one file at a time; the
flow passes (:mod:`repro.lint.unitflow`, :mod:`repro.lint.taint`) need
to know *which function a call lands in* across module boundaries.
This module builds that map:

* :class:`ProjectIndex` — every module under the analysed roots, with
  its functions, classes, methods and dataclass fields indexed by a
  stable qualified key (``repro.sim.metrics.MetricsRecorder.record``);
* :class:`ModuleResolver` — resolves a call expression inside one
  module to such a key, through imports (absolute and relative),
  aliases, ``self``, class constructors, and locals whose class is
  known from an assignment or annotation;
* :func:`build_call_graph` — the caller→callee edge set, used by the
  tests and available for tooling.

Resolution is best-effort and *sound for the project's idioms*: a call
that cannot be resolved is simply absent from the graph (the flow
passes then treat its value as unknown/untainted rather than guessing).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.astutil import unit_of

#: Decorator names that mark a class as a dataclass (constructor
#: parameters come from the field declarations).
_DATACLASS_DECORATORS = frozenset({"dataclass", "dataclasses.dataclass"})


def module_name_for(path: Path) -> str:
    """Importable dotted name for ``path``, inferred from packages.

    Walks up while ``__init__.py`` exists, so ``src/repro/sim/host.py``
    maps to ``repro.sim.host`` and a bare ``benchmarks/bench_common.py``
    (no package) maps to ``bench_common`` — exactly how each is
    imported at runtime.
    """
    parts = [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    if path.stem == "__init__" and len(parts) > 1:
        parts = parts[1:]
    return ".".join(reversed(parts))


@dataclass
class FunctionInfo:
    """One function or method definition."""

    key: str                       # qualified key, e.g. mod.Class.meth
    name: str
    params: List[str] = field(default_factory=list)
    lineno: int = 0
    is_method: bool = False

    @property
    def param_units(self) -> List[Optional[str]]:
        return [unit_of(p) for p in self.params]


@dataclass
class ClassInfo:
    """One class: its methods, declared fields and base names."""

    key: str
    name: str
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: declaration-ordered (field name, unit) pairs — the synthesized
    #: constructor signature for dataclasses without an __init__.
    fields: List[Tuple[str, Optional[str]]] = field(default_factory=list)
    is_dataclass: bool = False
    base_names: List[str] = field(default_factory=list)

    def constructor_params(self) -> List[str]:
        """Constructor parameter names, *without* ``self``."""
        init = self.methods.get("__init__")
        if init is not None:
            return init.params[1:]
        if self.is_dataclass:
            return [name for name, _ in self.fields]
        return []


@dataclass
class ModuleInfo:
    """Everything the resolver knows about one project module."""

    name: str                      # importable dotted name
    path: str                      # as given to the engine (posix)
    tree: Optional[ast.Module] = None
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: local alias -> ("mod", dotted) | ("obj", "module.attr")
    imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)


def _decorator_names(node: ast.AST) -> Iterable[str]:
    for deco in getattr(node, "decorator_list", ()):
        target = deco.func if isinstance(deco, ast.Call) else deco
        parts: List[str] = []
        while isinstance(target, ast.Attribute):
            parts.append(target.attr)
            target = target.value
        if isinstance(target, ast.Name):
            parts.append(target.id)
            yield ".".join(reversed(parts))


def _param_names(func: ast.AST) -> List[str]:
    args = func.args
    return [a.arg for a in
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)]


def _index_class(mod_name: str, node: ast.ClassDef) -> ClassInfo:
    info = ClassInfo(key=f"{mod_name}.{node.name}", name=node.name)
    info.is_dataclass = any(
        d in _DATACLASS_DECORATORS for d in _decorator_names(node)
    )
    for base in node.bases:
        parts: List[str] = []
        target = base
        while isinstance(target, ast.Attribute):
            parts.append(target.attr)
            target = target.value
        if isinstance(target, ast.Name):
            parts.append(target.id)
            info.base_names.append(".".join(reversed(parts)))
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.methods[stmt.name] = FunctionInfo(
                key=f"{info.key}.{stmt.name}",
                name=stmt.name,
                params=_param_names(stmt),
                lineno=stmt.lineno,
                is_method=True,
            )
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            info.fields.append((stmt.target.id, unit_of(stmt.target.id)))
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    info.fields.append((target.id, unit_of(target.id)))
    return info


def index_module(name: str, path: str, tree: ast.Module) -> ModuleInfo:
    """Build the definition/import index for one parsed module."""
    info = ModuleInfo(name=name, path=path, tree=tree)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions[node.name] = FunctionInfo(
                key=f"{name}.{node.name}",
                name=node.name,
                params=_param_names(node),
                lineno=node.lineno,
            )
        elif isinstance(node, ast.ClassDef):
            info.classes[node.name] = _index_class(name, node)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else local
                info.imports[local] = ("mod", target)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # Relative import: resolve against this module's package.
                package = name.split(".")
                # level 1 = current package; the module part of `name`
                # itself is not a package component.
                package = package[: len(package) - node.level]
                base = ".".join(package + ([node.module] if node.module else []))
            else:
                base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                info.imports[local] = ("obj", f"{base}.{alias.name}")
    return info


class ProjectIndex:
    """All modules under the analysed roots, keyed by dotted name."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.by_path: Dict[str, ModuleInfo] = {}

    def add(self, info: ModuleInfo) -> None:
        self.modules[info.name] = info
        self.by_path[info.path] = info

    # -- lookups -------------------------------------------------------

    def function(self, key: str) -> Optional[FunctionInfo]:
        mod, _, tail = key.rpartition(".")
        info = self.modules.get(mod)
        if info is not None and tail in info.functions:
            return info.functions[tail]
        # method key: module.Class.meth
        mod2, _, cls_name = mod.rpartition(".")
        info = self.modules.get(mod2)
        if info is not None and cls_name in info.classes:
            return info.classes[cls_name].methods.get(tail)
        return None

    def class_info(self, key: str) -> Optional[ClassInfo]:
        mod, _, tail = key.rpartition(".")
        info = self.modules.get(mod)
        if info is not None:
            return info.classes.get(tail)
        return None

    def resolve_method(
        self, class_key: str, method: str, _seen: Optional[Set[str]] = None
    ) -> Optional[FunctionInfo]:
        """Find ``method`` on the class or (project-local) bases."""
        seen = _seen or set()
        if class_key in seen:
            return None
        seen.add(class_key)
        cls = self.class_info(class_key)
        if cls is None:
            return None
        if method in cls.methods:
            return cls.methods[method]
        mod = self.modules.get(class_key.rpartition(".")[0])
        for base_name in cls.base_names:
            if mod is None:
                continue
            resolved = ModuleResolver(self, mod).resolve_name(base_name)
            if resolved is not None and resolved[0] == "class":
                found = self.resolve_method(resolved[1], method, seen)
                if found is not None:
                    return found
        return None


def build_project_index(
    files: Sequence[Tuple[str, ast.Module]]
) -> ProjectIndex:
    """Index every (path, tree) pair into a :class:`ProjectIndex`."""
    index = ProjectIndex()
    for path, tree in files:
        name = module_name_for(Path(path))
        index.add(index_module(name, path, tree))
    return index


class ModuleResolver:
    """Resolves names and calls inside one module to project keys.

    Resolution results are tagged tuples:

    * ``("func", key)`` — a project function or method;
    * ``("class", key)`` — a project class (a call is its constructor);
    * ``("mod", name)`` — a project module;
    * ``None`` — outside the project (stdlib, numpy, unknown).
    """

    def __init__(self, index: ProjectIndex, module: ModuleInfo) -> None:
        self.index = index
        self.module = module

    # -- name resolution ----------------------------------------------

    def _resolve_head(self, head: str) -> Optional[Tuple[str, str]]:
        if head in self.module.functions:
            return ("func", self.module.functions[head].key)
        if head in self.module.classes:
            return ("class", self.module.classes[head].key)
        imported = self.module.imports.get(head)
        if imported is None:
            return None
        kind, target = imported
        if kind == "mod":
            if target in self.index.modules:
                return ("mod", target)
            return None
        # "obj": from X import Y — Y may be a function, class or module.
        return self._resolve_dotted_absolute(target)

    def _resolve_dotted_absolute(
        self, dotted: str
    ) -> Optional[Tuple[str, str]]:
        if dotted in self.index.modules:
            return ("mod", dotted)
        mod, _, attr = dotted.rpartition(".")
        info = self.index.modules.get(mod)
        if info is None:
            return None
        if attr in info.functions:
            return ("func", info.functions[attr].key)
        if attr in info.classes:
            return ("class", info.classes[attr].key)
        # Re-export (`from repro.sim import rng` style chains).
        imported = info.imports.get(attr)
        if imported is not None:
            kind, target = imported
            if kind == "mod" and target in self.index.modules:
                return ("mod", target)
            if kind == "obj":
                return self._resolve_dotted_absolute(target)
        return None

    def resolve_name(self, dotted: str) -> Optional[Tuple[str, str]]:
        """Resolve ``a.b.c`` spelled inside this module."""
        parts = dotted.split(".")
        current = self._resolve_head(parts[0])
        for attr in parts[1:]:
            if current is None:
                return None
            kind, key = current
            if kind == "mod":
                current = self._resolve_dotted_absolute(f"{key}.{attr}")
            elif kind == "class":
                method = self.index.resolve_method(key, attr)
                current = ("func", method.key) if method else None
            else:
                return None
        return current

    # -- call resolution ----------------------------------------------

    def resolve_call(
        self,
        call: ast.Call,
        local_classes: Optional[Dict[str, str]] = None,
        self_class: Optional[str] = None,
        self_attr_classes: Optional[Dict[str, str]] = None,
    ) -> Optional[Tuple[str, str, bool]]:
        """Resolve a call node to ``(kind, key, bound)``.

        ``local_classes`` maps local variable names to class keys (from
        ``v = ClassName(...)`` or annotations); ``self_class`` is the
        enclosing class when resolving inside a method;
        ``self_attr_classes`` maps ``self.<attr>`` names to class keys.
        ``bound`` is True when the first declared parameter (``self``)
        is already bound by the receiver.
        """
        func = call.func
        # self.method(...) and self.attr.method(...)
        if isinstance(func, ast.Attribute):
            value = func.value
            if isinstance(value, ast.Name):
                if value.id == "self" and self_class is not None:
                    method = self.index.resolve_method(self_class, func.attr)
                    if method is not None:
                        return ("func", method.key, True)
                    return None
                if local_classes and value.id in local_classes:
                    method = self.index.resolve_method(
                        local_classes[value.id], func.attr
                    )
                    if method is not None:
                        return ("func", method.key, True)
                    return None
            if (
                isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "self"
                and self_attr_classes
                and value.attr in self_attr_classes
            ):
                method = self.index.resolve_method(
                    self_attr_classes[value.attr], func.attr
                )
                if method is not None:
                    return ("func", method.key, True)
                return None
        dotted = _dotted(func)
        if dotted is None:
            return None
        resolved = self.resolve_name(dotted)
        if resolved is None:
            return None
        kind, key = resolved
        if kind == "mod":
            return None
        if kind == "class":
            return ("class", key, False)
        # Function reached through a dotted path: `mod.Class.meth(x)`
        # is an unbound method access, plain functions are unbound too.
        info = self.index.function(key)
        bound = False
        if info is not None and info.is_method and "." not in dotted:
            # `from mod import Class` then Class.meth — still unbound;
            # a bare imported method name cannot be bound either.
            bound = False
        return ("func", key, bound)


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def collect_self_attr_classes(
    resolver: ModuleResolver, class_node: ast.ClassDef
) -> Dict[str, str]:
    """Map ``self.<attr>`` names to class keys for one class body.

    Sources: ``self.x = ClassName(...)`` assignments in any method and
    ``x: ClassName`` annotated assignments in the class body. Lets the
    flow passes resolve ``self.metrics.record(...)`` to the project's
    ``MetricsRecorder.record``.
    """
    out: Dict[str, str] = {}

    def note(attr: str, type_name: Optional[str]) -> None:
        if not type_name:
            return
        resolved = resolver.resolve_name(type_name)
        if resolved is not None and resolved[0] == "class":
            out[attr] = resolved[1]

    for stmt in class_node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            note(stmt.target.id, _dotted(stmt.annotation))
    for node in ast.walk(class_node):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        value = node.value
        if not isinstance(value, ast.Call):
            continue
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                note(target.attr, _dotted(value.func))
    return out


def build_call_graph(
    index: ProjectIndex,
) -> Dict[str, Set[str]]:
    """Caller key → callee keys over every indexed module.

    Module-level calls are attributed to a ``<module>.<toplevel>``
    pseudo-caller so scripts (benchmarks, examples) appear in the graph.
    """
    edges: Dict[str, Set[str]] = {}
    for module in index.modules.values():
        if module.tree is None:
            continue
        resolver = ModuleResolver(index, module)
        _walk_calls(resolver, module, edges)
    return edges


def _caller_key(
    module: ModuleInfo, stack: List[str]
) -> str:
    if not stack:
        return f"{module.name}.<toplevel>"
    return f"{module.name}." + ".".join(stack)


def _walk_calls(
    resolver: ModuleResolver,
    module: ModuleInfo,
    edges: Dict[str, Set[str]],
) -> None:
    class Visitor(ast.NodeVisitor):
        def __init__(self) -> None:
            self.stack: List[str] = []
            self.class_stack: List[str] = []
            self.local_classes: Dict[str, str] = {}

        def visit_ClassDef(self, node: ast.ClassDef) -> None:
            self.class_stack.append(f"{module.name}.{node.name}")
            self.stack.append(node.name)
            self.generic_visit(node)
            self.stack.pop()
            self.class_stack.pop()

        def _visit_func(self, node) -> None:
            self.stack.append(node.name)
            saved, self.local_classes = self.local_classes, {}
            for arg in node.args.args + node.args.kwonlyargs:
                if arg.annotation is not None:
                    ann = _dotted(arg.annotation)
                    if ann:
                        resolved = resolver.resolve_name(ann)
                        if resolved and resolved[0] == "class":
                            self.local_classes[arg.arg] = resolved[1]
            self.generic_visit(node)
            self.local_classes = saved
            self.stack.pop()

        visit_FunctionDef = _visit_func
        visit_AsyncFunctionDef = _visit_func

        def visit_Assign(self, node: ast.Assign) -> None:
            if isinstance(node.value, ast.Call):
                resolved = resolver.resolve_call(
                    node.value, self.local_classes,
                    self.class_stack[-1] if self.class_stack else None,
                )
                if resolved and resolved[0] == "class":
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self.local_classes[target.id] = resolved[1]
            self.generic_visit(node)

        def visit_Call(self, node: ast.Call) -> None:
            resolved = resolver.resolve_call(
                node, self.local_classes,
                self.class_stack[-1] if self.class_stack else None,
            )
            if resolved is not None:
                kind, key, _ = resolved
                callee = f"{key}.__init__" if kind == "class" else key
                caller = _caller_key(module, self.stack)
                edges.setdefault(caller, set()).add(callee)
            self.generic_visit(node)

    Visitor().visit(module.tree)
