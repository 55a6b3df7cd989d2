"""Rank-symbolic abstract interpreter over the SPMD app sources.

:class:`ModuleSet` parses a set of source files (no imports are
executed — everything is AST-level), discovers the ``register_app``
entries, and :func:`analyze_app` interprets one app/variant: the
builder is called with an abstract config (dataclass declared
defaults), the returned ``main(ctx)`` coroutine is executed over the
abstract domain of :mod:`repro.lint.proto.graph`, and every spawned
service body is interpreted as a daemon trace afterwards, sharing the
same abstract heap so state handed to services through closures stays
visible.

Design rules, in order of importance:

1. **Soundness through widening.**  Anything the interpreter cannot
   follow — an unresolved import, an unsupported construct, an internal
   error — degrades to ``TOP`` (and, for whole coroutines, an
   ``incomplete`` trace that the graph widens to a ⊤→⊤ edge).  The
   superset property against observed traffic survives every fallback.
2. **Branches join, loops run twice.**  A concrete test takes one
   branch; a symbolic test interprets both and joins the environments.
   Loop bodies run two passes so cross-iteration heap flows (a service
   parking a request in one handler and serving it from another) are
   observed.
3. **Interprocedural by inlining.**  Calls into resolvable functions
   are interpreted at the call site with a depth cap and a recursion
   guard; each distinct call site keeps its own instance identity so
   three pipelined transposes count as three fan-ins, not one.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..static import (_GLOBAL_RNG_FNS, _NUMPY_RNG_FNS, _WALL_CLOCK_DT_FNS,
                      _WALL_CLOCK_TIME_FNS)
from .graph import (AV, Cell, ProcTrace, ProtoOp, Skeleton, WILD, const,
                    dst_category, join, tag_shape_of, top)

#: runtime modules whose internal counted fan-ins are rank-deterministic
#: reductions (collectives); their receives never count toward the
#: pipelined-fan-in rule, and barriers additionally reset it.
COLLECTIVE_MODULES = {
    "barrier": "barrier",
    "bcast": "bcast",
    "reduction": "reduction",
}

#: external callables whose results carry a determinism taint, built
#: from the static checker's wall-clock and global-RNG tables so that the
#: list lives in one place.
TAINT_SOURCES = {
    **{f"time.{fn}": "wall-clock" for fn in sorted(_WALL_CLOCK_TIME_FNS)},
    **{f"datetime.{fn}": "wall-clock" for fn in sorted(_WALL_CLOCK_DT_FNS)},
    **{f"random.{fn}": "global-rng" for fn in sorted(_GLOBAL_RNG_FNS)},
    **{f"numpy.random.{fn}": "global-rng" for fn in sorted(_NUMPY_RNG_FNS)},
}

_CALL_DEPTH_CAP = 40
_EVAL_BUDGET = 400_000


class _Budget(Exception):
    """Abstract-interpretation step budget exhausted."""


class _Return(Exception):
    def __init__(self, value: AV) -> None:
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


# ----------------------------------------------------------------------
# Module loading and the app registry
# ----------------------------------------------------------------------

class ModuleInfo:
    """Parsed source of one module: AST plus name-resolution tables."""

    def __init__(self, path: str, dotted: str, tree: ast.Module) -> None:
        self.path = path
        self.dotted = dotted
        self.tree = tree
        self.functions: Dict[str, ast.AST] = {}
        self.classes: Dict[str, ast.ClassDef] = {}
        self.imports: Dict[str, Tuple[str, Optional[str]]] = {}
        self.consts: Dict[str, AV] = {}
        self._index()

    @property
    def package(self) -> str:
        return self.dotted.rsplit(".", 1)[0] if "." in self.dotted else ""

    def _index(self) -> None:
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                self.classes[node.name] = node
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.imports[local] = (alias.name, None)
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from(node)
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.imports[local] = (base, alias.name)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                value = fold_const(node.value, self.consts)
                if value is not None:
                    self.consts[node.targets[0].id] = value

    def _resolve_from(self, node: ast.ImportFrom) -> str:
        if node.level == 0:
            return node.module or ""
        parts = self.dotted.split(".")
        # level=1 strips the module name itself, each extra level one
        # more package component.
        base = parts[:-node.level] if node.level <= len(parts) else []
        if node.module:
            base = base + node.module.split(".")
        return ".".join(base)


_SENTINEL = object()


def fold_const(node: ast.AST, env: Optional[Dict[str, AV]] = None) -> Optional[AV]:
    """Best-effort constant folding of a module-level expression."""
    value = _fold(node, env or {})
    return const(value) if value is not _SENTINEL else None


def _fold(node: ast.AST, env: Dict[str, AV]) -> Any:
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        got = env.get(node.id)
        if got is not None and got.is_const:
            return got.const
        return _SENTINEL
    if isinstance(node, (ast.Tuple, ast.List)):
        items = [_fold(e, env) for e in node.elts]
        if any(item is _SENTINEL for item in items):
            return _SENTINEL
        return tuple(items)
    if isinstance(node, ast.UnaryOp):
        val = _fold(node.operand, env)
        if val is _SENTINEL:
            return _SENTINEL
        try:
            if isinstance(node.op, ast.USub):
                return -val
            if isinstance(node.op, ast.Not):
                return not val
        except Exception:
            return _SENTINEL
        return _SENTINEL
    if isinstance(node, ast.BinOp):
        left, right = _fold(node.left, env), _fold(node.right, env)
        if left is _SENTINEL or right is _SENTINEL:
            return _SENTINEL
        try:
            return _BINOPS[type(node.op)](left, right)
        except Exception:
            return _SENTINEL
    return _SENTINEL


_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.FloorDiv: lambda a, b: a // b,
    ast.Mod: lambda a, b: a % b,
    ast.Pow: lambda a, b: a ** b,
}


@dataclass
class AppEntry:
    """One discovered ``register_app`` call."""

    app: str
    variant: str
    module: ModuleInfo
    builder: ast.expr
    timing_dependent: bool = False
    site: Tuple[str, int] = ("", 0)


class ModuleSet:
    """A set of parsed modules with cross-module name resolution."""

    def __init__(self, files: Sequence[Tuple[str, str]]) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        for path, dotted in files:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    tree = ast.parse(handle.read(), filename=path)
            except (OSError, SyntaxError):
                continue
            self.modules[dotted] = ModuleInfo(path, dotted, tree)
        self.registry: Dict[Tuple[str, str], AppEntry] = {}
        self._discover_registry()

    # -- construction helpers -----------------------------------------
    @classmethod
    def for_repo(cls, roots: Optional[Sequence[str]] = None) -> "ModuleSet":
        """Module set over the installed ``repro`` package sources.

        ``roots`` restricts to sub-packages (default: the interprocedural
        surface named by the analyzer spec — apps, runtime, magpie).
        """
        pkg_dir = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        subdirs = list(roots) if roots else ["apps", "runtime", "magpie"]
        files: List[Tuple[str, str]] = []
        for sub in subdirs:
            base = os.path.join(pkg_dir, sub)
            if not os.path.isdir(base):
                continue
            for dirpath, _dirnames, filenames in os.walk(base):
                for fname in sorted(filenames):
                    if not fname.endswith(".py"):
                        continue
                    path = os.path.join(dirpath, fname)
                    rel = os.path.relpath(path, os.path.dirname(pkg_dir))
                    dotted = rel[:-3].replace(os.sep, ".")
                    if dotted.endswith(".__init__"):
                        dotted = dotted[:-len(".__init__")]
                    # Prefer checkout-relative paths in reports.
                    shown = os.path.relpath(path)
                    if shown.startswith(".."):
                        shown = path
                    files.append((shown, dotted))
        return cls(files)

    @classmethod
    def from_paths(cls, paths: Sequence[str], package: str = "app"
                   ) -> "ModuleSet":
        """Module set over explicit files/directories (test fixtures)."""
        files: List[Tuple[str, str]] = []
        for entry in paths:
            if os.path.isdir(entry):
                for dirpath, _dirnames, filenames in os.walk(entry):
                    for fname in sorted(filenames):
                        if fname.endswith(".py"):
                            path = os.path.join(dirpath, fname)
                            stem = os.path.splitext(
                                os.path.relpath(path, entry))[0]
                            dotted = package + "." + \
                                stem.replace(os.sep, ".")
                            files.append((path, dotted))
            elif entry.endswith(".py"):
                stem = os.path.splitext(os.path.basename(entry))[0]
                files.append((entry, package + "." + stem))
        return cls(files)

    # -- registry ------------------------------------------------------
    def _discover_registry(self) -> None:
        for module in self.modules.values():
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = _call_name(node.func)
                if name != "register_app":
                    continue
                args = node.args
                if len(args) < 3:
                    continue
                app = _const_str(args[0])
                variant = _const_str(args[1])
                if app is None or variant is None:
                    continue
                timing = False
                for kw in node.keywords:
                    if kw.arg == "timing_dependent":
                        folded = fold_const(kw.value)
                        timing = bool(folded.const) if folded else False
                self.registry[(app, variant)] = AppEntry(
                    app=app, variant=variant, module=module,
                    builder=args[2], timing_dependent=timing,
                    site=(module.path, node.lineno))
        # ``is_timing_dependent`` is keyed by app *name* at runtime: if any
        # registration of an app carries the flag, every variant does.
        timed = {app for (app, _v), e in self.registry.items()
                 if e.timing_dependent}
        for (app, _variant), entry in self.registry.items():
            if app in timed:
                entry.timing_dependent = True

    def apps(self) -> List[Tuple[str, str]]:
        return sorted(self.registry)

    # -- resolution ----------------------------------------------------
    def resolve(self, module: ModuleInfo, name: str,
                _depth: int = 0) -> Optional[AV]:
        if name in module.consts:
            return module.consts[name]
        if name in module.functions:
            return AV("func", payload=FuncVal(module.functions[name],
                                              (), module))
        if name in module.classes:
            return AV("class", payload=ClassVal(module.classes[name], module))
        if name in module.imports:
            target, orig = module.imports[name]
            if orig is None:
                return AV("module", const=target)
            other = self.lookup_module(target)
            if other is not None and _depth < 4:
                got = self.resolve(other, orig, _depth + 1)
                if got is not None:
                    return got
            return AV("extern", const=f"{target}.{orig}")
        return None

    def lookup_module(self, dotted: str) -> Optional[ModuleInfo]:
        if dotted in self.modules:
            return self.modules[dotted]
        # Tolerate differing top-level anchors ("repro.apps.base" vs
        # "app.base") by suffix matching.
        for cand, info in self.modules.items():
            if cand.endswith("." + dotted) or dotted.endswith("." + cand):
                return info
        return None


def _call_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _const_str(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


# ----------------------------------------------------------------------
# Callable / object representations
# ----------------------------------------------------------------------

@dataclass
class FuncVal:
    node: ast.AST                       # FunctionDef or Lambda
    closure: Tuple[Dict[str, AV], ...]  # innermost first
    module: ModuleInfo
    bound: Optional["ObjVal"] = None


@dataclass
class ClassVal:
    node: ast.ClassDef
    module: ModuleInfo
    #: enclosing scopes for classes defined inside a function body, so
    #: methods can see the defining function's locals (innermost first)
    closure: Tuple[Dict[str, AV], ...] = ()

    def methods(self) -> Dict[str, ast.AST]:
        return {n.name: n for n in self.node.body
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}

    def fields(self) -> List[Tuple[str, Optional[ast.expr]]]:
        out = []
        for stmt in self.node.body:
            if isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name):
                out.append((stmt.target.id, stmt.value))
        return out


class ObjVal:
    __slots__ = ("cls", "attrs", "label")

    def __init__(self, cls: Optional[ClassVal], label: str = "") -> None:
        self.cls = cls
        self.attrs: Dict[str, Cell] = {}
        self.label = label or (cls.node.name if cls else "obj")

    def attr_cell(self, name: str) -> Cell:
        cell = self.attrs.get(name)
        if cell is None:
            cell = self.attrs[name] = Cell(f"{self.label}.{name}")
        return cell


@dataclass
class LoopFrame:
    kind: str                   # "for" | "while"
    sym: int
    cond_depth: int
    breaks_msgd: bool = False


_BUILTINS = frozenset({
    "range", "len", "list", "tuple", "sorted", "set", "frozenset", "dict",
    "min", "max", "sum", "abs", "int", "float", "str", "bool", "enumerate",
    "zip", "isinstance", "print", "iter", "next", "round", "divmod", "map",
    "filter", "any", "all", "reversed", "getattr", "hasattr", "repr",
    "id", "hash", "type", "object", "Exception", "ValueError",
    "RuntimeError", "KeyError", "StopIteration", "NotImplementedError",
})


# ----------------------------------------------------------------------
# The interpreter
# ----------------------------------------------------------------------

class Interpreter:
    """Abstract executor for one app/variant's coroutines."""

    def __init__(self, modset: ModuleSet, skeleton: Skeleton) -> None:
        self.modset = modset
        self.skeleton = skeleton
        self.cur: Optional[ProcTrace] = None
        self.loop_stack: List[LoopFrame] = []
        self.cond_stack: List[AV] = []
        self.call_sites: List[Tuple[str, int]] = []
        self.module_stack: List[ModuleInfo] = []
        self.collective: Optional[str] = None
        self.depth = 0
        self.steps = 0
        self.loop_syms = 0
        self.spawn_queue: List[Tuple[AV, str, Tuple[str, int]]] = []
        self._spawned_seen: Set[Tuple[int, int]] = set()
        self._svc_names: Dict[str, int] = {}
        #: allocation-site summary objects: repeated instantiation at one
        #: call site yields one ObjVal whose attribute cells join all
        #: constructor runs (keeps ``d.get(k) or Cls()`` patterns precise)
        self._objcache: Dict[Tuple[int, Tuple[str, int]], AV] = {}

    # -- bookkeeping ---------------------------------------------------
    def _tick(self) -> None:
        self.steps += 1
        if self.steps > _EVAL_BUDGET:
            raise _Budget()

    @property
    def loop_depth(self) -> int:
        return len(self.loop_stack)

    def cur_file(self) -> str:
        if self.module_stack:
            return self.module_stack[-1].path
        return "<unknown>"

    def _new_sym(self) -> int:
        self.loop_syms += 1
        return self.loop_syms

    def in_loop(self) -> bool:
        return self.loop_depth > 0

    # -- proc driving --------------------------------------------------
    def run_proc(self, name: str, fn_av: AV, daemon: bool) -> ProcTrace:
        trace = ProcTrace(name=name, daemon=daemon)
        self.skeleton.procs.append(trace)
        self.cur = trace
        self.loop_stack, self.cond_stack = [], []
        self.call_sites, self.collective = [], None
        try:
            if fn_av.kind != "func":
                trace.incomplete = True
            else:
                self.call_function(fn_av, [AV("ctx")], {}, guard=False)
        except _Budget:
            trace.incomplete = True
        except Exception:
            trace.incomplete = True
        if trace.incomplete:
            self.skeleton.incomplete = True
            site = (self.cur_file(), 0)
            trace.ops.append(ProtoOp(kind="send", proc=name, site=site,
                                     detail="widened"))
            trace.ops.append(ProtoOp(kind="recv", proc=name, site=site,
                                     detail="widened"))
        return trace

    def drain_spawns(self) -> None:
        budget = 32
        while self.spawn_queue and budget > 0:
            budget -= 1
            factory, name, _site = self.spawn_queue.pop(0)
            if factory.kind != "func":
                self.skeleton.incomplete = True
                continue
            fv: FuncVal = factory.payload
            key = (id(fv.node), id(fv.bound) if fv.bound else 0)
            if key in self._spawned_seen:
                continue
            self._spawned_seen.add(key)
            count = self._svc_names.get(name, 0)
            self._svc_names[name] = count + 1
            label = name if count == 0 else f"{name}#{count}"
            self.run_proc(label, factory, daemon=True)

    # -- op recording --------------------------------------------------
    def record(self, kind: str, node: ast.AST, dst_av: Optional[AV] = None,
               tag_av: Optional[AV] = None,
               sinks: Optional[Dict[str, Optional[AV]]] = None,
               rpc: bool = False, detail: str = "") -> ProtoOp:
        assert self.cur is not None
        lineno = getattr(node, "lineno", 0)
        innermost = self.loop_stack[-1] if self.loop_stack else None
        in_for = innermost is not None and innermost.kind == "for"
        tag_dep = bool(innermost and tag_av is not None
                       and innermost.sym in tag_av.loopsyms)
        sink_taints = {}
        for label, av in (sinks or {}).items():
            if av is not None and av.taint:
                sink_taints[label] = av.taint
        op = ProtoOp(
            kind=kind, proc=self.cur.name,
            site=(self.cur_file(), lineno),
            ctxid=tuple(self.call_sites[-6:]),
            dst=dst_category(dst_av),
            tag=tag_shape_of(tag_av),
            mandatory=(not self.cond_stack and not self.loop_stack
                       and self.collective is None),
            conditional=bool(self.cond_stack or self.loop_stack),
            in_for=in_for, loop_tag_dep=tag_dep,
            collective=self.collective, rpc=rpc,
            sink_taints=sink_taints, detail=detail)
        self.cur.ops.append(op)
        if kind in ("send", "mcast") and self.cur.daemon:
            prov = []
            if dst_av is not None:
                prov.extend(dst_av.cells)
            if tag_av is not None:
                prov.extend(tag_av.cells)
            if any(cell.msg_written for cell in prov):
                self.cur.deferred_sends.append(op)
        return op

    # -- function calls ------------------------------------------------
    def call_function(self, fn_av: AV, args: List[AV],
                      kwargs: Dict[str, AV],
                      site: Optional[Tuple[str, int]] = None,
                      guard: bool = True) -> AV:
        self._tick()
        if fn_av.kind != "func":
            return top(fn_av, *args)
        fv: FuncVal = fn_av.payload
        if self.depth >= _CALL_DEPTH_CAP:
            return top().with_flags_of(*args)
        recursion = sum(1 for s in self.call_sites if s == site)
        if site is not None and recursion > 2:
            return top().with_flags_of(*args)

        collective_here = None
        modname = fv.module.dotted.rsplit(".", 1)[-1]
        if self.collective is None and modname in COLLECTIVE_MODULES \
                and "runtime" in fv.module.dotted:
            collective_here = COLLECTIVE_MODULES[modname]
            if collective_here == "barrier" and self.cur is not None:
                node = fv.node
                self.cur.ops.append(ProtoOp(
                    kind="barrier", proc=self.cur.name,
                    site=(fv.module.path, getattr(node, "lineno", 0)),
                    ctxid=tuple(self.call_sites[-6:]),
                    conditional=bool(self.cond_stack or self.loop_stack)))

        frame: Dict[str, AV] = {}
        self._bind_params(fv, args, kwargs, frame)
        env = (frame,) + fv.closure
        self.depth += 1
        if site is not None:
            self.call_sites.append(site)
        self.module_stack.append(fv.module)
        if collective_here is not None:
            self.collective = collective_here
        try:
            body = fv.node.body
            if isinstance(fv.node, ast.Lambda):
                return self.eval(fv.node.body, env)
            returns: List[Optional[AV]] = []
            try:
                self.exec_stmts(body, env, returns)
            except _Return as ret:
                returns.append(ret.value)
            except (_Break, _Continue):
                pass
            result: Optional[AV] = None
            for value in returns:
                result = join(result, value)
            return result if result is not None else const(None)
        except _Budget:
            raise
        except (_Return, RecursionError):
            return top()
        except Exception:
            if not guard:
                raise
            if self.cur is not None:
                self.cur.incomplete = True
                self.skeleton.incomplete = True
            return top()
        finally:
            self.depth -= 1
            self.module_stack.pop()
            if site is not None:
                self.call_sites.pop()
            if collective_here is not None:
                self.collective = None

    def _bind_params(self, fv: FuncVal, args: List[AV],
                     kwargs: Dict[str, AV], frame: Dict[str, AV]) -> None:
        node = fv.node
        arguments = node.args
        params = [a.arg for a in arguments.args]
        positional = list(args)
        if fv.bound is not None:
            positional.insert(0, AV("obj", payload=fv.bound))
        defaults = arguments.defaults
        offset = len(params) - len(defaults)
        closure_env = fv.closure + ({},)
        for idx, name in enumerate(params):
            if idx < len(positional):
                frame[name] = positional[idx]
            elif name in kwargs:
                frame[name] = kwargs[name]
            elif idx >= offset:
                try:
                    frame[name] = self.eval(defaults[idx - offset],
                                            closure_env)
                except Exception:
                    frame[name] = top()
            else:
                frame[name] = top()
        for kw_node, default in zip(arguments.kwonlyargs,
                                    arguments.kw_defaults):
            name = kw_node.arg
            if name in kwargs:
                frame[name] = kwargs[name]
            elif default is not None:
                try:
                    frame[name] = self.eval(default, closure_env)
                except Exception:
                    frame[name] = top()
            else:
                frame[name] = top()
        if arguments.vararg is not None:
            frame[arguments.vararg.arg] = top().with_flags_of(*args)
        if arguments.kwarg is not None:
            frame[arguments.kwarg.arg] = top().with_flags_of(
                *kwargs.values())

    # -- statements ----------------------------------------------------
    def exec_stmts(self, body: Sequence[ast.stmt],
                   env: Tuple[Dict[str, AV], ...],
                   returns: List[Optional[AV]]) -> None:
        for stmt in body:
            self.exec_stmt(stmt, env, returns)

    def exec_stmt(self, stmt: ast.stmt, env: Tuple[Dict[str, AV], ...],
                  returns: List[Optional[AV]]) -> None:
        self._tick()
        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value, env)
        elif isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value, env)
            for target in stmt.targets:
                self.bind(target, value, env)
        elif isinstance(stmt, ast.AugAssign):
            current = self.eval_target_read(stmt.target, env)
            operand = self.eval(stmt.value, env)
            self.bind(stmt.target, top(current, operand), env)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.bind(stmt.target, self.eval(stmt.value, env), env)
        elif isinstance(stmt, ast.Return):
            value = self.eval(stmt.value, env) if stmt.value else const(None)
            raise _Return(value)
        elif isinstance(stmt, ast.If):
            self.exec_if(stmt, env, returns)
        elif isinstance(stmt, ast.For):
            self.exec_for(stmt, env, returns)
        elif isinstance(stmt, ast.While):
            self.exec_while(stmt, env, returns)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                value = self.eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self.bind(item.optional_vars, value, env)
            self.exec_stmts(stmt.body, env, returns)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            env[0][stmt.name] = AV(
                "func", payload=FuncVal(stmt, env, self.module_stack[-1]))
        elif isinstance(stmt, ast.ClassDef):
            env[0][stmt.name] = AV(
                "class", payload=ClassVal(stmt, self.module_stack[-1],
                                          closure=tuple(env)))
        elif isinstance(stmt, ast.Break):
            if self.loop_stack:
                start = self.loop_stack[-1].cond_depth
                if any(test.msgd for test in self.cond_stack[start:]):
                    self.loop_stack[-1].breaks_msgd = True
            raise _Break()
        elif isinstance(stmt, ast.Continue):
            raise _Continue()
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.eval(stmt.exc, env)
            raise _Return(top())
        elif isinstance(stmt, ast.Try):
            self.exec_stmts(stmt.body, env, returns)
            self.cond_stack.append(top())
            try:
                for handler in stmt.handlers:
                    try:
                        self.exec_stmts(handler.body, env, returns)
                    except (_Return, _Break, _Continue):
                        pass
            finally:
                self.cond_stack.pop()
            self.exec_stmts(stmt.finalbody, env, returns)
        elif isinstance(stmt, (ast.Assert, ast.Pass, ast.Delete,
                               ast.Import, ast.ImportFrom, ast.Global,
                               ast.Nonlocal)):
            pass
        else:
            # Unknown statement: evaluate children defensively.
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    try:
                        self.eval(child, env)
                    except (_Return, _Break, _Continue):
                        raise
                    except _Budget:
                        raise
                    except Exception:
                        pass

    def exec_if(self, stmt: ast.If, env: Tuple[Dict[str, AV], ...],
                returns: List[Optional[AV]]) -> None:
        test = self.eval(stmt.test, env)
        truth = test.truth()
        if truth is True:
            self.exec_stmts(stmt.body, env, returns)
            return
        if truth is False:
            self.exec_stmts(stmt.orelse, env, returns)
            return
        before = dict(env[0])
        n_ops_start = len(self.cur.ops) if self.cur else 0
        self.cond_stack.append(test)
        try:
            body_sends = self._exec_branch(stmt.body, env, returns)
            after_body = dict(env[0])
            env[0].clear()
            env[0].update(before)
            orelse_sends = self._exec_branch(stmt.orelse, env, returns)
            # Join the two branch environments.
            for name in sorted(set(after_body) | set(env[0])):
                env[0][name] = join(after_body.get(name), env[0].get(name))
        finally:
            self.cond_stack.pop()
        # Order-stability: a send whose *occurrence* depends on
        # loop-carried service state (and has no counterpart on the
        # other path) makes a daemon's output order arrival-dependent.
        if self.cur is not None and self.cur.daemon and self.loop_stack \
                and any(cell.written_in_loop for cell in test.cells):
            ops = self.cur.ops[n_ops_start:]
            if body_sends and not orelse_sends:
                self.cur.gated_sends.extend(
                    op for op in ops if op.kind in ("send", "mcast"))
            elif orelse_sends and not body_sends:
                self.cur.gated_sends.extend(
                    op for op in ops if op.kind in ("send", "mcast"))

    def _exec_branch(self, body: Sequence[ast.stmt],
                     env: Tuple[Dict[str, AV], ...],
                     returns: List[Optional[AV]]) -> int:
        n_start = len(self.cur.ops) if self.cur else 0
        try:
            self.exec_stmts(body, env, returns)
        except _Return as ret:
            returns.append(ret.value)
        except (_Break, _Continue):
            pass
        if self.cur is None:
            return 0
        return sum(1 for op in self.cur.ops[n_start:]
                   if op.kind in ("send", "mcast"))

    def exec_for(self, stmt: ast.For, env: Tuple[Dict[str, AV], ...],
                 returns: List[Optional[AV]]) -> None:
        iter_av = self.eval(stmt.iter, env)
        sym = self._new_sym()
        elem = self.iter_elem(iter_av).with_loopsym(sym)
        frame = LoopFrame("for", sym, len(self.cond_stack))
        self.loop_stack.append(frame)
        try:
            for _pass in range(2):
                self.bind(stmt.target, elem, env)
                try:
                    self.exec_stmts(stmt.body, env, returns)
                except _Break:
                    break
                except _Continue:
                    continue
        finally:
            self.loop_stack.pop()
        if stmt.orelse:
            self.exec_stmts(stmt.orelse, env, returns)

    def exec_while(self, stmt: ast.While, env: Tuple[Dict[str, AV], ...],
                   returns: List[Optional[AV]]) -> None:
        sym = self._new_sym()
        frame = LoopFrame("while", sym, len(self.cond_stack))
        self.loop_stack.append(frame)
        tests: List[AV] = []
        try:
            for _pass in range(2):
                test = self.eval(stmt.test, env)
                tests.append(test)
                if test.truth() is False:
                    break
                try:
                    self.exec_stmts(stmt.body, env, returns)
                except _Break:
                    break
                except _Continue:
                    continue
            tests.append(self.eval(stmt.test, env))
        finally:
            self.loop_stack.pop()
        if self.cur is not None and not self.cur.daemon:
            payload_dep = any(test.msgd for test in tests) or frame.breaks_msgd
            if payload_dep:
                site = (self.cur_file(), stmt.lineno)
                if site not in self.cur.payload_loops:
                    self.cur.payload_loops.append(site)
        if stmt.orelse:
            self.exec_stmts(stmt.orelse, env, returns)

    # -- binding -------------------------------------------------------
    def bind(self, target: ast.expr, value: AV,
             env: Tuple[Dict[str, AV], ...]) -> None:
        if isinstance(target, ast.Name):
            env[0][target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            items = None
            if value.kind == "tuple" and value.items is not None \
                    and len(value.items) == len(target.elts):
                items = value.items
            for idx, sub in enumerate(target.elts):
                if isinstance(sub, ast.Starred):
                    self.bind(sub.value, top(value), env)
                elif items is not None:
                    self.bind(sub, items[idx], env)
                else:
                    self.bind(sub, top(value), env)
        elif isinstance(target, ast.Attribute):
            obj = self.eval(target.value, env)
            if obj.kind == "obj":
                obj.payload.attr_cell(target.attr).write(
                    value, self.in_loop())
        elif isinstance(target, ast.Subscript):
            container = self.eval(target.value, env)
            key = self._eval_sub_key(target, env)
            if container.kind == "cell":
                container.payload.write(value, self.in_loop(), key=key)
        # other targets: ignore (sound: reads will widen)

    def eval_target_read(self, target: ast.expr,
                         env: Tuple[Dict[str, AV], ...]) -> AV:
        try:
            return self.eval(target, env)
        except Exception:
            return top()

    def _eval_sub_key(self, node: ast.Subscript,
                      env: Tuple[Dict[str, AV], ...]) -> AV:
        try:
            return self.eval(node.slice, env)
        except Exception:
            return top()

    # -- iteration -----------------------------------------------------
    def iter_elem(self, av: AV) -> AV:
        if av.kind == "iterable" and av.payload is not None:
            return av.payload.with_flags_of(av)
        if av.kind == "cell":
            return av.payload.read().with_flags_of(av)
        if av.kind == "tuple" and av.items is not None:
            out: Optional[AV] = None
            for item in av.items:
                out = join(out, item)
            return (out or top()).with_flags_of(av)
        if av.kind == "const":
            try:
                items = list(av.const)
            except TypeError:
                return top(av)
            out = None
            for item in items[:8]:
                out = join(out, const(item))
            if len(items) > 8:
                out = join(out, top())
            return (out or top()).with_flags_of(av)
        if av.kind in ("msg", "msg-payload"):
            return top(av).with_msgd()
        if av.kind == "iter-members-own":
            return AV("member-own").with_flags_of(av)
        if av.kind == "iter-clusters":
            return AV("cluster").with_flags_of(av)
        return top(av)

    # -- expressions ---------------------------------------------------
    def eval(self, node: ast.AST, env: Tuple[Dict[str, AV], ...]) -> AV:
        self._tick()
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is not None:
            return method(node, env)
        # Unknown expression type: widen over child expressions.
        flags: List[AV] = []
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                try:
                    flags.append(self.eval(child, env))
                except (_Return, _Break, _Continue, _Budget):
                    raise
                except Exception:
                    pass
        return top(*flags)

    def _eval_Constant(self, node, env):
        return const(node.value)

    def _eval_Name(self, node, env):
        for frame in env:
            if node.id in frame:
                return frame[node.id]
        resolved = self.modset.resolve(self.module_stack[-1], node.id)
        if resolved is not None:
            return resolved
        if node.id in _BUILTINS:
            return AV("builtin", const=node.id)
        return AV("top", opaque=True)

    def _eval_Tuple(self, node, env):
        items = tuple(self.eval(e, env) for e in node.elts
                      if not isinstance(e, ast.Starred))
        out = AV("tuple", items=items)
        return out.with_flags_of(*items)

    def _eval_List(self, node, env):
        cell = Cell("list")
        for elt in node.elts:
            if isinstance(elt, ast.Starred):
                cell.write(self.iter_elem(self.eval(elt.value, env)),
                           self.in_loop())
            else:
                cell.write(self.eval(elt, env), self.in_loop())
        return AV("cell", payload=cell)

    def _eval_Set(self, node, env):
        cell = Cell("set", is_set=True)
        for elt in node.elts:
            cell.write(self.eval(elt, env), self.in_loop())
        return AV("cell", payload=cell)

    def _eval_Dict(self, node, env):
        cell = Cell("dict")
        for key, value in zip(node.keys, node.values):
            key_av = self.eval(key, env) if key is not None else top()
            cell.write(self.eval(value, env), self.in_loop(), key=key_av)
        return AV("cell", payload=cell)

    def _eval_ListComp(self, node, env):
        return self._eval_comp(node, env, env_kind="cell")

    def _eval_SetComp(self, node, env):
        return self._eval_comp(node, env, env_kind="set")

    def _eval_GeneratorExp(self, node, env):
        return self._eval_comp(node, env, env_kind="iterable")

    def _eval_DictComp(self, node, env):
        frame = dict(env[0])
        scoped = (frame,) + env[1:]
        for gen in node.generators:
            elem = self.iter_elem(self.eval(gen.iter, scoped))
            self.bind(gen.target, elem.with_loopsym(self._new_sym()), scoped)
            for cond in gen.ifs:
                self.eval(cond, scoped)
        cell = Cell("dictcomp")
        cell.write(self.eval(node.value, scoped), self.in_loop(),
                   key=self.eval(node.key, scoped))
        return AV("cell", payload=cell)

    def _eval_comp(self, node, env, env_kind):
        frame = dict(env[0])
        scoped = (frame,) + env[1:]
        for gen in node.generators:
            elem = self.iter_elem(self.eval(gen.iter, scoped))
            self.bind(gen.target, elem.with_loopsym(self._new_sym()), scoped)
            for cond in gen.ifs:
                self.eval(cond, scoped)
        elt = self.eval(node.elt, scoped)
        if env_kind == "iterable":
            return AV("iterable", payload=elt)
        cell = Cell("comp", is_set=(env_kind == "set"))
        cell.write(elt, self.in_loop())
        return AV("cell", payload=cell)

    def _eval_Lambda(self, node, env):
        return AV("func", payload=FuncVal(node, env, self.module_stack[-1]))

    def _eval_IfExp(self, node, env):
        test = self.eval(node.test, env)
        truth = test.truth()
        if truth is True:
            return self.eval(node.body, env)
        if truth is False:
            return self.eval(node.orelse, env)
        joined = join(self.eval(node.body, env),
                      self.eval(node.orelse, env))
        return (joined or top()).with_flags_of(test)

    def _eval_BoolOp(self, node, env):
        values = [self.eval(v, env) for v in node.values]
        truths = [v.truth() for v in values]
        if isinstance(node.op, ast.And):
            for v, t in zip(values, truths):
                if t is False:
                    return v
            if all(t is True for t in truths):
                return values[-1]
        else:
            for v, t in zip(values, truths):
                if t is True:
                    return v
            if all(t is False for t in truths):
                return values[-1]
        return top(*values)

    def _eval_UnaryOp(self, node, env):
        operand = self.eval(node.operand, env)
        if operand.is_const:
            try:
                if isinstance(node.op, ast.Not):
                    return const(not operand.const).with_flags_of(operand)
                if isinstance(node.op, ast.USub):
                    return const(-operand.const).with_flags_of(operand)
                if isinstance(node.op, ast.UAdd):
                    return operand
            except Exception:
                pass
        return top(operand)

    def _eval_BinOp(self, node, env):
        left = self.eval(node.left, env)
        right = self.eval(node.right, env)
        if left.is_const and right.is_const:
            handler = _BINOPS.get(type(node.op))
            if handler is not None:
                try:
                    return const(handler(left.const, right.const)) \
                        .with_flags_of(left, right)
                except Exception:
                    pass
        return top(left, right)

    def _eval_Compare(self, node, env):
        left = self.eval(node.left, env)
        rights = [self.eval(c, env) for c in node.comparators]
        if left.is_const and len(rights) == 1 and rights[0].is_const:
            result = _fold_compare(node.ops[0], left.const, rights[0].const)
            if result is not None:
                return const(result).with_flags_of(left, rights[0])
        return top(left, *rights)

    def _eval_JoinedStr(self, node, env):
        parts = [self.eval(v.value, env) for v in node.values
                 if isinstance(v, ast.FormattedValue)]
        if not parts:
            return const("".join(v.value for v in node.values
                                 if isinstance(v, ast.Constant)))
        # Keep the constant prefix before the first hole so f-string
        # tags still participate in channel matching.
        prefix_parts = []
        for value in node.values:
            if isinstance(value, ast.Constant) and \
                    isinstance(value.value, str):
                prefix_parts.append(value.value)
            else:
                break
        wide = top(*parts)
        return AV("strprefix", const="".join(prefix_parts),
                  taint=wide.taint, msgd=wide.msgd, cells=wide.cells,
                  loopsyms=wide.loopsyms, opaque=wide.opaque)

    def _eval_FormattedValue(self, node, env):
        return top(self.eval(node.value, env))

    def _eval_Starred(self, node, env):
        return self.eval(node.value, env)

    def _eval_Yield(self, node, env):
        if node.value is None:
            return top()
        return self.eval(node.value, env)

    def _eval_YieldFrom(self, node, env):
        value = self.eval(node.value, env)
        if value.opaque and self.cur is not None:
            # An un-followable sub-coroutine may perform arbitrary
            # communication: widen and flag.
            self.cur.incomplete = True
            self.skeleton.incomplete = True
            site_node = node
            self.record("send", site_node, detail="opaque yield-from")
            self.record("recv", site_node, detail="opaque yield-from")
        return value

    def _eval_Await(self, node, env):
        return self.eval(node.value, env)

    def _eval_NamedExpr(self, node, env):
        value = self.eval(node.value, env)
        self.bind(node.target, value, env)
        return value

    def _eval_Slice(self, node, env):
        for part in (node.lower, node.upper, node.step):
            if part is not None:
                self.eval(part, env)
        return top()

    def _eval_Subscript(self, node, env):
        container = self.eval(node.value, env)
        key = self.eval(node.slice, env)
        if container.kind == "cell":
            return container.payload.read().with_flags_of(key)
        if container.kind == "tuple" and container.items is not None \
                and key.is_const and isinstance(key.const, int):
            if -len(container.items) <= key.const < len(container.items):
                return container.items[key.const]
        if container.kind in ("msg", "msg-payload"):
            return top(container, key).with_msgd()
        if container.is_const:
            try:
                return const(container.const[key.const]) \
                    .with_flags_of(container, key)
            except Exception:
                pass
        return top(container, key)

    # -- attributes ----------------------------------------------------
    def _eval_Attribute(self, node, env):
        value = self.eval(node.value, env)
        attr = node.attr
        if value.kind == "ctx":
            return self._ctx_attr(attr)
        if value.kind == "topo":
            return self._topo_attr(attr)
        if value.kind == "msg":
            if attr == "src":
                return top(value).with_msgd()
            if attr == "payload":
                return AV("msg-payload", msgd=True).with_flags_of(value)
            if attr == "tag":
                return top(value).with_msgd()
            return top(value).with_msgd()
        if value.kind == "msg-payload":
            return top(value).with_msgd()
        if value.kind == "obj":
            obj: ObjVal = value.payload
            if attr in obj.attrs:
                return obj.attrs[attr].read().with_flags_of(value)
            if obj.cls is not None:
                method = obj.cls.methods().get(attr)
                if method is not None:
                    return AV("func", payload=FuncVal(
                        method, obj.cls.closure, obj.cls.module, bound=obj))
            return obj.attr_cell(attr).read().with_flags_of(value)
        if value.kind == "cell":
            return AV("cellmethod", const=attr, payload=value.payload) \
                .with_flags_of(value)
        if value.kind == "module":
            target = self.modset.lookup_module(value.const)
            if target is not None:
                resolved = self.modset.resolve(target, attr)
                if resolved is not None:
                    return resolved
            return AV("extern", const=f"{value.const}.{attr}")
        if value.kind == "extern":
            return AV("extern", const=f"{value.const}.{attr}")
        if value.kind == "class":
            cls: ClassVal = value.payload
            method = cls.methods().get(attr)
            if method is not None:
                return AV("func", payload=FuncVal(method, (), cls.module))
            return top(value)
        return top(value)

    def _ctx_attr(self, attr: str) -> AV:
        if attr == "rank":
            return AV("rank")
        if attr == "topology":
            return AV("topo")
        if attr == "num_ranks":
            return AV("numranks")
        if attr == "cluster":
            return AV("cluster-own")
        if attr == "now":
            return top()
        return AV("ctxmethod", const=attr)

    def _topo_attr(self, attr: str) -> AV:
        if attr == "num_ranks":
            return AV("numranks")
        if attr in ("num_clusters", "wide", "local"):
            return top()
        return AV("topomethod", const=attr)

    # -- calls ---------------------------------------------------------
    def _eval_Call(self, node, env):
        func = self.eval(node.func, env)
        args = [self.eval(a, env) for a in node.args
                if not isinstance(a, ast.Starred)]
        starred = [self.eval(a.value, env) for a in node.args
                   if isinstance(a, ast.Starred)]
        kwargs: Dict[str, AV] = {}
        kw_extra: List[AV] = []
        for kw in node.keywords:
            value = self.eval(kw.value, env)
            if kw.arg is None:
                kw_extra.append(value)
            else:
                kwargs[kw.arg] = value

        kind = func.kind
        if kind == "ctxmethod":
            return self._call_ctx(func.const, node, args, kwargs)
        if kind == "topomethod":
            return self._call_topo(func.const, args)
        if kind == "cellmethod":
            return self._call_cell(func, args, kwargs)
        if kind == "builtin":
            return self._call_builtin(func.const, args, kwargs)
        if kind == "class":
            return self._instantiate(func.payload, args, kwargs, node)
        if kind == "extern":
            return self._call_extern(func.const, node, args, kwargs)
        if kind == "func":
            site = (self.cur_file(), getattr(node, "lineno", 0))
            return self.call_function(func, args, kwargs, site=site)
        if kind == "msg" or kind == "msg-payload":
            return top(func, *args).with_msgd()
        return top(func, *args, *starred, *kw_extra,
                   *kwargs.values())._clone(opaque=True)

    def _call_extern(self, name: str, node, args, kwargs) -> AV:
        for suffix, source in TAINT_SOURCES.items():
            if name == suffix or name.endswith("." + suffix):
                site = f"{os.path.basename(self.cur_file())}:" \
                       f"{getattr(node, 'lineno', 0)}"
                return top(*args).with_taint(f"{source}({name} at {site})")
        if name.endswith("random.Random") or name.endswith(".Random"):
            if not args:
                site = f"{os.path.basename(self.cur_file())}:" \
                       f"{getattr(node, 'lineno', 0)}"
                return top().with_taint(f"unseeded-rng({name} at {site})")
            return top(*args)
        return top(*args, *kwargs.values())._clone(opaque=True)

    def _call_ctx(self, method: str, node, args: List[AV],
                  kwargs: Dict[str, AV]) -> AV:
        def arg(idx: int, name: str) -> Optional[AV]:
            if name in kwargs:
                return kwargs[name]
            if idx < len(args):
                return args[idx]
            return None

        if method == "send":
            dst, size = arg(0, "dst"), arg(1, "size")
            tag, payload = arg(2, "tag"), arg(3, "payload")
            self.record("send", node, dst_av=dst, tag_av=tag,
                        sinks={"dst": dst, "size": size, "tag": tag,
                               "payload": payload})
            return const(None)
        if method == "multicast":
            dsts, size = arg(0, "dsts"), arg(1, "size")
            tag, payload = arg(2, "tag"), arg(3, "payload")
            self.record("mcast", node, dst_av=dsts, tag_av=tag,
                        sinks={"dst": dsts, "size": size, "tag": tag,
                               "payload": payload})
            return const(None)
        if method == "recv":
            tag = arg(0, "tag")
            self.record("recv", node, tag_av=tag, sinks={"tag": tag})
            return AV("msg", msgd=True)
        if method == "recv_nowait":
            tag = arg(0, "tag")
            self.record("poll", node, tag_av=tag, sinks={"tag": tag})
            return AV("msg", msgd=True)
        if method == "compute":
            duration = arg(0, "duration")
            self.record("compute", node,
                        sinks={"duration": duration})
            return const(None)
        if method == "sleep":
            self.record("sleep", node)
            return const(None)
        if method == "rpc":
            dst, tag = arg(0, "dst"), arg(1, "tag")
            size, payload = arg(2, "size"), arg(3, "payload")
            self.record("send", node, dst_av=dst, tag_av=tag, rpc=True,
                        sinks={"dst": dst, "size": size, "tag": tag,
                               "payload": payload})
            reply_tag = AV("tuple", items=(const("_rpc"), AV("rank"), top()))
            self.record("recv", node, tag_av=reply_tag, rpc=True)
            return top().with_msgd()
        if method == "reply":
            request = arg(0, "request")
            size, payload = arg(1, "size"), arg(2, "payload")
            dst = top(request).with_msgd()
            self.record("send", node, dst_av=dst, rpc=True,
                        sinks={"dst": dst, "size": size,
                               "payload": payload})
            return const(None)
        if method == "spawn_service":
            factory = arg(0, "body_factory")
            name_av = arg(1, "name")
            name = name_av.const if name_av is not None \
                and name_av.is_const and isinstance(name_av.const, str) \
                else "svc"
            self.record("spawn", node, detail=name)
            if factory is not None:
                self.spawn_queue.append(
                    (factory, name, (self.cur_file(),
                                     getattr(node, "lineno", 0))))
            return const(None)
        if method == "phase":
            return top()
        if method == "is_local":
            return top(*args)
        return top(*args)

    def _call_topo(self, method: str, args: List[AV]) -> AV:
        first = args[0] if args else None
        if method == "cluster_leader":
            if first is not None and first.kind == "cluster-own":
                return AV("leader-own").with_flags_of(first)
            return AV("leader").with_flags_of(first)
        if method == "cluster_of":
            if first is not None and first.kind == "rank":
                return AV("cluster-own").with_flags_of(first)
            return AV("cluster").with_flags_of(first)
        if method == "cluster_members":
            if first is not None and first.kind == "cluster-own":
                return AV("iter-members-own").with_flags_of(first)
            return AV("iterable", payload=top()).with_flags_of(first)
        if method == "clusters":
            return AV("iter-clusters")
        if method == "ranks":
            return AV("iterable", payload=top())
        if method in ("same_cluster", "local_index", "fingerprint",
                      "describe"):
            return top(*args)
        return top(*args)

    def _call_cell(self, func: AV, args: List[AV],
                   kwargs: Dict[str, AV]) -> AV:
        cell: Cell = func.payload
        name = func.const
        in_loop = self.in_loop()
        if name in ("append", "add", "appendleft"):
            if args:
                cell.write(args[0], in_loop)
            return const(None)
        if name == "insert":
            if len(args) > 1:
                cell.write(args[1], in_loop)
            return const(None)
        if name in ("extend", "update"):
            if args:
                cell.write(self.iter_elem(args[0]), in_loop)
            return const(None)
        if name == "setdefault":
            key = args[0] if args else top()
            default = args[1] if len(args) > 1 else const(None)
            cell.write(default, in_loop, key=key)
            return cell.read().with_flags_of(key)
        if name in ("pop", "popleft", "popitem"):
            result = cell.read()
            if name == "pop" and len(args) > 1:
                result = (join(result, args[1]) or result)
            return result
        if name == "get":
            if cell.vals is None:
                # Never-written container: a lookup can only miss.
                return args[1] if len(args) > 1 else const(None)
            result = cell.read()
            if len(args) > 1:
                result = (join(result, args[1]) or result)
            return result
        if name == "keys":
            return AV("iterable", payload=cell.read_keys())
        if name == "values":
            return AV("iterable", payload=cell.read())
        if name == "items":
            pair = AV("tuple", items=(cell.read_keys(), cell.read()))
            return AV("iterable", payload=pair)
        if name == "copy":
            return AV("cell", payload=cell)
        if name in ("sort", "reverse", "clear", "remove", "discard"):
            return const(None)
        if name in ("count", "index"):
            return top(cell.read(), *args)
        return top(cell.read(), *args, *kwargs.values())

    def _call_builtin(self, name: str, args: List[AV],
                      kwargs: Dict[str, AV]) -> AV:
        first = args[0] if args else None
        if name == "range":
            return AV("iterable", payload=top(*args))
        if name in ("list", "tuple", "sorted"):
            if first is None:
                return AV("cell", payload=Cell(name))
            if name == "tuple" and first.kind == "tuple":
                return first
            cell = Cell(name)
            cell.write(self.iter_elem(first), self.in_loop())
            return AV("cell", payload=cell)
        if name in ("set", "frozenset"):
            cell = Cell(name, is_set=True)
            if first is not None:
                cell.write(self.iter_elem(first), self.in_loop())
            return AV("cell", payload=cell)
        if name == "dict":
            cell = Cell("dict")
            for key, value in kwargs.items():
                cell.write(value, self.in_loop(), key=const(key))
            if first is not None:
                cell.write(self.iter_elem(first), self.in_loop())
            return AV("cell", payload=cell)
        if name == "enumerate":
            elem = self.iter_elem(first) if first is not None else top()
            return AV("iterable",
                      payload=AV("tuple", items=(top(), elem)))
        if name == "zip":
            items = tuple(self.iter_elem(a) for a in args)
            return AV("iterable", payload=AV("tuple", items=items))
        if name in ("iter", "reversed", "map", "filter"):
            source = args[-1] if args else None
            elem = self.iter_elem(source) if source is not None else top()
            return AV("iterable", payload=elem)
        if name == "next":
            return self.iter_elem(first) if first is not None else top()
        if name in ("min", "max", "sum"):
            flat = [self.iter_elem(a) if a.kind in ("cell", "iterable")
                    else a for a in args]
            return top(*flat)
        if name in ("isinstance", "hasattr", "any", "all", "bool"):
            flat = [self.iter_elem(a) if a.kind in ("cell", "iterable")
                    else a for a in args]
            return top(*flat)
        if name in ("len", "abs", "int", "float", "str", "round", "repr",
                    "hash", "id"):
            if name == "len" and first is not None:
                return top().with_flags_of(first)
            if first is not None and first.is_const and name in (
                    "int", "float", "str", "abs", "bool"):
                try:
                    caster = {"int": int, "float": float, "str": str,
                              "abs": abs, "bool": bool}[name]
                    return const(caster(first.const)).with_flags_of(first)
                except Exception:
                    pass
            return top(*args)
        if name == "divmod":
            return AV("tuple", items=(top(*args), top(*args)))
        if name == "print":
            return const(None)
        if name == "getattr":
            return top(*args)
        return top(*args, *kwargs.values())

    def _instantiate(self, cls: ClassVal, args: List[AV],
                     kwargs: Dict[str, AV], node) -> AV:
        site = (self.cur_file(), getattr(node, "lineno", 0))
        cache_key = (id(cls.node), site)
        cached = self._objcache.get(cache_key)
        if cached is not None:
            obj_av = cached
            obj = obj_av.payload
        else:
            obj = ObjVal(cls)
            obj_av = AV("obj", payload=obj)
            self._objcache[cache_key] = obj_av
        methods = cls.methods()
        if "__init__" in methods:
            init = AV("func", payload=FuncVal(methods["__init__"],
                                              cls.closure, cls.module,
                                              bound=obj))
            self.call_function(init, args, kwargs, site=site)
            return obj_av
        # Dataclass-style: bind declared fields positionally/by keyword,
        # falling back on declared defaults.
        fields = cls.fields()
        for idx, (name, default) in enumerate(fields):
            if idx < len(args):
                obj.attr_cell(name).write(args[idx], self.in_loop())
            elif name in kwargs:
                obj.attr_cell(name).write(kwargs[name], self.in_loop())
            else:
                obj.attr_cell(name).write(
                    self._field_default(cls, default), self.in_loop())
        return obj_av

    def _field_default(self, cls: ClassVal,
                       default: Optional[ast.expr]) -> AV:
        if default is None:
            return top()
        if isinstance(default, ast.Call) and \
                _call_name(default.func) == "field":
            for kw in default.keywords:
                if kw.arg == "default":
                    folded = fold_const(kw.value, cls.module.consts)
                    return folded if folded is not None else top()
                if kw.arg == "default_factory":
                    name = _call_name(kw.value) if isinstance(
                        kw.value, (ast.Name, ast.Attribute)) else ""
                    if name in ("list", "dict", "set", "tuple"):
                        return AV("cell", payload=Cell(name,
                                  is_set=(name == "set")))
                    return top()
            return top()
        folded = fold_const(default, cls.module.consts)
        return folded if folded is not None else top()


def _fold_compare(op: ast.cmpop, left: Any, right: Any) -> Optional[bool]:
    try:
        if isinstance(op, ast.Eq):
            return bool(left == right)
        if isinstance(op, ast.NotEq):
            return bool(left != right)
        if isinstance(op, ast.Is):
            return left is right
        if isinstance(op, ast.IsNot):
            return left is not right
        if isinstance(op, ast.Lt):
            return bool(left < right)
        if isinstance(op, ast.LtE):
            return bool(left <= right)
        if isinstance(op, ast.Gt):
            return bool(left > right)
        if isinstance(op, ast.GtE):
            return bool(left >= right)
        if isinstance(op, ast.In):
            return bool(left in right)
        if isinstance(op, ast.NotIn):
            return bool(left not in right)
    except Exception:
        return None
    return None


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def analyze_app(modset: ModuleSet, app: str, variant: str) -> Skeleton:
    """Interpret one registered app/variant into its static skeleton."""
    entry = modset.registry.get((app, variant))
    if entry is None:
        raise KeyError(f"no register_app entry for {app}/{variant}")
    skeleton = Skeleton(app=app, variant=variant,
                        timing_dependent=entry.timing_dependent)
    interp = Interpreter(modset, skeleton)
    interp.module_stack.append(entry.module)
    try:
        builder = interp.eval(entry.builder, ({},))
        cfg = _abstract_config(interp, builder)
        cfg_args = [cfg] if cfg is not None else []
        main_av = interp.call_function(builder, cfg_args, {}, guard=False)
    except _Budget:
        skeleton.incomplete = True
        skeleton.notes.append("interpretation budget exhausted in builder")
        return skeleton
    except Exception as err:
        skeleton.incomplete = True
        skeleton.notes.append(f"builder interpretation failed: {err}")
        return skeleton
    finally:
        if interp.module_stack:
            interp.module_stack.pop()

    interp.module_stack.append(entry.module)
    interp.run_proc("main", main_av, daemon=False)
    interp.drain_spawns()
    interp.module_stack.pop()
    return skeleton


def _abstract_config(interp: Interpreter, builder: AV) -> Optional[AV]:
    """Abstract config object from the builder's first parameter
    annotation — a dataclass whose *declared defaults* are the bench
    ground truth the analyzer needs (``real_data=False`` etc.)."""
    if builder.kind != "func":
        return top()
    fv: FuncVal = builder.payload
    node = fv.node
    if isinstance(node, ast.Lambda) or not node.args.args:
        return top()
    annotation = node.args.args[0].annotation
    name = None
    if isinstance(annotation, ast.Name):
        name = annotation.id
    elif isinstance(annotation, ast.Attribute):
        name = annotation.attr
    elif isinstance(annotation, ast.Constant) and \
            isinstance(annotation.value, str):
        name = annotation.value
    if name is None:
        return top()
    resolved = interp.modset.resolve(fv.module, name)
    if resolved is None or resolved.kind != "class":
        return top()
    cls: ClassVal = resolved.payload
    obj = ObjVal(cls)
    for field_name, default in cls.fields():
        obj.attr_cell(field_name).write(
            interp._field_default(cls, default), in_loop=False)
    return AV("obj", payload=obj)
