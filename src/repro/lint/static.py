"""AST-based determinism and protocol lint for simulated-app modules.

The linter walks Python source for the hazards that invalidate
deterministic simulation results (see docs/lint.md for the catalogue
with examples):

- determinism: wall-clock reads, global/unseeded RNG use, hash-order
  iteration (sets, id()-keyed containers), dict-view iteration feeding
  message emission;
- protocol misuse: yielding non-:class:`~repro.sim.process.Syscall`
  values from a process coroutine, real blocking calls inside
  coroutines, receives on channels nothing sends on;
- structure: module-level mutable state mutated from a coroutine (every
  rank runs the same module, so that state is cross-rank shared).

A *process coroutine* is any function that contains ``yield`` and takes
a context parameter (named ``ctx`` or annotated ``Context``).  Channel
matching for ``recv-unmatched`` is global across one lint run: a recv
tag *shape* (constants kept, dynamic parts wildcarded) must unify with
some send tag shape collected anywhere in the linted set.

Suppression: ``# lint: ignore[rule-a, rule-b]`` (or bare
``# lint: ignore``) on the offending line or the line directly above;
``# lint: skip-file`` anywhere skips the whole file.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from .rules import Finding, RULES, make_finding

_IGNORE_RE = re.compile(r"#\s*lint:\s*ignore(?:\[([^\]]*)\])?")
_SKIP_FILE_RE = re.compile(r"#\s*lint:\s*skip-file")

_WALL_CLOCK_TIME_FNS = {
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "clock",
}
_WALL_CLOCK_DT_FNS = {"now", "utcnow", "today"}

_BLOCKING_TIME_FNS = {"sleep"}
_BLOCKING_SUBPROCESS_FNS = {"run", "Popen", "call", "check_call",
                            "check_output", "getoutput"}
_BLOCKING_OS_FNS = {"system", "popen", "wait", "waitpid"}
_BLOCKING_MODULES = {"socket", "requests", "urllib", "http", "select"}

_GLOBAL_RNG_FNS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "expovariate",
    "betavariate", "triangular", "lognormvariate", "vonmisesvariate",
    "paretovariate", "weibullvariate", "getrandbits", "seed", "randbytes",
}
_NUMPY_RNG_FNS = {
    "rand", "randn", "randint", "random", "random_sample", "choice",
    "shuffle", "permutation", "uniform", "normal", "standard_normal",
    "seed", "exponential", "poisson", "bytes",
}

_MUTABLE_FACTORIES = {"list", "dict", "set", "deque", "defaultdict",
                      "OrderedDict", "Counter"}
_MUTATOR_METHODS = {"append", "appendleft", "add", "update", "setdefault",
                    "extend", "insert", "pop", "popleft", "popitem",
                    "remove", "discard", "clear"}
_KEYED_METHODS = {"get", "setdefault", "add", "pop", "remove", "discard",
                  "append", "__contains__"}

#: A dynamic (non-constant) component of a channel-tag shape.
WILD = ("?",)


# ----------------------------------------------------------------------
# Tag shapes: structural channel matching for recv-unmatched
# ----------------------------------------------------------------------
def tag_shape(node: ast.AST) -> Any:
    """Fold a tag expression into a matchable shape.

    Constants keep their value, tuples recurse.  Formatted strings
    (f-strings and ``"...".format(...)``) keep their constant *prefix*
    — ``f"ack-{rank}"`` becomes ``("prefix", "ack-")`` and only unifies
    with strings that start with ``"ack-"``.  Anything else dynamic
    becomes the :data:`WILD` marker (which unifies with everything).
    """
    if isinstance(node, ast.Constant):
        return ("const", node.value)
    if isinstance(node, ast.Tuple):
        return ("tuple", tuple(tag_shape(e) for e in node.elts))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub) \
            and isinstance(node.operand, ast.Constant):
        return ("const", -node.operand.value)
    if isinstance(node, ast.JoinedStr):
        return _joined_shape(node)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr == "format" \
            and isinstance(node.func.value, ast.Constant) \
            and isinstance(node.func.value.value, str):
        return _format_shape(node.func.value.value)
    return WILD


def _joined_shape(node: ast.JoinedStr) -> Any:
    """Shape of an f-string: the constant prefix before the first hole."""
    parts = []
    for value in node.values:
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            parts.append(value.value)
        else:
            return ("prefix", "".join(parts))
    return ("const", "".join(parts))


def _format_shape(template: str) -> Any:
    """Shape of a ``str.format`` template: prefix up to the first field.

    ``{{``/``}}`` escapes are literal braces; a bare ``{`` opens the
    first replacement field and ends the constant prefix.
    """
    parts = []
    i = 0
    while i < len(template):
        ch = template[i]
        if ch in "{}" and template[i + 1:i + 2] == ch:
            parts.append(ch)
            i += 2
            continue
        if ch == "{":
            return ("prefix", "".join(parts))
        parts.append(ch)
        i += 1
    return ("const", "".join(parts))


def shapes_unify(a: Any, b: Any) -> bool:
    if a is WILD or b is WILD:
        return True
    if a[0] == "prefix" or b[0] == "prefix":
        if a[0] == b[0]:
            return a[1].startswith(b[1]) or b[1].startswith(a[1])
        prefix, other = (a[1], b) if a[0] == "prefix" else (b[1], a)
        if other[0] == "const":
            return isinstance(other[1], str) and other[1].startswith(prefix)
        return False        # a formatted string is never a tuple
    if a[0] != b[0]:
        return False
    if a[0] == "const":
        return a[1] == b[1]
    # tuples: lengths must agree, elements unify pairwise
    return len(a[1]) == len(b[1]) and all(
        shapes_unify(x, y) for x, y in zip(a[1], b[1]))


def shape_repr(shape: Any) -> str:
    if shape is WILD:
        return "*"
    if shape[0] == "const":
        return repr(shape[1])
    if shape[0] == "prefix":
        return repr(shape[1]) + "*"
    return "(" + ", ".join(shape_repr(e) for e in shape[1]) + ")"


def _is_wild_only(shape: Any) -> bool:
    if shape is WILD:
        return True
    if shape[0] == "prefix":
        return shape[1] == ""
    if shape[0] == "tuple":
        return all(_is_wild_only(e) for e in shape[1])
    return False


# ----------------------------------------------------------------------
# Per-module analysis
# ----------------------------------------------------------------------
class _Imports:
    """Names the module binds to the stdlib modules the rules care about."""

    def __init__(self) -> None:
        self.time_mods: Set[str] = set()
        self.datetime_mods: Set[str] = set()
        self.datetime_classes: Set[str] = set()
        self.random_mods: Set[str] = set()
        self.numpy_mods: Set[str] = set()
        self.subprocess_mods: Set[str] = set()
        self.os_mods: Set[str] = set()
        self.blocking_mods: Set[str] = set()
        # from-imports: local name -> (module, original name)
        self.from_names: Dict[str, Tuple[str, str]] = {}

    def collect(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".", 1)[0]
                    root = alias.name.split(".", 1)[0]
                    if root == "time":
                        self.time_mods.add(name)
                    elif root == "datetime":
                        self.datetime_mods.add(name)
                    elif root == "random":
                        self.random_mods.add(name)
                    elif root == "numpy":
                        self.numpy_mods.add(name)
                    elif root == "subprocess":
                        self.subprocess_mods.add(name)
                    elif root == "os":
                        self.os_mods.add(name)
                    elif root in _BLOCKING_MODULES:
                        self.blocking_mods.add(name)
            elif isinstance(node, ast.ImportFrom) and node.module:
                root = node.module.split(".", 1)[0]
                for alias in node.names:
                    local = alias.asname or alias.name
                    if root in ("time", "datetime", "random", "subprocess",
                                "os") or root in _BLOCKING_MODULES:
                        self.from_names[local] = (root, alias.name)
                    if root == "datetime" and alias.name == "datetime":
                        self.datetime_classes.add(local)


class _FunctionInfo:
    """What the linter needs to know about one enclosing function."""

    __slots__ = ("node", "is_coroutine", "ctx_name", "set_names")

    def __init__(self, node: ast.AST, is_coroutine: bool,
                 ctx_name: Optional[str]) -> None:
        self.node = node
        self.is_coroutine = is_coroutine
        self.ctx_name = ctx_name
        #: local names currently known to hold a set
        self.set_names: Set[str] = set()


def _scan_yield(node: ast.AST) -> bool:
    """True when ``node`` contains a yield not hidden in a nested function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            continue
        if isinstance(child, (ast.Yield, ast.YieldFrom)):
            return True
        if _scan_yield(child):
            return True
    return False


def _ctx_param(fn: ast.AST) -> Optional[str]:
    """The context parameter name, if the function takes one."""
    args = getattr(fn, "args", None)
    if args is None:
        return None
    for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        if arg.arg == "ctx":
            return arg.arg
        ann = arg.annotation
        if ann is not None:
            ann_name = ann.id if isinstance(ann, ast.Name) else (
                ann.attr if isinstance(ann, ast.Attribute) else None)
            if ann_name == "Context":
                return arg.arg
    return None


def _is_ctx_receiver(node: ast.AST, ctx_name: Optional[str]) -> bool:
    """True when ``node`` is the context object (``ctx`` / ``self.ctx``)."""
    if isinstance(node, ast.Name):
        return node.id == "ctx" or (ctx_name is not None and node.id == ctx_name)
    if isinstance(node, ast.Attribute):
        return node.attr == "ctx"
    return False


class _ModuleLinter(ast.NodeVisitor):
    """One-pass linter for a single parsed module."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.tree = tree
        self.findings: List[Finding] = []
        #: (shape, file, line) for every recv observed, resolved globally
        self.recv_shapes: List[Tuple[Any, str, int, Any]] = []
        self.send_shapes: List[Any] = []
        self.imports = _Imports()
        self.imports.collect(tree)
        self._suppressed = _parse_suppressions(source)
        self.skip_file = bool(_SKIP_FILE_RE.search(source))
        self._fn_stack: List[_FunctionInfo] = []
        # module-level mutable names -> definition line
        self._module_mutables: Dict[str, int] = {}
        self._collect_module_mutables(tree)

    # -- plumbing ------------------------------------------------------
    def report(self, rule_id: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        allowed = self._suppressed.get(line)
        if allowed is not None and ("*" in allowed or rule_id in allowed):
            return
        self.findings.append(make_finding(rule_id, message, file=self.path,
                                          line=line, col=col))

    def _current_fn(self) -> Optional[_FunctionInfo]:
        return self._fn_stack[-1] if self._fn_stack else None

    def _in_coroutine(self) -> bool:
        fn = self._current_fn()
        return fn is not None and fn.is_coroutine

    # -- module-level mutable state ------------------------------------
    def _collect_module_mutables(self, tree: ast.Module) -> None:
        for stmt in tree.body:
            targets = []
            value = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None or not _is_mutable_expr(value):
                continue
            for tgt in targets:
                if isinstance(tgt, ast.Name):
                    self._module_mutables[tgt.id] = stmt.lineno

    # -- function scope ------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(self, node: ast.AST) -> None:
        ctx_name = _ctx_param(node)
        info = _FunctionInfo(node, _scan_yield(node) and ctx_name is not None,
                             ctx_name)
        self._fn_stack.append(info)
        self.generic_visit(node)
        self._fn_stack.pop()

    # -- assignments: track set-holding locals -------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        fn = self._current_fn()
        if fn is not None:
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    if _is_set_expr(node.value, fn.set_names):
                        fn.set_names.add(tgt.id)
                    else:
                        fn.set_names.discard(tgt.id)
        self._check_mutation_target(node.targets)
        self._check_id_keys(node.targets)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_mutation_target([node.target])
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        self._check_mutation_target(node.targets)
        self.generic_visit(node)

    def _check_mutation_target(self, targets: Sequence[ast.AST]) -> None:
        if not self._in_coroutine():
            return
        for tgt in targets:
            if isinstance(tgt, ast.Subscript) and \
                    isinstance(tgt.value, ast.Name) and \
                    tgt.value.id in self._module_mutables:
                self.report(
                    "module-state", tgt,
                    f"module-level {tgt.value.id!r} (defined at line "
                    f"{self._module_mutables[tgt.value.id]}) is mutated from "
                    f"a coroutine; every rank shares it")

    def _check_id_keys(self, targets: Sequence[ast.AST]) -> None:
        for tgt in targets:
            if isinstance(tgt, ast.Subscript) and _contains_id_call(tgt.slice):
                self.report("id-keyed", tgt,
                            "container keyed by id(); object identities are "
                            "allocation-order dependent")

    # -- loops and comprehensions --------------------------------------
    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, loop_body=node.body)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iteration(node.iter, loop_body=None)
        self.generic_visit(node)

    def _check_iteration(self, iter_node: ast.AST,
                         loop_body: Optional[List[ast.stmt]]) -> None:
        fn = self._current_fn()
        set_names = fn.set_names if fn is not None else set()
        if _is_set_expr(iter_node, set_names):
            self.report("set-iteration", iter_node,
                        "iterating a set; wrap in sorted(...) so the order "
                        "is reproducible")
            return
        if loop_body is not None and self._in_coroutine() and \
                _is_dict_view(iter_node) and _emits_messages(loop_body):
            self.report("dict-view-order", iter_node,
                        "dict-view iteration emits messages; if insertion "
                        "order depends on arrival order, emission order "
                        "varies — iterate over a sorted or explicit key list")

    # -- yields --------------------------------------------------------
    def visit_Yield(self, node: ast.Yield) -> None:
        fn = self._current_fn()
        if fn is not None and fn.is_coroutine:
            self._check_yield_value(node, fn)
        self.generic_visit(node)

    def _check_yield_value(self, node: ast.Yield, fn: _FunctionInfo) -> None:
        val = node.value
        bad = None
        if val is None:
            bad = "a bare yield (yields None)"
        elif isinstance(val, ast.Constant):
            bad = f"the constant {val.value!r}"
        elif isinstance(val, (ast.List, ast.Tuple, ast.Dict, ast.Set,
                              ast.ListComp, ast.DictComp, ast.SetComp,
                              ast.GeneratorExp)):
            bad = "a literal/comprehension"
        elif isinstance(val, (ast.BinOp, ast.BoolOp, ast.Compare,
                              ast.JoinedStr)):
            bad = "an expression result"
        if bad is not None:
            self.report("yield-non-syscall", node,
                        f"process coroutine yields {bad}; yield a Syscall "
                        f"(ctx.send/recv/compute/...) or use 'yield from' "
                        f"for sub-operations")

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        self._check_wall_clock(node)
        self._check_blocking(node)
        self._check_rng(node)
        self._check_set_materialization(node)
        self._check_id_in_call(node)
        self._check_mutator_call(node)
        self._collect_channels(node)
        self.generic_visit(node)

    def _resolved(self, node: ast.Call) -> Tuple[Optional[str], Optional[str]]:
        """(module, function) for calls on tracked module aliases."""
        func = node.func
        imp = self.imports
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            base = func.value.id
            if base in imp.time_mods:
                return "time", func.attr
            if base in imp.datetime_mods:
                return "datetime-mod", func.attr
            if base in imp.datetime_classes:
                return "datetime", func.attr
            if base in imp.random_mods:
                return "random", func.attr
            if base in imp.subprocess_mods:
                return "subprocess", func.attr
            if base in imp.os_mods:
                return "os", func.attr
            if base in imp.blocking_mods:
                return "blocking", func.attr
        if isinstance(func, ast.Name) and func.id in imp.from_names:
            return imp.from_names[func.id]
        return None, None

    def _numpy_random_attr(self, node: ast.Call) -> Optional[str]:
        func = node.func
        if isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Attribute) and \
                func.value.attr == "random" and \
                isinstance(func.value.value, ast.Name) and \
                func.value.value.id in self.imports.numpy_mods:
            return func.attr
        return None

    def _check_wall_clock(self, node: ast.Call) -> None:
        mod, fn = self._resolved(node)
        hit = (mod == "time" and fn in _WALL_CLOCK_TIME_FNS) or \
              (mod == "datetime" and fn in _WALL_CLOCK_DT_FNS)
        if not hit and mod == "datetime-mod":
            # datetime.datetime.now() spelled through the module
            func = node.func
            hit = isinstance(func, ast.Attribute) and fn in _WALL_CLOCK_DT_FNS
        if not hit and isinstance(node.func, ast.Attribute) and \
                node.func.attr in _WALL_CLOCK_DT_FNS and \
                isinstance(node.func.value, ast.Attribute) and \
                node.func.value.attr == "datetime" and \
                isinstance(node.func.value.value, ast.Name) and \
                node.func.value.value.id in self.imports.datetime_mods:
            hit = True
        if hit:
            self.report("wall-clock", node,
                        f"wall-clock read ({_call_name(node)}); simulation "
                        f"results must not depend on host time — use "
                        f"ctx.now / engine.now")

    def _check_blocking(self, node: ast.Call) -> None:
        mod, fn = self._resolved(node)
        hit = (mod == "time" and fn in _BLOCKING_TIME_FNS) or \
              (mod == "subprocess" and fn in _BLOCKING_SUBPROCESS_FNS) or \
              (mod == "os" and fn in _BLOCKING_OS_FNS) or \
              (mod == "blocking")
        if not hit and isinstance(node.func, ast.Name) and \
                node.func.id == "input" and "input" not in self.imports.from_names:
            hit = True
        if hit:
            self.report("blocking-call", node,
                        f"real blocking call ({_call_name(node)}) stalls the "
                        f"host, not simulated time; use ctx.compute / "
                        f"ctx.recv instead")

    def _check_rng(self, node: ast.Call) -> None:
        mod, fn = self._resolved(node)
        if mod == "random":
            if fn in _GLOBAL_RNG_FNS:
                self.report("global-rng", node,
                            f"global RNG call ({_call_name(node)}); use a "
                            f"seeded stream from repro.sim.rng.make_rng")
                return
            if fn == "Random" and not node.args and not node.keywords:
                self.report("unseeded-rng", node,
                            "random.Random() without a seed draws from OS "
                            "entropy; pass a derived seed")
                return
        np_fn = self._numpy_random_attr(node)
        if np_fn is not None:
            if np_fn in _NUMPY_RNG_FNS:
                self.report("global-rng", node,
                            f"numpy global RNG call ({_call_name(node)}); "
                            f"use np.random.default_rng(seed)")
            elif np_fn in ("default_rng", "RandomState", "Generator") and \
                    not node.args and not node.keywords:
                self.report("unseeded-rng", node,
                            f"{_call_name(node)} without a seed is "
                            f"entropy-seeded; pass an explicit seed")

    def _check_set_materialization(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id in ("list", "tuple") \
                and len(node.args) == 1:
            fn = self._current_fn()
            set_names = fn.set_names if fn is not None else set()
            if _is_set_expr(node.args[0], set_names):
                self.report("set-iteration", node,
                            f"{node.func.id}() over a set materializes "
                            f"hash order; use sorted(...)")

    def _check_id_in_call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr in _KEYED_METHODS:
            for arg in node.args[:1]:
                if _contains_id_call(arg):
                    self.report("id-keyed", node,
                                "container operation keyed by id(); object "
                                "identities are allocation-order dependent")

    def _check_mutator_call(self, node: ast.Call) -> None:
        if not self._in_coroutine():
            return
        func = node.func
        if isinstance(func, ast.Attribute) and \
                func.attr in _MUTATOR_METHODS and \
                isinstance(func.value, ast.Name) and \
                func.value.id in self._module_mutables:
            self.report(
                "module-state", node,
                f"module-level {func.value.id!r} (defined at line "
                f"{self._module_mutables[func.value.id]}) is mutated from a "
                f"coroutine; every rank shares it")

    # -- channel shape collection --------------------------------------
    def _collect_channels(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        fn_info = self._current_fn()
        ctx_name = fn_info.ctx_name if fn_info is not None else None
        if not _is_ctx_receiver(func.value, ctx_name):
            return
        kw = {k.arg: k.value for k in node.keywords if k.arg}
        if func.attr in ("send",):
            tag = kw.get("tag") or (node.args[2] if len(node.args) > 2 else None)
            if tag is not None:
                self.send_shapes.append(tag_shape(tag))
        elif func.attr == "multicast":
            tag = kw.get("tag") or (node.args[2] if len(node.args) > 2 else None)
            if tag is not None:
                self.send_shapes.append(tag_shape(tag))
        elif func.attr in ("recv", "recv_nowait"):
            tag = kw.get("tag") or (node.args[0] if node.args else None)
            if tag is not None:
                self.recv_shapes.append((tag_shape(tag), self.path,
                                         node.lineno, node))

    # -- dict literal id() keys ----------------------------------------
    def visit_Dict(self, node: ast.Dict) -> None:
        for key in node.keys:
            if key is not None and _contains_id_call(key):
                self.report("id-keyed", key,
                            "dict literal keyed by id(); object identities "
                            "are allocation-order dependent")
        self.generic_visit(node)


# ----------------------------------------------------------------------
# Expression helpers
# ----------------------------------------------------------------------
def _call_name(node: ast.Call) -> str:
    try:
        return ast.unparse(node.func) + "()"
    except Exception:  # pragma: no cover - unparse is 3.9+, always present
        return "call"


def _is_set_expr(node: ast.AST, set_names: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and \
            node.func.id in ("set", "frozenset"):
        return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.BinOp) and \
            isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return _is_set_expr(node.left, set_names) or \
            _is_set_expr(node.right, set_names)
    return False


def _is_mutable_expr(node: ast.AST) -> bool:
    """A list/dict/set literal or a call to a mutable-container factory."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        fn = node.func
        name = fn.id if isinstance(fn, ast.Name) else (
            fn.attr if isinstance(fn, ast.Attribute) else None)
        return name in _MUTABLE_FACTORIES
    return False


def _is_dict_view(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and not node.args and \
        isinstance(node.func, ast.Attribute) and \
        node.func.attr in ("keys", "values", "items")


def _emits_messages(body: List[ast.stmt]) -> bool:
    """True when the loop body yields a send/multicast/reply syscall."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Yield) and \
                    isinstance(node.value, ast.Call) and \
                    isinstance(node.value.func, ast.Attribute) and \
                    node.value.func.attr in ("send", "multicast", "reply"):
                return True
    return False


def _contains_id_call(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and \
                sub.func.id == "id":
            return True
    return False


def _parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> suppressed rule ids ('*' for all).

    A comment suppresses its own line and the line below, so both
    trailing comments and comment-above style work.
    """
    suppressed: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = _IGNORE_RE.search(text)
        if not m:
            continue
        rules = {"*"} if m.group(1) is None else {
            r.strip() for r in m.group(1).split(",") if r.strip()}
        for target in (lineno, lineno + 1):
            suppressed.setdefault(target, set()).update(rules)
    return suppressed


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def lint_source(source: str, filename: str = "<string>",
                match_channels: bool = True) -> List[Finding]:
    """Lint one source string; standalone channel matching included."""
    linter = _lint_one(source, filename)
    if linter is None:
        return []
    findings = list(linter.findings)
    if match_channels:
        findings.extend(_match_channels([linter]))
    return _sort_findings(findings)


def _lint_one(source: str, filename: str) -> Optional[_ModuleLinter]:
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as err:
        linter = _ModuleLinter.__new__(_ModuleLinter)
        linter.path = filename
        linter.findings = [Finding(
            rule="syntax-error", severity="error",
            message=f"cannot parse: {err.msg}", file=filename,
            line=err.lineno or 0, col=err.offset or 0)]
        linter.recv_shapes = []
        linter.send_shapes = []
        linter.skip_file = False
        return linter
    linter = _ModuleLinter(filename, source, tree)
    if linter.skip_file:
        return None
    linter.visit(tree)
    return linter


def _match_channels(linters: Sequence[_ModuleLinter]) -> List[Finding]:
    """Global recv-unmatched pass over every linted module."""
    send_shapes: List[Any] = []
    for linter in linters:
        send_shapes.extend(linter.send_shapes)
    findings = []
    for linter in linters:
        for shape, path, line, node in linter.recv_shapes:
            if _is_wild_only(shape):
                continue
            if any(shapes_unify(shape, s) for s in send_shapes):
                continue
            allowed = linter._suppressed.get(line)
            if allowed is not None and \
                    ("*" in allowed or "recv-unmatched" in allowed):
                continue
            findings.append(make_finding(
                "recv-unmatched",
                f"recv on channel {shape_repr(shape)} matches no send tag "
                f"in the linted set; a receiver here can block forever",
                file=path, line=line, col=getattr(node, "col_offset", 0)))
    return findings


def _iter_python_files(paths: Sequence[str]) -> List[str]:
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(d for d in dirs
                                 if d not in ("__pycache__", ".git"))
                files.extend(os.path.join(root, n) for n in sorted(names)
                             if n.endswith(".py"))
        elif path.endswith(".py"):
            files.append(path)
        else:
            raise FileNotFoundError(f"not a Python file or directory: {path}")
    return files


def lint_paths(paths: Sequence[str]) -> List[Finding]:
    """Lint files/directories; channel matching is global across the set."""
    linters: List[_ModuleLinter] = []
    findings: List[Finding] = []
    for path in _iter_python_files(paths):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                source = fh.read()
        except OSError as err:
            findings.append(Finding(rule="io-error", severity="error",
                                    message=str(err), file=path))
            continue
        linter = _lint_one(source, path)
        if linter is None:
            continue
        linters.append(linter)
        findings.extend(linter.findings)
    findings.extend(_match_channels(linters))
    return _sort_findings(findings)


def _sort_findings(findings: List[Finding]) -> List[Finding]:
    return sorted(findings, key=lambda f: (f.file, f.line, f.col, f.rule))
