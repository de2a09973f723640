"""Determinism rules: hazards that can leak into deterministic artifacts.

Scope: the packages whose output the byte-identity contract covers
(``hardware``, ``partition``, ``trace``, ``serve``, ``metrics`` -- see
``tests/test_determinism.py`` and DESIGN.md SS10).  Each rule names a
hazard class that would make rendered output, ``--json`` documents,
sanitizer summaries, ``--trace-out`` bytes or serve cache keys depend on
something other than the simulated machine: hash randomization, worker
arrival order, process addresses, the wall clock, the RNG, filesystem
enumeration order, or ambient environment state.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.lint.core import FileContext, Finding, Rule, register

#: Callables whose result does not depend on the iteration order of
#: their argument, so feeding them a set is harmless.  ``sum`` is listed
#: for integer counters; review float sums over sets by hand (float
#: addition is not associative).
_ORDER_SAFE_CALLS = frozenset(
    {"sorted", "set", "frozenset", "len", "min", "max", "any", "all",
     "sum", "bool"}
)

_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)


def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk ``scope`` without descending into nested function/class scopes."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _scopes(tree: ast.Module) -> Iterator[ast.AST]:
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node


def _is_set_annotation(annotation: ast.AST) -> bool:
    if isinstance(annotation, ast.Name):
        return annotation.id in ("set", "frozenset", "Set", "FrozenSet")
    if isinstance(annotation, ast.Subscript):
        return _is_set_annotation(annotation.value)
    if isinstance(annotation, ast.Attribute):
        return annotation.attr in ("Set", "FrozenSet")
    return False


class _SetTracker:
    """Which names in one scope are (only ever) bound to set values."""

    def __init__(self, scope: ast.AST) -> None:
        bindings: Dict[str, List[ast.AST]] = {}
        annotated: Set[str] = set()
        for node in _scope_nodes(scope):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bindings.setdefault(target.id, []).append(node.value)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                if _is_set_annotation(node.annotation):
                    annotated.add(node.target.id)
                elif node.value is not None:
                    bindings.setdefault(node.target.id, []).append(node.value)
        self.names: Set[str] = set(annotated)
        # Two passes so `b = a | extras` sees that `a` is a set; a name
        # ever rebound to a non-set expression (e.g. `s = sorted(s)`)
        # is dropped -- the rebinding is usually exactly the fix.
        for _ in range(2):
            for name, values in bindings.items():
                if name in self.names:
                    continue
                if values and all(self.is_set_expr(value) for value in values):
                    self.names.add(name)
        for name, values in bindings.items():
            if name in annotated:
                continue
            if name in self.names and not all(
                self.is_set_expr(value) for value in values
            ):
                self.names.discard(name)

    def is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.names
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
                return self.is_set_expr(func.value)
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        return False


def _order_safe_consumer(ctx: FileContext, comp: ast.AST) -> bool:
    """True when a comprehension's result feeds an order-insensitive call.

    ``sorted(f(x) for x in some_set)`` is fine; the sort re-establishes
    the order the set lost.  Set/dict comprehensions are themselves
    unordered collections, so building one from a set is also fine.
    """
    parent = ctx.parents.get(comp)
    if isinstance(parent, ast.Call) and comp in parent.args:
        func = parent.func
        if isinstance(func, ast.Name) and func.id in _ORDER_SAFE_CALLS:
            return True
    return False


@register
class SetIterRule(Rule):
    id = "det.set-iter"
    title = "unsorted set iteration feeding an ordering-sensitive sink"
    rationale = (
        "Set iteration order depends on insertion history and on hash\n"
        "values -- for str keys that means PYTHONHASHSEED, which differs\n"
        "per process.  A worker that renders, joins, extends or merges in\n"
        "set order produces different bytes per run, which breaks the\n"
        "--jobs/--partitions byte-identity contract and poisons the serve\n"
        "tier's content-addressed cache.  Wrap the iteration in sorted()\n"
        "(or consume it with an order-insensitive reducer: len, min, max,\n"
        "any, all, set algebra, membership tests).  Integer sum() is\n"
        "accepted; sort float sums by hand -- float addition is not\n"
        "associative."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for scope in _scopes(ctx.tree):
            tracker = _SetTracker(scope)
            for node in _scope_nodes(scope):
                yield from self._check_node(ctx, tracker, node)

    def _check_node(
        self, ctx: FileContext, tracker: _SetTracker, node: ast.AST
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.For, ast.AsyncFor)) and tracker.is_set_expr(
            node.iter
        ):
            yield ctx.finding(
                self, node, "for-loop over a set: order is not deterministic; "
                "iterate sorted(...) instead"
            )
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            if _order_safe_consumer(ctx, node):
                return
            for generator in node.generators:
                if tracker.is_set_expr(generator.iter):
                    yield ctx.finding(
                        self, node,
                        "comprehension over a set builds an ordered result "
                        "from unordered input; iterate sorted(...) instead",
                    )
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in (
                "join", "extend",
            ):
                for arg in node.args:
                    if tracker.is_set_expr(arg):
                        yield ctx.finding(
                            self, node,
                            f".{func.attr}() over a set: element order is "
                            "not deterministic; pass sorted(...) instead",
                        )
            elif isinstance(func, ast.Name) and func.id in (
                "list", "tuple", "enumerate",
            ):
                for arg in node.args:
                    if tracker.is_set_expr(arg):
                        yield ctx.finding(
                            self, node,
                            f"{func.id}() of a set freezes a nondeterministic "
                            "order; use sorted(...) instead",
                        )


@register
class DictMergeOrderRule(Rule):
    id = "det.dict-merge-order"
    title = "merge loop over .values()/.items() of an arrival-ordered dict"
    rationale = (
        "dicts preserve insertion order -- which, for a dict filled from\n"
        "worker results, IS arrival order: a nondeterministic interleaving\n"
        "of process completions.  A loop that iterates .values()/.items()\n"
        "and .update()s an accumulator replays that interleaving into the\n"
        "merged artifact.  Iterate `for key in sorted(outputs):` so the\n"
        "merge is a pure function of the results, not of scheduling.\n"
        "(This exact hazard shipped in partition/runtime.py's shard merge\n"
        "and was fixed when this rule landed.)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            iterator = node.iter
            if not (
                isinstance(iterator, ast.Call)
                and isinstance(iterator.func, ast.Attribute)
                and iterator.func.attr in ("values", "items")
                and not iterator.args
            ):
                continue
            for child in ast.walk(node):
                if (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "update"
                ):
                    yield ctx.finding(
                        self, node,
                        f"merging while iterating .{iterator.func.attr}() "
                        "replays the dict's insertion (arrival) order; "
                        "iterate `for key in sorted(d):` instead",
                    )
                    break


@register
class IdKeyRule(Rule):
    id = "det.id-key"
    title = "id()/hash() as an ordering key, dict key, or rendered value"
    rationale = (
        "id() is a process address and hash() of a str is salted per\n"
        "process (PYTHONHASHSEED): both differ across workers and across\n"
        "runs.  Sorting by them, keying a dict that is later iterated or\n"
        "serialized, or rendering them into text makes bytes depend on\n"
        "the allocator, not the simulated machine.  Key by a stable name\n"
        "or index instead.  In-process *identity ledgers* that are never\n"
        "ordered or serialized (the sanitizer's id(component) maps) are\n"
        "legitimate -- grandfather them in the baseline with a comment."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        seen: set = set()
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("id", "hash")
            ):
                continue
            context = self._hazard_context(ctx, node)
            if context is None:
                continue
            key = (node.lineno, node.col_offset)
            if key in seen:
                continue
            seen.add(key)
            yield ctx.finding(
                self, node,
                f"{node.func.id}() {context}: process-address-dependent "
                "value in a determinism-sensitive position",
            )

    def _hazard_context(
        self, ctx: FileContext, node: ast.Call
    ) -> Optional[str]:
        previous: ast.AST = node
        for parent in ctx.parent_chain(node):
            if isinstance(parent, ast.Lambda):
                # A `key=lambda ...` hangs off an ast.keyword node, not
                # the sorted()/min()/max() Call itself.
                holder = ctx.parents.get(parent)
                if isinstance(holder, ast.keyword) and holder.arg == "key":
                    return "inside a sort key"
            elif isinstance(parent, ast.Subscript) and previous is parent.slice:
                return "as a dict/subscript key"
            elif isinstance(parent, ast.Dict) and previous in parent.keys:
                return "as a dict-literal key"
            elif isinstance(parent, (ast.JoinedStr, ast.FormattedValue)):
                return "rendered into text"
            elif isinstance(parent, ast.Call):
                func = parent.func
                if isinstance(func, ast.Name) and func.id in (
                    "str", "repr", "format",
                ):
                    return "rendered into text"
                if isinstance(func, ast.Attribute) and func.attr == "format":
                    return "rendered into text"
            elif isinstance(parent, ast.stmt):
                return None
            previous = parent
        return None


@register
class WallClockRule(Rule):
    id = "det.wall-clock"
    title = "wall-clock read in a simulation path"
    rationale = (
        "Simulated time is the engine's integer cycle clock; the paper's\n"
        "methodology depends on machine measurements being exactly\n"
        "reproducible.  time.time()/datetime.now() smuggle host time into\n"
        "results, so two runs of the same experiment stop agreeing.\n"
        "time.perf_counter()/time.monotonic() stay allowed: they feed\n"
        "self-profiling telemetry (wall_seconds, events/s) that is\n"
        "defined as nondeterministic and excluded from byte-identity\n"
        "comparisons.  Scope excludes nothing -- even serve latency\n"
        "metrics use monotonic()."
    )

    _TIME_ATTRS = frozenset(
        {"time", "time_ns", "ctime", "localtime", "gmtime", "asctime",
         "strftime"}
    )
    _DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                value = node.value
                if (
                    isinstance(value, ast.Name)
                    and value.id == "time"
                    and node.attr in self._TIME_ATTRS
                ):
                    yield ctx.finding(
                        self, node,
                        f"time.{node.attr} reads the wall clock; simulated "
                        "results must be a function of the cycle clock "
                        "(perf_counter/monotonic are fine for telemetry)",
                    )
                elif node.attr in self._DATETIME_ATTRS and (
                    (isinstance(value, ast.Name)
                     and value.id in ("datetime", "date"))
                    or (isinstance(value, ast.Attribute)
                        and value.attr in ("datetime", "date"))
                ):
                    yield ctx.finding(
                        self, node,
                        f"datetime {node.attr}() reads the wall clock in a "
                        "simulation path",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                bad = sorted(
                    alias.name for alias in node.names
                    if alias.name in self._TIME_ATTRS
                )
                if bad:
                    yield ctx.finding(
                        self, node,
                        f"from time import {', '.join(bad)} hides a "
                        "wall-clock read behind a bare name",
                    )


@register
class RngRule(Rule):
    id = "det.rng"
    title = "ambient randomness in a simulation path"
    rationale = (
        "The module-level random.* functions share one process-global\n"
        "generator whose state depends on import order and on every other\n"
        "caller; os.urandom/uuid4/secrets are nondeterministic by design.\n"
        "Any of them in a sim path breaks run-to-run byte-identity and\n"
        "makes the serve cache key a lie.  Workloads that need randomness\n"
        "must thread an explicitly seeded random.Random(seed) instance\n"
        "through the experiment config, so the seed is part of the\n"
        "content address."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                value = node.value
                if not isinstance(value, ast.Name):
                    continue
                if value.id == "random" and node.attr not in (
                    "Random", "SystemRandom",
                ):
                    yield ctx.finding(
                        self, node,
                        f"random.{node.attr} uses the process-global RNG; "
                        "thread a seeded random.Random(seed) from the "
                        "experiment config instead",
                    )
                elif value.id == "os" and node.attr == "urandom":
                    yield ctx.finding(
                        self, node, "os.urandom is nondeterministic by design"
                    )
                elif value.id == "uuid" and node.attr in ("uuid1", "uuid4"):
                    yield ctx.finding(
                        self, node,
                        f"uuid.{node.attr} is host/time/random dependent; "
                        "derive ids from content (sha256) instead",
                    )
                elif value.id == "secrets":
                    yield ctx.finding(
                        self, node,
                        "secrets.* is nondeterministic by design",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module in (
                "random", "secrets",
            ):
                yield ctx.finding(
                    self, node,
                    f"from {node.module} import ... hides ambient "
                    "randomness behind bare names",
                )


@register
class FsOrderRule(Rule):
    id = "det.fs-order"
    title = "filesystem enumeration consumed without sorted()"
    rationale = (
        "os.listdir/os.scandir/glob/Path.glob return entries in\n"
        "filesystem order -- an artifact of inode allocation that differs\n"
        "between machines, filesystems and runs.  Anything downstream\n"
        "that renders, numbers or merges in that order is\n"
        "nondeterministic.  Wrap the call in sorted() at the source, even\n"
        "when the current consumer re-sorts later: the next caller of the\n"
        "helper will not know it has to."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            flagged: Optional[str] = None
            if isinstance(func, ast.Attribute):
                value = func.value
                if isinstance(value, ast.Name) and (
                    (value.id == "os" and func.attr in ("listdir", "scandir"))
                    or (value.id == "glob" and func.attr in ("glob", "iglob"))
                ):
                    flagged = f"{value.id}.{func.attr}"
                elif func.attr in ("glob", "rglob", "iterdir") and not (
                    isinstance(value, ast.Name) and value.id == "self"
                ):
                    flagged = f"Path.{func.attr}"
            if flagged is None:
                continue
            parent = ctx.parents.get(node)
            if (
                isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id == "sorted"
            ):
                continue
            yield ctx.finding(
                self, node,
                f"{flagged}() yields entries in filesystem order; wrap the "
                "call in sorted() at the source",
            )


@register
class EnvReadRule(Rule):
    id = "det.env-read"
    title = "ambient os.environ read outside the config layer"
    rationale = (
        "Environment variables are ambient process state: two workers, or\n"
        "the serve tier and a CLI run, can disagree without anything in\n"
        "the experiment config saying so -- and the content-addressed\n"
        "result cache would happily serve one's bytes for the other's\n"
        "request.  Configuration must flow through repro.config (part of\n"
        "the experiment's identity) or be snapshot ONCE at import/\n"
        "construction into an explicit module switch (the sanitize\n"
        "pattern -- suppress those single reads with a commented noqa)."
    )
    exempt = ("config.py",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                value = node.value
                if isinstance(value, ast.Name) and value.id == "os" and (
                    node.attr in ("environ", "getenv", "putenv")
                ):
                    yield ctx.finding(
                        self, node,
                        f"os.{node.attr} read in a sim path; route it "
                        "through repro.config or snapshot it once into an "
                        "explicit switch",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                if any(alias.name == "environ" for alias in node.names):
                    yield ctx.finding(
                        self, node,
                        "from os import environ hides ambient state behind "
                        "a bare name",
                    )


@register
class MpScopeRule(Rule):
    id = "det.mp-scope"
    title = "process/thread machinery outside the sanctioned runners"
    rationale = (
        "Every fork point is a determinism seam: it needs the merge-in-\n"
        "declared-order, crash-surfacing, byte-identity discipline that\n"
        "repro/parallel.py, partition/runtime.py and serve/jobs.py\n"
        "implement (and test_determinism.py pins).  multiprocessing or\n"
        "concurrent.futures anywhere else creates a second, unaudited\n"
        "seam whose arrival order can leak into artifacts.  Route new\n"
        "parallelism through parallel_map()/run_partitioned(), or extend\n"
        "the sanctioned allowlist deliberately (with its own determinism\n"
        "test)."
    )
    exempt = ("partition/runtime.py", "serve/jobs.py")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] in (
                        "multiprocessing", "concurrent",
                    ):
                        yield ctx.finding(
                            self, node,
                            f"import {alias.name} outside the sanctioned "
                            "runners (repro/parallel.py, "
                            "partition/runtime.py, serve/jobs.py)",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module.split(".")[0] in ("multiprocessing", "concurrent"):
                    yield ctx.finding(
                        self, node,
                        f"from {node.module} import ... outside the "
                        "sanctioned runners",
                    )
            elif isinstance(node, ast.Attribute):
                value = node.value
                if isinstance(value, ast.Name) and value.id == "os" and (
                    node.attr in ("fork", "forkpty")
                    or node.attr.startswith("spawn")
                ):
                    yield ctx.finding(
                        self, node,
                        f"os.{node.attr} creates an unaudited process seam",
                    )
