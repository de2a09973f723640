"""Discipline rules: static mirrors of the sanitizer's runtime invariants.

The hardware sanitizer (DESIGN.md SS7) checks these contracts per event at
runtime, when armed.  These rules pin the statically-decidable halves at
review time: ambient context must be snapshot at construction, hot-path
scheduling must keep the integer cycle clock, and the serve tier's event
loop must never block.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.lint.core import FileContext, Finding, Rule, register

#: Methods where construction-time snapshotting is expected to happen.
_CONSTRUCTORS = frozenset({"__init__", "__post_init__", "__new__", "__set_name__"})


@register
class AmbientSnapshotRule(Rule):
    id = "disc.ambient-snapshot"
    title = "per-event read of ambient tracing()/sanitize.current()"
    rationale = (
        "Components snapshot the ambient tracer and sanitizer ONCE at\n"
        "construction (self._sanitizer = sanitize.current()); that is what\n"
        "makes disabled instrumentation cost one None-check and makes a\n"
        "run's observer set a function of how the machine was built, not\n"
        "of which context manager happens to be open when an event fires.\n"
        "Calling sanitize.current()/current_tracer() from any other method\n"
        "re-reads ambient state per event: it can silently attach a\n"
        "mid-run observer (perturbing sanitizer check counts across\n"
        "--partitions reassembly) and puts a stack probe on the hot path.\n"
        "Exempt: hardware/sanitize.py itself, whose one-shot violation\n"
        "report may read the tracer for error context."
    )
    scope = ("hardware", "partition", "trace")
    exempt = ("hardware/sanitize.py", "trace/tracer.py")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for klass in ast.walk(ctx.tree):
            if not isinstance(klass, ast.ClassDef):
                continue
            for method in klass.body:
                if not isinstance(
                    method, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if method.name in _CONSTRUCTORS:
                    continue
                for node in ast.walk(method):
                    if not isinstance(node, ast.Call):
                        continue
                    name = self._ambient_callee(node.func)
                    if name is not None:
                        yield ctx.finding(
                            self, node,
                            f"{name}() read in {klass.name}.{method.name}: "
                            "components must snapshot ambient context at "
                            "construction, not per event",
                        )

    @staticmethod
    def _ambient_callee(func: ast.AST) -> Optional[str]:
        if isinstance(func, ast.Name) and func.id == "current_tracer":
            return "current_tracer"
        if isinstance(func, ast.Attribute):
            if func.attr == "current_tracer":
                return "current_tracer"
            if func.attr == "current" and isinstance(func.value, ast.Name) and (
                func.value.id in ("sanitize", "sanitizer")
            ):
                return f"{func.value.id}.current"
        return None


@register
class UnvalidatedDelayRule(Rule):
    id = "disc.unvalidated-delay"
    title = "schedule_after()/schedule_pair() with a float-producing delay"
    rationale = (
        "Engine.schedule() validates its delay (integral, non-negative)\n"
        "and guards against off-queue calls; schedule_after() and\n"
        "schedule_pair() skip both checks for dispatch-critical hot paths,\n"
        "on the contract that the caller passes an already-validated int.\n"
        "A delay built with true division (/) or a float literal produces\n"
        "a float: events drift off the integer cycle clock and the\n"
        "per-cycle tie order that makes dispatch deterministic stops\n"
        "being total.  Use //, round explicitly, or call schedule() and\n"
        "pay for validation.  The sanitizer re-arms this check\n"
        "dynamically; this rule catches it in review."
    )
    scope = ("hardware", "partition")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("schedule_after", "schedule_pair")
                and node.args
            ):
                continue
            delay = node.args[0]
            hazard = self._float_hazard(delay)
            if hazard is not None:
                yield ctx.finding(
                    self, node,
                    f"{node.func.attr}() delay {hazard}; the fast entry point "
                    "skips validation, so this breaks the integer cycle "
                    "clock silently",
                )

    @staticmethod
    def _float_hazard(delay: ast.AST) -> Optional[str]:
        for node in ast.walk(delay):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                return "uses true division (/): the result is a float"
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                return f"contains the float literal {node.value!r}"
        return None


@register
class AsyncBlockingRule(Rule):
    id = "disc.async-blocking"
    title = "blocking call inside an async def in repro.serve"
    rationale = (
        "The serve tier is one asyncio event loop; a blocking call inside\n"
        "an async handler stalls EVERY in-flight request, SSE stream and\n"
        "health check behind one job -- the SSI/serving concern the\n"
        "Cluster Computing White Paper warns about.  time.sleep, sync\n"
        "file I/O (open), subprocess.* and socket/url reads must move to\n"
        "run_in_executor (how serve runs simulations) or an await-able\n"
        "API.  Nested sync defs are not flagged: that is the sanctioned\n"
        "pattern for closures handed to an executor."
    )
    scope = ("serve",)

    _BLOCKING_ATTRS: Tuple[Tuple[str, str], ...] = (
        ("time", "sleep"),
        ("subprocess", "run"),
        ("subprocess", "call"),
        ("subprocess", "check_call"),
        ("subprocess", "check_output"),
        ("subprocess", "Popen"),
        ("os", "system"),
        ("os", "popen"),
        ("os", "waitpid"),
        ("socket", "create_connection"),
        ("urllib", "urlopen"),
        ("request", "urlopen"),
    )
    _BLOCKING_NAMES = frozenset({"open", "urlopen"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_async_body(ctx, node)

    def _check_async_body(
        self, ctx: FileContext, func: ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        stack: List[ast.AST] = []
        for stmt in func.body:
            stack.append(stmt)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue  # nested defs run elsewhere (executor) or re-checked
            if isinstance(node, ast.Call):
                label = self._blocking_label(node.func)
                if label is not None:
                    yield ctx.finding(
                        self, node,
                        f"{label}() blocks the event loop inside async "
                        f"{func.name}(); use run_in_executor or an "
                        "await-able API",
                    )
            stack.extend(ast.iter_child_nodes(node))

    def _blocking_label(self, func: ast.AST) -> Optional[str]:
        if isinstance(func, ast.Name) and func.id in self._BLOCKING_NAMES:
            return func.id
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if (func.value.id, func.attr) in self._BLOCKING_ATTRS:
                return f"{func.value.id}.{func.attr}"
        return None
