"""Hygiene rules: source that nothing reads.

An import nobody uses still costs its module's load time on every path
that imports the file, and it keeps a name looking alive to a reader (and
to a grep) after its last caller has gone.  Package ``__init__`` files are
exempt: what they import is what they re-export.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Set

from repro.lint.core import FileContext, Finding, Rule, register


@register
class UnusedImportRule(Rule):
    id = "hyg.unused-import"
    title = "imported name that the module never uses"
    rationale = (
        "Every import runs its module on first load, so an unused import\n"
        "puts a module on the cold path of every command that loads the\n"
        "file (tests/test_cold_start.py pins those budgets), and it keeps\n"
        "a deleted caller's dependencies looking alive.  A name counts as\n"
        "used when the module loads it anywhere, names it in __all__, or\n"
        "mentions it in a string annotation.  Package __init__ files are\n"
        "exempt: their imports are re-exports.  An import kept only for\n"
        "its side effect takes a `# cedar: noqa[hyg.unused-import]` with\n"
        "the reason."
    )
    #: Every package; ``applies_to`` below only drops ``__init__`` files.
    scope = ("*",)

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.rel is None or not ctx.rel.endswith("__init__.py")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        bound: Dict[str, ast.AST] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound.setdefault(alias.asname or alias.name.split(".")[0], node)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    if alias.name != "*":
                        bound.setdefault(alias.asname or alias.name, node)
        used = _used_names(ctx.tree)
        for name, node in bound.items():
            if name not in used:
                yield ctx.finding(self, node, f"{name!r} is imported but never used")


def _used_names(tree: ast.AST) -> Set[str]:
    """Names ``tree`` loads, lists in ``__all__`` or quotes as annotations."""
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(
                item.value for item in ast.walk(node.value)
                if isinstance(item, ast.Constant) and isinstance(item.value, str)
            )
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for item in ast.walk(annotation) if annotation is not None else ():
            if isinstance(item, ast.Constant) and isinstance(item.value, str):
                try:
                    quoted = ast.parse(item.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(
                    name.id for name in ast.walk(quoted) if isinstance(name, ast.Name)
                )
    return used
