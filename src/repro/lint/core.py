"""AST analyzer framework for the determinism & discipline rules.

The repro's headline guarantee -- rendered output, ``--json`` documents,
sanitizer summaries and ``--trace-out`` bytes are identical for any
``--jobs N`` / ``--partitions N`` -- is enforced dynamically by
``tests/test_determinism.py`` *after* a hazard has been written.  This
module is the static half of that contract: every rule in
:mod:`repro.lint.rules` names one hazard class (unordered iteration into
an ordering-sensitive sink, wall clock or RNG in a sim path, identity in
a rendered artifact, ...) and pins it at review time, before it can turn
into a flaky byte-diff three PRs later.

Framework pieces:

* :class:`Finding` -- one ``file:line:col: rule-id message`` record.
* :class:`Rule` -- base class; subclasses register via :func:`register`
  and declare a ``scope`` of package paths under ``repro/`` (plus
  per-file ``exempt`` escape hatches, e.g. ``config.py`` for the env
  rule).  Files outside a ``repro`` package (fixtures, scratch trees)
  are checked by every rule.
* ``# cedar: noqa[rule-id]`` -- same-line suppression; a bare
  ``# cedar: noqa`` suppresses every rule on that line.  Unknown rule
  ids inside the brackets are themselves reported (``lint.unknown-rule``)
  so a typo cannot silently disarm a real suppression.
* :func:`analyze_paths` / :func:`analyze_source` -- the drivers; the
  committed grandfather list lives in :mod:`repro.lint.baseline`.
"""

from __future__ import annotations

import ast
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import LintError

#: The packages (relative to ``repro/``) whose code feeds deterministic
#: artifacts: the cycle simulator, the partitioned runtime, the trace
#: backbone, the serving tier, the metrics exporters and the machine
#: builder (whose sweep artifacts must be byte-stable across --jobs).
SIM_SCOPE: Tuple[str, ...] = (
    "hardware",
    "partition",
    "trace",
    "serve",
    "metrics",
    "builder",
)

#: Pseudo-rule id for a malformed/unknown suppression comment.
UNKNOWN_RULE_ID = "lint.unknown-rule"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, ordered for deterministic rendering."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_json(self, baselined: bool = False) -> Dict[str, object]:
        return {
            "file": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "baselined": baselined,
        }


_NOQA_RE = re.compile(
    r"#\s*cedar:\s*noqa(?:\[(?P<rules>[^\]]*)\])?", re.IGNORECASE
)


def _parse_noqa(source: str) -> Dict[int, Optional[frozenset]]:
    """``{line: suppressed rule ids}``; ``None`` means every rule.

    Comments are found with :mod:`tokenize` so a ``# cedar: noqa`` inside
    a string literal does not suppress anything.
    """
    suppressions: Dict[int, Optional[frozenset]] = {}
    try:
        tokens = tokenize.generate_tokens(iter(source.splitlines(True)).__next__)
        comments = [
            (token.start[0], token.string)
            for token in tokens
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # analyze_source() raises on a real syntax error; don't double up.
        return suppressions
    for line, comment in comments:
        match = _NOQA_RE.search(comment)
        if not match:
            continue
        rules = match.group("rules")
        if rules is None:
            suppressions[line] = None
        else:
            ids = frozenset(
                rule.strip() for rule in rules.split(",") if rule.strip()
            )
            suppressions[line] = ids
    return suppressions


def repro_relative(path: str) -> Optional[str]:
    """Path relative to the innermost ``repro`` package, or ``None``.

    ``src/repro/hardware/engine.py`` -> ``hardware/engine.py``; a fixture
    under ``tests/lint/fixtures`` has no ``repro`` segment and returns
    ``None`` (every rule applies to it).
    """
    parts = path.replace(os.sep, "/").split("/")
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index + 1:])
    return None


class FileContext:
    """Everything a rule needs to check one file."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path.replace(os.sep, "/")
        self.source = source
        self.rel = repro_relative(self.path)
        try:
            self.tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            raise LintError(
                f"{path}:{error.lineno or 0}: cannot parse: {error.msg}"
            ) from error
        self.noqa = _parse_noqa(source)
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None

    @property
    def parents(self) -> Dict[ast.AST, ast.AST]:
        """Child -> parent map over the whole tree (built lazily once)."""
        if self._parents is None:
            self._parents = {
                child: parent
                for parent in ast.walk(self.tree)
                for child in ast.iter_child_nodes(parent)
            }
        return self._parents

    def parent_chain(self, node: ast.AST) -> Iterator[ast.AST]:
        """Ancestors of ``node``, innermost first."""
        parents = self.parents
        current = parents.get(node)
        while current is not None:
            yield current
            current = parents.get(current)

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", -1) + 1,
            rule=rule.id,
            message=message,
        )

    def suppressed(self, finding: Finding) -> bool:
        rules = self.noqa.get(finding.line, ())
        if rules is None:  # bare `# cedar: noqa`
            return True
        return finding.rule in rules


class Rule:
    """One hazard class.  Subclass, set the metadata, implement check()."""

    #: Stable identifier, ``family.kebab-name`` (``det.set-iter``).
    id: str = ""
    #: One-line summary shown in listings.
    title: str = ""
    #: The determinism argument this rule protects, shown by --explain.
    rationale: str = ""
    #: Packages under ``repro/`` the rule applies to.
    scope: Tuple[str, ...] = SIM_SCOPE
    #: Repro-relative files the rule never applies to, with the reason
    #: documented in the rationale.
    exempt: Tuple[str, ...] = ()

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.rel is None:
            return True  # outside any repro package: fixtures, scratch
        if ctx.rel in self.exempt:
            return False
        return any(
            ctx.rel == prefix or ctx.rel.startswith(prefix + "/")
            for prefix in self.scope
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError


_REGISTRY: Dict[str, Rule] = {}


def register(rule_cls):
    """Class decorator: instantiate and index the rule by its id."""
    rule = rule_cls()
    if not rule.id or not rule.title or not rule.rationale:
        raise LintError(f"rule {rule_cls.__name__} is missing metadata")
    if rule.id in _REGISTRY:
        raise LintError(f"duplicate rule id {rule.id!r}")
    _REGISTRY[rule.id] = rule
    return rule_cls


def all_rules() -> List[Rule]:
    """Every registered rule, in sorted-id order (deterministic output)."""
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise LintError(
            f"unknown rule {rule_id!r}; known: {', '.join(sorted(_REGISTRY))}"
        ) from None


@dataclass
class Report:
    """The outcome of one analyzer pass (before baseline filtering)."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0


def _check_unknown_suppressions(ctx: FileContext) -> Iterator[Finding]:
    """Report noqa comments naming rule ids that do not exist."""
    for line, rules in sorted(ctx.noqa.items()):
        if rules is None:
            continue
        for rule_id in sorted(rules):
            if rule_id not in _REGISTRY:
                yield Finding(
                    path=ctx.path,
                    line=line,
                    col=1,
                    rule=UNKNOWN_RULE_ID,
                    message=(
                        f"suppression names unknown rule {rule_id!r}; "
                        "a typo here silently disarms nothing -- fix the id"
                    ),
                )


def analyze_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
    respect_scope: bool = True,
) -> Report:
    """Run ``rules`` (default: all registered) over one source string."""
    ctx = FileContext(path, source)
    active = list(rules) if rules is not None else all_rules()
    report = Report(files_checked=1)
    raw: List[Finding] = []
    for rule in active:
        if respect_scope and not rule.applies_to(ctx):
            continue
        raw.extend(rule.check(ctx))
    if rules is None:  # only the full pass polices suppression hygiene
        raw.extend(_check_unknown_suppressions(ctx))
    for finding in sorted(raw):
        if ctx.suppressed(finding):
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)
    return report


def analyze_file(
    path: str,
    rules: Optional[Sequence[Rule]] = None,
    respect_scope: bool = True,
) -> Report:
    try:
        with open(path, "r", encoding="utf-8") as stream:
            source = stream.read()
    except OSError as error:
        raise LintError(f"cannot read {path}: {error}") from error
    return analyze_source(source, path, rules, respect_scope)


def collect_files(paths: Sequence[str]) -> List[str]:
    """Every ``.py`` file under ``paths``, sorted, caches skipped."""
    found: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            found.append(path)
            continue
        if not os.path.isdir(path):
            raise LintError(f"no such file or directory: {path}")
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                name
                for name in dirnames
                if name != "__pycache__" and not name.startswith(".")
            )
            for name in sorted(filenames):
                if name.endswith(".py"):
                    found.append(os.path.join(dirpath, name))
    return sorted(dict.fromkeys(found))


def analyze_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
    respect_scope: bool = True,
) -> Report:
    """Run the analyzer over files and directories; one merged report."""
    report = Report()
    for path in collect_files(paths):
        one = analyze_file(path, rules, respect_scope)
        report.findings.extend(one.findings)
        report.suppressed.extend(one.suppressed)
        report.files_checked += 1
    report.findings.sort()
    report.suppressed.sort()
    return report


def self_check(fixtures_dir: str) -> List[str]:
    """Prove every registered rule against its fire/clean fixture pair.

    Returns human-readable failure strings (empty == all rules proven).
    A rule whose ``fire.py`` stops firing -- or whose ``clean.py`` starts
    -- is a silently-broken checker; CI runs this so that fails loudly.
    """
    failures: List[str] = []
    for rule in all_rules():
        rule_dir = os.path.join(fixtures_dir, rule.id)
        for variant, expect_fire in (("fire.py", True), ("clean.py", False)):
            path = os.path.join(rule_dir, variant)
            if not os.path.isfile(path):
                failures.append(f"{rule.id}: missing fixture {path}")
                continue
            try:
                report = analyze_file(path, rules=[rule], respect_scope=False)
            except LintError as error:
                failures.append(f"{rule.id}: {error}")
                continue
            hits = [f for f in report.findings if f.rule == rule.id]
            if expect_fire and not hits:
                failures.append(
                    f"{rule.id}: {path} does not fire the rule"
                )
            elif not expect_fire and hits:
                failures.append(
                    f"{rule.id}: {path} unexpectedly fires: "
                    + "; ".join(f.render() for f in hits)
                )
    return failures
