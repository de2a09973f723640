"""Cold start: each user-facing path imports only what it runs.

Every budget runs the path in a fresh interpreter and reads
``sys.modules`` afterwards, so the checks are about which modules load,
never about how long loading takes.  The lazy package tables and the
examples are checked here too, because a lazy re-export that names a
moved or renamed function fails only when somebody touches it.  So is
reachability: every module under ``src/repro`` must be reachable from
``repro.cli``, the ``cedar-repro`` entry point, or be deleted; and below
the module, every definition must be called, every ``self`` attribute
read and every ``config.py`` field read by code a user path runs.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Packages whose ``__init__`` re-exports names lazily (PEP 562).
LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.kernels",
    "repro.trace",
    "repro.metrics",
    "repro.builder",
    "repro.hardware",
    "repro.experiments",
    "repro.serve",
)

#: What a simulator workload's start-up must not pay for.
SETUP_FORBIDDEN = (
    "repro.metrics.bench",
    "repro.serve",
    "repro.lint",
    "repro.compiler",
    "repro.perfect",
    "repro.experiments.registry",
)

#: What `cedar-repro --help` and a single `run` must not pay for.
CLI_FORBIDDEN = ("repro.serve", "repro.lint", "repro.metrics.bench")

#: Modules no command reaches yet, each with the reason it stays.
UNREACHABLE_ALLOWED = {
    "repro.model.calibration": (
        "regenerates the analytic model's prefetch curve from the simulator; "
        "ROADMAP item 10 makes the analytic tables read it"
    ),
}

#: Definitions no user path calls, each with the reason it stays.
UNCALLED_ALLOWED = {
    "repro.hardware.queueing.BoundedWordQueue.wait_for_space": (
        "the per-waiter wake-up path of the reference crossbar oracle "
        "(tests/hardware/reference_crossbar.py)"
    ),
    "repro.model.calibration.calibrate_prefetch_curve": (
        "UNREACHABLE_ALLOWED's calibration entry point; ROADMAP item 10"
    ),
}

#: Trees whose whole text counts as user code for the definition walk:
#: the examples and the benchmark harness.
WALK_ROOTS = ("examples", "perfbench")


def _fresh_modules(code: str) -> list:
    """``sys.modules`` after ``code`` runs in a fresh interpreter."""
    report = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("CEDAR_SANITIZE", None)
    done = subprocess.run(
        [sys.executable, "-c", code + report],
        cwd=str(ROOT), env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    return json.loads(done.stdout.splitlines()[-1])


def _loaded(modules: list, forbidden) -> list:
    return [
        name for name in modules
        if any(name == root or name.startswith(root + ".") for root in forbidden)
    ]


def _perfbench_setup_snippets() -> dict:
    """The ``setup_code`` each perfbench simulator workload times."""
    code = (
        "import json, sys\n"
        "sys.path.insert(0, 'perfbench')\n"
        "import workloads\n"
        "print(json.dumps({name: make().setup_code for name, make in "
        "workloads.SIMULATOR_WORKLOADS.items()}))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=str(ROOT), capture_output=True,
        text=True, check=True, timeout=60,
    )
    return json.loads(done.stdout.splitlines()[-1])


class TestImportBudgets:
    def test_perfbench_setup_snippets(self):
        snippets = _perfbench_setup_snippets()
        assert set(snippets) == {
            "prefetch-contention", "demand-rw", "sweep-shapes",
        }
        for name, code in snippets.items():
            modules = _fresh_modules(code)
            assert "repro.hardware.machine" in modules, name
            assert _loaded(modules, SETUP_FORBIDDEN) == [], name

    @pytest.mark.parametrize(
        "argv", [["--help"], ["list"], ["run", "table3"]],
        ids=["help", "list", "run-table3"],
    )
    def test_cli_paths(self, argv):
        code = (
            "import contextlib, io\n"
            "from repro.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            f"        main({argv!r})\n"
            "    except SystemExit:\n"
            "        pass\n"
        )
        modules = _fresh_modules(code)
        assert _loaded(modules, CLI_FORBIDDEN) == []
        if argv[0] == "run":
            assert "repro.experiments.table3" in modules
            # One run loads its own driver, no other.
            drivers = [
                name for name in modules
                if name.startswith("repro.experiments.")
                and name != "repro.experiments.registry"
            ]
            assert drivers == ["repro.experiments.table3"]
        else:
            assert "repro.hardware.machine" not in modules

    def test_submit_client_loads_no_server(self):
        modules = _fresh_modules("from repro.serve import ServeClient\n")
        assert "repro.serve.client" in modules
        assert _loaded(modules, (
            "repro.serve.jobs", "repro.serve.worker", "repro.serve.server",
            "repro.parallel",
        )) == []

    def test_registry_defers_every_driver(self):
        modules = _fresh_modules(
            "from repro.experiments.registry import EXPERIMENTS\n"
            "assert len(EXPERIMENTS) == 11\n"
        )
        assert [m for m in modules if m.startswith("repro.experiments.")] == [
            "repro.experiments.registry"
        ]


class TestLazyTables:
    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_every_export_resolves(self, package):
        module = importlib.import_module(package)
        names = getattr(module, "__all__", [])
        star: dict = {}
        exec(f"from {package} import *", star)  # noqa: S102
        listed = dir(module)
        for name in names:
            assert getattr(module, name) is star[name], name
            assert name in listed, name

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_unknown_name_is_an_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError):
            getattr(module, "no_such_export")

    def test_examples_compile_and_their_imports_resolve(self):
        examples = sorted((ROOT / "examples").glob("*.py"))
        assert examples
        for path in examples:
            tree = ast.parse(path.read_text(), filename=str(path))
            compile(tree, str(path), "exec")
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and (
                    node.module or ""
                ).startswith("repro"):
                    module = importlib.import_module(node.module)
                    for alias in node.names:
                        if not hasattr(module, alias.name):  # a submodule
                            importlib.import_module(f"{node.module}.{alias.name}")
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name.startswith("repro"):
                            importlib.import_module(alias.name)


def _source_modules() -> dict:
    """Dotted name -> parsed source of every module under ``src/repro``."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = ast.parse(path.read_text(), filename=str(path))
    return modules


def _targets(tree, modules) -> set:
    """Modules one source file can load.

    Besides every ``import`` (function bodies included), a lazy
    ``lazy_exports(...)`` table loads its module keys on first access,
    and the registry's ``_driver(key, module, ...)`` loads
    ``repro.experiments.<module>`` on first call.
    """
    targets = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            targets.add(node.module)
            targets.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            args = node.args
            if node.func.id == "lazy_exports" and isinstance(args[1], ast.Dict):
                targets.update(key.value for key in args[1].keys)
            elif node.func.id == "_driver":
                targets.add(f"repro.experiments.{args[1].value}")
    return {
        ".".join(parts[:end])
        for parts in (target.split(".") for target in targets)
        for end in range(1, len(parts) + 1)
    } & set(modules)


def _reachable(modules: dict) -> set:
    seen, pending = set(), ["repro.cli"]
    while pending:
        name = pending.pop()
        if name not in seen:
            seen.add(name)
            pending.extend(_targets(modules[name], modules))
    return seen


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
#: A string that can name code: a dotted path or a ``module:name`` key,
#: not prose such as ``"transfer-encoding"``.
_NAME_STRING = re.compile(r"[\w.:]+")
#: Assignments whose strings list names without loading them.
_NOT_LOADS = {"__all__", "__slots__"}


def _body(node) -> list:
    """``node``'s statements without its docstring."""
    body = node.body
    first = body[0].value if body and isinstance(body[0], ast.Expr) else None
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        return body[1:]
    return body


def _header(node) -> list:
    """What runs where ``node`` is defined: decorators, bases, defaults."""
    if isinstance(node, ast.ClassDef):
        return node.decorator_list + node.bases + node.keywords
    return node.decorator_list + [node.args] + ([node.returns] if node.returns else [])


def _class_families(modules: dict) -> dict:
    """``module.Class`` -> its family: the classes joined to it by
    inheritance, bases resolved by bare name.  A ``self.x`` in one family
    member's method can read what any member stores."""
    classes = {
        f"{name}.{node.name}": node
        for name, tree in modules.items()
        for node in tree.body if isinstance(node, ast.ClassDef)
    }
    family = {qualname: {qualname} for qualname in classes}
    for qualname, node in classes.items():
        bases = {getattr(base, "id", getattr(base, "attr", None)) for base in node.bases}
        for other in classes:
            if other.rsplit(".", 1)[1] in bases and family[other] is not family[qualname]:
                merged = family[qualname] | family[other]
                for member in merged:
                    family[member] = merged
    return {qualname: min(members) for qualname, members in family.items()}


class _Walk:
    """One fixpoint over names, from the module level and the root trees.

    ``loads`` holds every name reached code loads: a ``Name``, an
    ``Attribute`` or an identifier inside a non-docstring string (which
    covers ``getattr`` and registries).  ``reads`` is the part that can
    read an attribute: ``Attribute`` loads and string identifiers, not a
    bare local such as the parameter ``x`` in ``self.x = x``.  A
    ``self.x`` load inside a class's methods is neither: it goes to
    ``self_loads`` as ``(family, "x")`` and reaches only that class
    family's ``x`` (see :func:`_class_families`), so a dead attribute or
    method sharing its name with a live one elsewhere still fails.  An
    import binding, an ``__all__``/``__slots__`` entry or a lazy export
    table loads nothing.  ``pending`` holds the definitions whose
    enclosing code ran but whose name nothing loads yet; ``stores`` maps
    ``module.Class.attr`` of every ``self.attr`` store in a reached method
    to its line.
    """

    def __init__(self, modules: dict) -> None:
        self.family = _class_families(modules)
        self.loads: set = set()
        self.reads: set = set()
        self.self_loads: set = set()
        self.stores: dict = {}
        self.pending: list = []
        self.reached: set = set()
        for root in WALK_ROOTS:
            for path in sorted((ROOT / root).rglob("*.py")):
                tree = ast.parse(path.read_text(), filename=str(path))
                self._scan(_body(tree), root, "root", None)
        for name, tree in modules.items():
            self._scan(_body(tree), name, "module", None)
        while True:
            ready = [entry for entry in self.pending if self._is_reached(*entry)]
            if not ready:
                break
            self.pending = [entry for entry in self.pending if entry not in ready]
            for owner, kind, node, klass in ready:
                qualname = f"{owner}.{node.name}"
                self.reached.add(qualname)
                if isinstance(node, ast.ClassDef):
                    self._scan(_body(node), qualname, "class", qualname)
                else:
                    self._scan(_body(node), qualname, "def", klass)

    @property
    def uncalled(self) -> set:
        return {f"{owner}.{node.name}" for owner, _, node, _ in self.pending}

    def is_read(self, klass: str, attr: str) -> bool:
        """Whether reached code reads ``attr`` of class ``klass``."""
        family = self.family.get(klass)
        return attr in self.reads or (family, attr) in self.self_loads

    def _is_reached(self, owner: str, kind: str, node, klass) -> bool:
        if kind == "class" and node.name.startswith("__") and node.name.endswith("__"):
            return True  # a reached class's dunders run implicitly
        if any(getattr(d, "id", None) == "register" for d in node.decorator_list):
            return True
        if kind == "class" and (self.family.get(owner), node.name) in self.self_loads:
            return True
        return node.name in self.loads

    def _scan(self, nodes: list, owner: str, kind: str, klass) -> None:
        stack = list(nodes)
        while stack:
            node = stack.pop()
            if isinstance(node, _DEFS):
                stack.extend(_header(node))
                if kind == "root":
                    stack.extend(_body(node))
                else:
                    self.pending.append((owner, kind, node, klass))
                continue
            if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) in _NOT_LOADS for target in node.targets
            ):
                continue
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lazy_exports":
                node = node.func
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                self.loads.add(node.id)
            elif isinstance(node, ast.Attribute):
                on_self = (
                    kind == "def" and klass is not None
                    and getattr(node.value, "id", None) == "self"
                )
                if not isinstance(node.ctx, ast.Load):
                    if on_self:
                        self.stores.setdefault(f"{klass}.{node.attr}", node.lineno)
                elif on_self:
                    self.self_loads.add((self.family.get(klass), node.attr))
                else:
                    self.loads.add(node.attr)
                    self.reads.add(node.attr)
            elif (
                isinstance(node, ast.Constant) and isinstance(node.value, str)
                and _NAME_STRING.fullmatch(node.value)
            ):
                identifiers = _IDENTIFIER.findall(node.value)
                self.loads.update(identifiers)
                self.reads.update(identifiers)
            stack.extend(ast.iter_child_nodes(node))


def _config_fields(tree) -> list:
    """``Class.field`` of every annotated class attribute in ``config.py``."""
    return [
        f"{klass.name}.{stmt.target.id}"
        for klass in tree.body if isinstance(klass, ast.ClassDef)
        for stmt in klass.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]


class TestReachability:
    @pytest.fixture(scope="class")
    def modules(self):
        return _source_modules()

    def test_every_module_is_reachable_from_the_cli(self, modules):
        unreachable = set(modules) - _reachable(modules) - set(UNREACHABLE_ALLOWED)
        assert not unreachable, (
            f"no cedar-repro command reaches {', '.join(sorted(unreachable))}: "
            "wire them in, move them to tests/, or delete them"
        )

    @pytest.mark.parametrize("module", sorted(UNREACHABLE_ALLOWED))
    def test_allowed_entry_is_not_stale(self, modules, module):
        assert UNREACHABLE_ALLOWED[module], "an entry needs its reason"
        assert module in modules, f"{module} no longer exists"
        assert module not in _reachable(modules), f"{module} is reachable now"

    @pytest.fixture(scope="class")
    def walk(self, modules):
        return _Walk(modules)

    def test_every_definition_is_called(self, walk):
        uncalled = walk.uncalled - set(UNCALLED_ALLOWED)
        assert not uncalled, (
            f"no user path calls {', '.join(sorted(uncalled))}: call them, "
            "move them to tests/, or delete them"
        )

    def test_every_self_attribute_is_read(self, walk):
        unread = sorted(
            f"{key} (line {line})" for key, line in walk.stores.items()
            if not walk.is_read(*key.rsplit(".", 1))
        )
        assert not unread, f"stored but never read: {', '.join(unread)}"

    def test_every_config_field_is_read(self, modules, walk):
        unread = [
            field for field in _config_fields(modules["repro.config"])
            if not walk.is_read(*f"repro.config.{field}".rsplit(".", 1))
        ]
        assert not unread, (
            f"config fields nothing reads: {', '.join(unread)}; a knob that "
            "changes nothing belongs in its dataclass docstring"
        )

    @pytest.mark.parametrize("definition", sorted(UNCALLED_ALLOWED))
    def test_allowed_definition_is_not_stale(self, walk, definition):
        assert UNCALLED_ALLOWED[definition], "an entry needs its reason"
        assert definition not in walk.reached, f"{definition} is called now"
        assert definition in walk.uncalled, f"{definition} no longer exists"
