"""Cold start: each user-facing path imports only what it runs.

Every budget runs the path in a fresh interpreter and reads
``sys.modules`` afterwards, so the checks are about which modules load,
never about how long loading takes.  The lazy package tables and the
examples are checked here too, because a lazy re-export that names a
moved or renamed function fails only when somebody touches it.
"""

import ast
import importlib
import json
import os
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
