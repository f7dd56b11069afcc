"""Package surface: the exported names and what an import pulls in."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys

import pytest

import debye_limit
from debye_limit import cli, experiments

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")
MODULES = sorted(info.name for info in pkgutil.iter_modules(debye_limit.__path__))


def test_package_exports_resolve():
    missing = [name for name in debye_limit.__all__
               if not hasattr(debye_limit, name)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"debye_limit.{name}")
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing


def test_cli_import_leaves_the_process_pool_out():
    # only a parallel sweep needs concurrent.futures, and its import
    # (logging, traceback, string) would cost every command
    src = os.path.dirname(os.path.dirname(debye_limit.__file__))
    probe = ("import sys, debye_limit.cli; "
             "print('concurrent.futures' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src),
                         timeout=60, check=True).stdout
    assert out.strip() == "False"


def test_benchmark_hooks_resolve():
    # the benchmark wraps package names from outside; a rename it misses
    # leaves its metrics out rather than failing, so it is caught here
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(PERFBENCH, "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.missing == []

    # every name the layer microbenchmarks import from the package
    with open(os.path.join(PERFBENCH, "microbench.py")) as fh:
        tree = ast.parse(fh.read())
    run = next(node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "run")
    imported = [(node.module, alias.name) for node in ast.walk(run)
                if isinstance(node, ast.ImportFrom)
                and node.module.split(".")[0] == "debye_limit"
                for alias in node.names]
    assert imported
    unresolved = [f"{module}.{name}" for module, name in imported
                  if not hasattr(importlib.import_module(module), name)]
    assert unresolved == []

    # the benchmark child wraps both evolve lookups and calls cli.main
    for module, name in ((cli, "evolve"), (experiments, "evolve"), (cli, "main")):
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
