"""Package surface: the exported names and what an import pulls in."""

import ast
import dataclasses
import glob
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys

import debye_limit
from debye_limit import cli, experiments
from debye_limit.flows import Trajectory
from debye_limit.poisson import PBSolution

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")
MODULES = sorted(info.name for info in pkgutil.iter_modules(debye_limit.__path__))


def _trees(paths):
    trees = {}
    for path in paths:
        with open(path) as fh:
            trees[path] = ast.parse(fh.read())
    return trees


def _benchmark_imports():
    """(module, name) of every ``from debye_limit... import`` in perfbench."""
    return [(node.module, alias.name)
            for tree in _trees(glob.glob(os.path.join(PERFBENCH, "*.py"))).values()
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "debye_limit"
            for alias in node.names]


def test_package_root_exports_only_the_version():
    # the CLI is the interface; the root re-exports no module's names
    public = [name for name in vars(debye_limit) if not name.startswith("_")]
    assert set(public) <= set(MODULES)  # submodules, once imported
    assert debye_limit.__version__


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

    # every name any benchmark file imports from the package, a submodule
    # or an attribute of the module it names
    imported = _benchmark_imports()
    assert ("debye_limit.poisson", "solve_phi") in imported  # the child's invariants
    unresolved = [f"{module}.{name}" for module, name in imported
                  if not hasattr(importlib.import_module(module), name)
                  and importlib.util.find_spec(f"{module}.{name}") is None]
    assert unresolved == []

    # the benchmark child wraps both evolve lookups and calls cli.main
    for module, name in ((cli, "evolve"), (experiments, "evolve"), (cli, "main")):
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    # and reads these off the results it gets back
    assert isinstance(Trajectory.final, property)
    fields = {f.name for f in dataclasses.fields(PBSolution)}
    assert {"residual_l2", "iterations"} <= fields


def test_every_top_level_definition_has_a_caller():
    # a function or class that no module of the package uses and no
    # benchmark imports is surface without a run path; tests keep their
    # own helpers and oracles under tests/
    src = os.path.dirname(debye_limit.__file__)
    trees = _trees(glob.glob(os.path.join(src, "*.py")))
    defined, used = [], set()
    for path, tree in trees.items():
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((os.path.basename(path)[:-3], own))
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    used.add(name)
    used |= {name for _, name in _benchmark_imports()}
    unused = [f"{module}.{name}" for module, name in defined if name not in used]
    assert not unused, "no caller: " + ", ".join(unused)


# the one optional parameter kept for outside readers: README, ROADMAP
# and perfbench/workloads.py define the reproducible report by it
PARAMETER_EXEMPTIONS = {("SweepReport.as_dict", "include_timings")}


def test_every_optional_parameter_is_passed_by_a_caller():
    # a default that every caller keeps is a setting no run path varies;
    # calls resolve by name, so a method or class call counts for every
    # definition of that name, and a method's position skips self
    src = os.path.dirname(debye_limit.__file__)
    src_trees = _trees(glob.glob(os.path.join(src, "*.py")))
    optional = []  # (qualified name, callee name, parameter, position or None)
    for tree in src_trees.values():
        scopes = [(stmt, None) for stmt in tree.body]
        scopes += [(item, stmt.name) for stmt in tree.body if isinstance(stmt, ast.ClassDef)
                   for item in stmt.body]
        for func, owner in scopes:
            if not isinstance(func, ast.FunctionDef):
                continue
            args = func.args
            positional = args.posonlyargs + args.args
            callee = owner if func.name == "__init__" else func.name
            qualified = f"{owner}.{func.name}" if owner else func.name
            first = len(positional) - len(args.defaults)
            optional += [(qualified, callee, arg.arg, i - (owner is not None))
                         for i, arg in enumerate(positional) if i >= first]
            optional += [(qualified, callee, arg.arg, None)
                         for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                         if default is not None]
    passed = set()  # (callee name, parameter name or position)
    trees = {**src_trees, **_trees(glob.glob(os.path.join(PERFBENCH, "*.py")))}
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = (node.func.id if isinstance(node.func, ast.Name) else
                    node.func.attr if isinstance(node.func, ast.Attribute) else None)
            passed |= {(name, kw.arg) for kw in node.keywords}
            passed |= {(name, i) for i in range(len(node.args))}
    unused = [f"{qualified}({param})" for qualified, callee, param, position in optional
              if (callee, param) not in passed and (callee, position) not in passed
              and (qualified, param) not in PARAMETER_EXEMPTIONS]
    assert not unused, "no caller passes: " + ", ".join(unused)


def _is_dataclass(node):
    return any(getattr(deco.func if isinstance(deco, ast.Call) else deco, "id", None)
               == "dataclass" for deco in node.decorator_list)


def test_every_dataclass_field_has_a_reader():
    # a field that nothing reads is a value every run computes and drops;
    # a read is an attribute load in the package or the benchmark
    src = os.path.dirname(debye_limit.__file__)
    src_trees = _trees(glob.glob(os.path.join(src, "*.py")))
    fields = [(node.name, stmt.target.id)
              for tree in src_trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) and _is_dataclass(node)
              for stmt in node.body if isinstance(stmt, ast.AnnAssign)]
    trees = {**src_trees, **_trees(glob.glob(os.path.join(PERFBENCH, "**", "*.py"),
                                             recursive=True))}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{owner}.{name}" for owner, name in fields if name not in read]
    assert fields and not unread, "no reader: " + ", ".join(unread)
