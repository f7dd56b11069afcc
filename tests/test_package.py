"""Package surface: the exported names and what an import pulls in."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import debye_limit

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
