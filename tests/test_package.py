"""The package namespace: every name the five library modules export, and no command line."""
import os
import subprocess
import sys
from pathlib import Path

import levymc
from levymc import levy_models, measures, pricing, sampling, special_fn

LIBRARY_MODULES = [levy_models, measures, pricing, sampling, special_fn]


def test_package_exports_are_the_library_modules_exports_in_order():
    assert levymc.__all__ == [name for module in LIBRARY_MODULES for name in module.__all__]
    for module in LIBRARY_MODULES:
        assert all(getattr(levymc, name) is getattr(module, name) for name in module.__all__)
    from levymc import QuadratureError
    assert QuadratureError is special_fn.QuadratureError


def test_fresh_import_leaves_the_cli_and_scipy_special_unloaded():
    code = "import sys, levymc; print(sorted(m for m in ('levymc.cli', 'scipy.special') if m in sys.modules))"
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout == "[]\n"
