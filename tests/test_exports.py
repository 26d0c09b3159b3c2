"""The export lists: every name a levymc module declares in ``__all__`` exists."""
import importlib

import pytest

MODULES = ["levymc", "levymc.cli", "levymc.levy_models", "levymc.measures", "levymc.pricing",
           "levymc.sampling", "levymc.special_fn"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert module.__all__ and not missing
