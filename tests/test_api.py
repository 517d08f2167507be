"""Every name a module exports resolves."""
from __future__ import annotations

import importlib

import pytest

MODULES = ["flowrelay", "flowrelay.cli", "flowrelay.dynamics",
           "flowrelay.events", "flowrelay.expr", "flowrelay.geometry",
           "flowrelay.periodic", "flowrelay.relay"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert missing == []
