import importlib

import pytest


@pytest.mark.parametrize("name", [
    "trap4phish", "trap4phish.analyzers", "trap4phish.containers", "trap4phish.ml",
    "trap4phish.qr", "trap4phish.synth",
])
def test_every_export_resolves(name):
    package = importlib.import_module(name)
    assert [export for export in package.__all__ if not hasattr(package, export)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(package.__all__) <= set(namespace)
