"""Every public name a module lists resolves.

``__all__`` is only read by ``from module import *``, which no other
test does, so a name deleted from a module but left in its ``__all__``
(or in a package's re-export list) would go unnoticed.  This imports
every module of the package and checks each list.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.name != "repro.__main__"  # runs the CLI on import
) + ["repro"]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"
    repeated = sorted({entry for entry in exported if exported.count(entry) > 1})
    assert not repeated, f"{name}.__all__ lists {repeated} more than once"
