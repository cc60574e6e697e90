"""Every name a package exports resolves.

A name left in ``__all__`` after its code is deleted breaks no import and
no attribute access the suite makes; it breaks only ``from <package>
import *``.  So run exactly that, for ``repro`` and each subpackage.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)


def test_every_subpackage_is_listed():
    assert len(PACKAGES) > 10
    assert "repro.simkernel" in PACKAGES and "repro.rt" in PACKAGES


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_resolves_every_exported_name(package):
    module = importlib.import_module(package)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "a name is exported twice"
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(exported) <= set(namespace)
