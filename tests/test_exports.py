"""Every name a spidersim module exports in __all__ exists, so a deletion
cannot leave a dangling export behind."""

import pkgutil

import pytest

import spidersim


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(spidersim.__path__)))
def test_star_import_resolves_every_exported_name(name):
    exec(f"from spidersim.{name} import *", {})  # AttributeError on a dangling export
