"""The public names: every module's __all__ and the package's exports resolve."""

import types

import pytest

import qfcontrol
from qfcontrol import cli, control, core, measurement, simulate, synthesis

MODULES = [core, measurement, control, synthesis, simulate, cli]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_name_in_all_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_exports_come_from_module_all():
    """qfcontrol re-exports only names that its modules list in __all__."""
    listed = set().union(*(module.__all__ for module in MODULES))
    public = [name for name, value in vars(qfcontrol).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert public
    assert [name for name in public if name not in listed] == []
