import pytest

import pacsim
import pacsim.plants


@pytest.mark.parametrize("module", [pacsim, pacsim.plants], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    # a name deleted from a module but left in its export list would break ``import *``
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert len(set(module.__all__)) == len(module.__all__)
