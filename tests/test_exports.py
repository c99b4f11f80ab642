import importlib
import inspect
import pkgutil

import pytest

import pacsim
import pacsim.plants


@pytest.mark.parametrize("module", [pacsim, pacsim.plants], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    # a name deleted from a module but left in its export list would break ``import *``
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize(
    "name",
    [
        "pacsim.controller",
        "pacsim.evolution",
        "pacsim.pid",
        "pacsim.trajectories",
        "pacsim.experiment",
        "pacsim.plants.disturbances",
        "pacsim.plants.rigid_body",
    ],
)
def test_float_step_modules_import_no_numpy(name):
    # a step runs on Python floats: nothing in these modules converts between arrays and floats
    module = importlib.import_module(name)
    held = [key for key, value in vars(module).items() if inspect.ismodule(value) and value.__name__.split(".")[0] == "numpy"]
    assert held == []


def test_only_the_experiment_module_reads_yaml():
    # a config file has one reader, pacsim.experiment.read_suite; every other module takes configs from it
    names = [info.name for info in pkgutil.walk_packages(pacsim.__path__, "pacsim.")]
    assert "pacsim.cli" in names
    held = [
        name
        for name in names
        if any(inspect.ismodule(value) and value.__name__ == "yaml" for value in vars(importlib.import_module(name)).values())
    ]
    assert held == ["pacsim.experiment"]
