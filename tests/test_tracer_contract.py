"""The contract between pacsim and the perfbench tracer.

``perfbench/tracing.py`` times pacsim by replacing the module and class
attributes named in its ``TARGETS``. A refactor that calls one of them
another way (through a local name, or not at all) leaves its span empty
without failing anything else, so here each target must record a call.
The tracer is loaded read-only from its file; nothing under ``perfbench/``
is written.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from pacsim import experiment, stats

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _config(suite: str, name: str, seconds: float):
    cfg = next(cfg for cfg in experiment.read_suite(ROOT / "configs" / suite) if cfg.name == name)
    return dataclasses.replace(cfg, duration=seconds)


def _residuals(cols) -> np.ndarray:
    return np.abs(np.asarray(cols["y_r"]) - np.asarray(cols["y"]))


def test_every_tracer_target_records_a_call(tracing, tmp_path, monkeypatch):
    # each call goes through the module attribute, where the tracer has put its wrapper; check_grow and
    # check_prune share one span, so each target gets a span of its own here and a bypass of one shows
    targets = [(path, attr, f"{path}.{attr}", work) for path, attr, _, work in tracing.TARGETS]
    monkeypatch.setattr(tracing, "TARGETS", targets)
    tracer = tracing.Tracer()
    with tracer.installed():
        logs = []
        for name in ("hexa_sos_pac", "hexa_sos_pid"):
            experiment.run_experiment(_config("hexacopter_suite.yaml", name, 5.0), out_dir=tmp_path)
            logs.append(experiment.read_step_csv(tmp_path / f"{name}_steps.csv"))
        experiment.run_experiment(_config("bifwmav_suite.yaml", "bif_constant_disturbed_pac", 5.0))
        stats.wilcoxon_signed_rank(*map(_residuals, logs))
    assert tracer.missing == []
    assert tracing.wrapped_targets() == []  # the originals are back
    assert [span for _, _, span, _ in tracing.TARGETS if tracer.spans[span].calls == 0] == []
