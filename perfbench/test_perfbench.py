"""Tests of the benchmark itself: workloads, seeds, checks and tracing.

Experiments are shortened to a few simulated seconds so the file runs in
seconds; the full-length workloads run only under ``run.py``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hostspeed
import run
import tracing
import workloads
from pacsim import experiment, trajectories

HERE = Path(__file__).resolve().parent
CONFIGS = HERE.parent / "configs"
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def short(wl: workloads.Workload, duration: float = 2.0) -> workloads.Workload:
    """The workload with every experiment cut to ``duration`` seconds and no rule-count floor."""
    return dataclasses.replace(
        wl,
        spec=dataclasses.replace(wl.spec, min_final_rules=0),
        configs=[dataclasses.replace(cfg, duration=duration) for cfg in wl.configs],
    )


def current_targets() -> dict:
    return {(path, attr): tracing._lookup(path, attr)[1] for path, attr, _, _ in tracing.TARGETS}


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_seed_zero_runs_suite_configs_verbatim(name):
    wl = workloads.load(name, 0, CONFIGS)
    suite = workloads._suite_experiments(CONFIGS, wl.spec.suite)
    assert wl.configs == [experiment.ExperimentConfig.from_dict(suite[n]) for n in wl.spec.experiments]
    assert workloads.load(name, 0, CONFIGS).digests() == wl.digests()


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
@pytest.mark.parametrize("seed", [1, 7, 123])
def test_seed_scales_levels_and_shifts_onsets_within_range(name, seed):
    base = workloads.load(name, 0, CONFIGS)
    wl = workloads.load(name, seed, CONFIGS)
    k = wl.level_scale
    assert abs(k - 1.0) <= workloads.LEVEL_SPREAD and k != 1.0
    assert abs(wl.time_shift_s) <= workloads.TIME_SHIFT_S
    assert math.isclose(wl.time_shift_s / base.configs[0].dt, round(wl.time_shift_s / base.configs[0].dt), abs_tol=1e-9)
    assert workloads.load(name, seed, CONFIGS).digests() == wl.digests()
    assert wl.digests() != base.digests()
    for cfg0, cfg in zip(base.configs, wl.configs):
        ref0, ref = trajectories.from_config(cfg0.trajectory), trajectories.from_config(cfg.trajectory)
        for t in (0.0, 7.3, 25.0, 61.7, 99.9):
            assert math.isclose(ref(t), k * ref0(t), rel_tol=1e-12, abs_tol=1e-12)
        for kind, params in cfg0.disturbances.items():
            for key, value in params.items():
                moved = cfg.disturbances[kind][key]
                if key in workloads._ONSET_FIELDS:
                    assert math.isclose(moved, max(0.0, value + wl.time_shift_s))
                else:
                    assert moved == value


def test_seeds_differ_and_unknown_workload_is_rejected():
    assert workloads.load("hexa_rules", 1, CONFIGS).level_scale != workloads.load("hexa_rules", 2, CONFIGS).level_scale
    with pytest.raises(ValueError):
        workloads.load("no_such_workload", 0, CONFIGS)


@pytest.mark.parametrize("seed", [0, 5])
def test_hexa_rules_still_grows_tens_of_rules(seed):
    wl = workloads.load("hexa_rules", seed, CONFIGS)
    cfg = dataclasses.replace(wl.configs[0], duration=30.0)
    assert experiment.run_experiment(cfg).controller.rule_count >= 10


@pytest.mark.xfail(
    reason="the gust field is indexed by penetration distance, which a hovering "
    "vehicle never accumulates: the wind stays exactly 0 at every seed",
    strict=False,
)
@pytest.mark.parametrize("seed", [0, 5])
def test_bif_gust_gust_is_active(seed):
    wl = short(workloads.load("bif_gust", seed, CONFIGS), duration=6.0)
    tracer = tracing.Tracer()
    with tracer.installed():
        workloads.run_once(wl)
    assert tracer.spans["plants.gust"].work > 0


def test_passes_check_logs_and_compare(tmp_path):
    wl = short(workloads.load("hexa_altitude", 2, CONFIGS))
    rep = workloads.run_once(wl, tmp_path)
    assert rep.problems == []
    assert (rep.attempted, rep.failed) == (len(wl.configs) + len(wl.spec.pairs), 0)
    assert rep.steps == sum(cfg.n_steps for cfg in wl.configs)
    assert rep.write_bytes > 0
    assert list(tmp_path.iterdir()) == []  # the temporary log directory is gone


def test_readback_check_catches_a_changed_value(tmp_path):
    cfg = short(workloads.load("hexa_altitude", 0, CONFIGS)).configs[1]
    result = experiment.run_experiment(cfg, out_dir=tmp_path)
    back = experiment.read_step_csv(tmp_path / f"{cfg.name}_steps.csv")
    assert workloads._check_readback(result, cfg, back) == []
    back["y"][5] = math.nextafter(back["y"][5], math.inf)
    assert workloads._check_readback(result, cfg, back) == [f"{cfg.name}: column 'y' differs after read-back"]
    back["y"][5] += 0.5
    assert len(workloads._check_readback(result, cfg, back)) == 2  # the column and the metrics


def test_rule_floor_fails_the_experiment():
    wl = workloads.load("hexa_rules", 0, CONFIGS)
    wl = dataclasses.replace(wl, configs=[dataclasses.replace(wl.configs[0], duration=1.0)])
    rep = workloads.run_once(wl)
    assert (rep.attempted, rep.failed) == (1, 1)
    assert "final rules" in rep.problems[0]


def test_wrappers_are_installed_then_removed():
    before = current_targets()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert len(tracing.wrapped_targets()) == len(tracing.TARGETS)
    assert tracing.wrapped_targets() == []
    assert current_targets() == before
    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("boom")
    assert current_targets() == before
    assert tracer.missing == []


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_untraced_pass_runs_the_originals_and_tracing_keeps_numerics(name, tmp_path):
    wl = short(workloads.load(name, 3, CONFIGS))
    originals = current_targets()
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = workloads.run_once(wl, tmp_path)
    assert current_targets() == originals
    calls = sum(s.calls for s in tracer.spans.values())
    plain = workloads.run_once(wl, tmp_path)
    assert calls > 0
    assert sum(s.calls for s in tracer.spans.values()) == calls  # nothing traced the plain pass
    assert plain.problems == traced.problems == []
    assert (plain.rmse, plain.final_rules, plain.grows, plain.prunes) == (
        traced.rmse,
        traced.final_rules,
        traced.grows,
        traced.prunes,
    )


def test_child_self_times_nest_inside_parent_spans(tmp_path):
    wl = short(workloads.load("hexa_altitude", 0, CONFIGS))
    tracer = tracing.Tracer()
    root = tracer.wrap(workloads.run_once, "root")
    with tracer.installed():
        root(wl, tmp_path)
    spans = tracer.spans
    for name, s in spans.items():
        assert -1e-9 <= s.self_s <= s.total_s + 1e-12, name
    # self times partition the root span exactly
    assert math.isclose(sum(s.self_s for s in spans.values()), spans["root"].total_s, rel_tol=1e-9)
    run = spans["experiment.run"].total_s
    assert spans["plants.rigid_body_step"].total_s <= spans["plants.step"].total_s <= run
    children = ("palm.network_output", "controller.adapt_weights", "evolution.bias_variance", "evolution.detect")
    assert sum(spans[c].total_s for c in children) <= spans["controller.step"].total_s
    assert spans["experiment.write_outputs"].total_s <= run


def test_layer_metrics_cover_every_named_metric(tmp_path):
    wl = short(workloads.load("hexa_altitude", 0, CONFIGS))
    tracer = tracing.Tracer()
    with tracer.installed():
        rep = workloads.run_once(wl, tmp_path)
    m = tracing.layer_metrics(tracer.spans, [rep], 0.1, 1.0)
    steps = rep.steps
    assert m["palm.calls"]["value"] >= steps / 2  # both PAC runs call the network every step
    assert m["palm.rule_evals"]["value"] >= m["palm.calls"]["value"]
    assert m["experiment.write_bytes"]["value"] == rep.write_bytes
    assert 0.0 < m["plants.share"]["value"] < 1.0
    assert all(v["value"] >= 0.0 for k, v in m.items() if k != "trace.overhead")


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "hexa_rules", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_reported_names_match_benchmark_json():
    rep = workloads.Rep(wall_s=1.0, sim_s=0.5, steps=10, attempted=1, rmse=[0.5], final_rules=3)
    assert list(run.end_to_end([rep], [1.0], [0.1], 1.0)) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(tracing.layer_metrics({}, [rep], 0.0, 1.0)) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.SPECS)


def test_host_slowness_averages_the_samples_inside_an_interval(tmp_path):
    host = hostspeed.HostSpeed(tmp_path / "log.txt")
    ref = hostspeed.REFERENCE_S
    host.samples = [(0.0, ref), (1.0, 1.0 + 2 * ref), (2.0, 2.0 + 4 * ref)]
    assert host.slowness(0.5, 3.0) == pytest.approx(3.0)
    assert host.slowness(-1.0, 3.0) == pytest.approx(7.0 / 3.0)
    assert host.slowness(1.1, 1.2) == pytest.approx(2.0)  # no sample inside: the nearest one


def test_host_sampler_records_and_stops(tmp_path):
    with hostspeed.HostSpeed(tmp_path / "log.txt") as host:
        proc = host._proc
        time.sleep(3 * hostspeed.PERIOD_S)
    assert proc.poll() is not None
    assert len(host.samples) >= 1
    assert all(b > a for a, b in host.samples)
    assert list(tmp_path.iterdir()) == []
