"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench
"""

import json
import re
from pathlib import Path

import pytest

import run

run.import_ottospin()

import checks  # noqa: E402
import ottospin  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_smoke_run(name):
    record = run.run_workload(name, seed=3, seconds=0.0, trace=False, tiny=True)
    assert record["correct"], record["failures"]
    assert record["attempted"] >= 1 and record["failed"] == 0
    assert set(record["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in record["metrics"].values())


def test_tiny_traced_run_reports_every_layer_metric():
    record = run.run_workload("cycle-sample", seed=3, seconds=0.0, trace=True, tiny=True)
    assert record["correct"], record["failures"]
    assert set(record["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert record["metrics"]["kernels.rk4_propagate.calls"]["value"] == 2
    assert record["metrics"]["otto.trace_cycle.calls"]["value"] == 1
    assert 0.9 < record["metrics"]["trace.coverage"]["value"] <= 1.0


def test_wrong_result_and_exception_count_as_failed_ops(monkeypatch, tmp_path):
    workload = workloads.make("long-ramp", seed=5, tiny=True, workdir=tmp_path)
    calls = []
    original = workload.run

    def flaky(inp):
        calls.append(inp)
        if len(calls) == 1:
            raise RuntimeError("injected")
        if len(calls) == 2:
            return "not a number"
        return original(inp) + 1e-6  # wrong beyond the 1e-8 reference tolerance

    monkeypatch.setattr(workload, "run", flaky)
    with checks.Checker() as checker:
        timed = run.measure(workload, seconds=0.5, checker=checker)
    assert len(timed["untraced"]) == len(calls) >= 3
    assert len(timed["failures"]) == len(calls)
    assert "RuntimeError: injected" in timed["failures"][0]
    assert "TypeError" in timed["failures"][1]
    assert "CheckFailed" in timed["failures"][2]
    assert not any(ok for _, _, ok in timed["untraced"])


def _frequency_blind_stage_coefficients(monkeypatch):
    """A coefficient cache keyed on (tau, steps, direction) that ignores the
    frequencies: every propagation of a cached drive time reuses another
    protocol's propagator, which is unitary and internally consistent."""
    original = ottospin._kernels.stage_coefficients
    cache = {}

    def cached(nu_cold, nu_hot, tau, steps, direction):
        key = (tau, steps, direction)
        if key not in cache:
            cache[key] = original(nu_cold, nu_hot, tau, steps, direction)
        return cache[key]

    monkeypatch.setattr(ottospin._kernels, "stage_coefficients", cached)
    return cache


def test_stale_xi_counts_as_failed_op_on_cycle_sample(monkeypatch, tmp_path):
    workload = workloads.make("cycle-sample", seed=7, tiny=True, workdir=tmp_path)
    inp = next(workload.rounds())[0]
    _frequency_blind_stage_coefficients(monkeypatch)
    # Fill the cache at the operation's drive time from other frequencies.
    ottospin.trace_cycle(ottospin.ReservoirSpec.from_population(1500.0, 0.2),
                         ottospin.ReservoirSpec.from_population(8000.0, 0.8),
                         ottospin.RampProtocol(1500.0, 8000.0, inp[4], inp[5]))
    monkeypatch.setattr(workload, "rounds", lambda: iter([[inp]]))
    with checks.Checker() as checker:
        timed = run.measure(workload, seconds=0.0, checker=checker)
    # The closed form at the stale xi still matches the trace; only the
    # oracle comparison of xi catches it.
    assert len(timed["failures"]) == 1, timed["failures"]
    assert "trace_cycle: xi" in timed["failures"][0] and "DOP853" in timed["failures"][0]


def test_stale_xi_counts_as_failed_op_on_sweep_suite(monkeypatch):
    cache = _frequency_blind_stage_coefficients(monkeypatch)
    # The canary fills the cache at the drive times the timed operation reuses.
    record = run.run_workload("sweep-suite", seed=3, seconds=0.0, trace=False, tiny=True)
    assert cache
    assert record["attempted"] == record["failed"] == 1, record["failures"]
    assert "xi-tau tau" in record["failures"][0] and "DOP853" in record["failures"][0]
    assert not record["correct"]


def test_self_time_on_nested_and_overlapping_spans():
    spans = [
        ("op", 0, 100, -1, 0),
        ("a", 10, 40, 0, 0),
        ("b", 30, 60, 0, 0),  # overlaps a
        ("a.child", 15, 20, 1, 0),
        ("c", 90, 120, 0, 0),  # runs past its parent's end
    ]
    assert tracing.self_times(spans) == [40, 25, 30, 5, 30]
    totals, op_wall, op_covered = tracing.aggregate(spans)
    assert (op_wall, op_covered) == (100, 60)
    assert totals["a"] == {"calls": 1, "busy_ns": 30, "self_ns": 25}


def test_wrappers_reach_every_binding_site_and_come_off():
    import ottospin.analysis
    import ottospin.cli
    import ottospin.otto
    import ottospin.verify

    sites = [(ottospin.otto, "propagate"), (ottospin.analysis, "transition_probability"),
             (ottospin.cli, "transition_probability"), (ottospin.verify, "propagate"),
             (ottospin.propagator, "propagate"), (ottospin._kernels, "rk4_propagate"),
             (ottospin.cli, "region_map"), (ottospin, "trace_cycle")]
    before = [getattr(module, attr) for module, attr in sites]
    post_init = ottospin.DensityMatrix.__post_init__
    uninstall = tracing.install(tracing.Tracer())
    try:
        for (module, attr), original in zip(sites, before):
            assert getattr(module, attr).__wrapped__ is original, (module.__name__, attr)
        assert ottospin.DensityMatrix.__post_init__.__wrapped__ is post_init
    finally:
        uninstall()
    assert [getattr(module, attr) for module, attr in sites] == before
    assert ottospin.DensityMatrix.__post_init__ is post_init


def test_counters_take_keyword_arguments_and_never_replace_the_outcome():
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        proto = ottospin.RampProtocol(2000.0, 3600.0, 200e-6, 64)
        u = ottospin.propagator.propagate(proto=proto, direction="compression")
        e01, e10, dt = ottospin._kernels.stage_coefficients(
            nu_cold=2000.0, nu_hot=3600.0, tau=200e-6, steps=64, direction="expansion")
        ottospin._kernels.rk4_propagate(e01=e01, e10=e10, dt=dt, steps=64)
        tracer.counters.observe = lambda *a: 1 / 0
        assert ottospin.propagator.propagate(proto).direction == "expansion"
    finally:
        uninstall()
    assert u.direction == "compression"
    assert tracer.counters.protocols == {(proto, "compression")}
    assert tracer.counters.steps == 2 * 64
    assert tracer.counters.bytes_computed == 2 * 2 * (2 * 64 + 1) * 16
    assert [e.split(":")[0] for e in tracer.counters.errors] == [
        "_kernels.stage_coefficients", "_kernels.rk4_propagate", "propagator.propagate"]


def test_metric_names_and_units():
    layer = tracing.layer_metrics([], tracing.Counters(), 1.0)
    declared_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared_layer == {name: unit for name, (_, unit) in layer.items()}
    declared_e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared_e2e == run.END_TO_END_UNITS
    for name, unit in {**declared_layer, **declared_e2e, **run.REPORT_UNITS}.items():
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert UNIT.fullmatch(unit), (name, unit)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)


def test_canary_that_differs_from_its_reference_fails_the_run(monkeypatch):
    original = workloads.RegionGrid.canary_outputs

    def mislabelled(self):
        outputs = original(self)
        outputs["region.csv"] = outputs["region.csv"].replace("EngineSubOtto", "NotEngine", 1)
        return outputs

    monkeypatch.setattr(workloads.RegionGrid, "canary_outputs", mislabelled)
    record = run.run_workload("region-grid", seed=3, seconds=0.0, trace=False, tiny=True)
    assert not record["correct"] and record["failed"] == 0
    assert any(line.startswith("canary region.csv") for line in record["failures"])
