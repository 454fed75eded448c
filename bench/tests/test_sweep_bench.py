"""Tests of the sweep benchmark itself: row generation, the reference check,
the tracing harness, and a tiny configuration of every workload."""

import json
import time

import pytest

import check
import run
import tracing
import workloads
from gkpsim.cli import cmd_sweep


def test_same_seed_gives_same_rows():
    for name in workloads.WORKLOADS:
        assert workloads.rows_for_seed(name, 7) == workloads.rows_for_seed(name, 7)
        assert len(workloads.rows_for_seed(name, 7)) == len(workloads.WORKLOADS[name])
    seeds = range(20)
    assert len({tuple(map(workloads.point_id, workloads.rows_for_seed("float-box", s)))
                for s in seeds}) > 1


def test_every_menu_point_has_a_reference_and_slots_share_a_status():
    for name, slots in workloads.WORKLOADS.items():
        refs = check.load_references(name)
        assert set(refs) == {workloads.point_id(p) for p in workloads.menu(name)}
        for slot in slots:
            assert len({refs[workloads.point_id(p)]["seed_status"] for p in slot}) == 1
            assert all(refs[workloads.point_id(p)]["clear_of_tolerance"] for p in slot)


def test_reference_perturbed_beyond_tolerance_fails_the_row():
    point = workloads.FLOAT_BOX[1][2]  # envelope, 10 dB, S = 1
    entry = check.load_references("float-box")[workloads.point_id(point)]
    passes = [run.run_pass(cmd_sweep, [point])]
    assert run.row_verdicts(passes, [entry]) == [None]

    inf = float(entry["infidelity"])
    for factor in (1 + 10 * check.REL_TOL, 1 - 10 * check.REL_TOL):
        bad = dict(entry, infidelity=repr(inf * factor))
        [reasons] = run.row_verdicts(passes, [bad])
        assert reasons and "avg_gate_infidelity" in reasons[0]
    close = dict(entry, infidelity=repr(inf * (1 + check.REL_TOL / 10)))
    assert run.row_verdicts(passes, [close]) == [None]


def test_row_check_thresholds():
    header = "delta_db,nbar_est,noise_param,avg_gate_infidelity,tp_defect,min_choi_eig,smax_residual,is_baseline\n"
    entry = {"infidelity": "1e-5"}
    assert check.check_row(header + "10,4.5,0,1e-5,1e-12,-1e-12,0,0\n", entry) == []
    assert check.check_row(header + "10,4.5,0,1e-5,1e-8,0,0,0\n", entry)
    assert check.check_row(header + "10,4.5,0,1e-5,0,-1e-8,0,0\n", entry)
    assert check.check_row(header + "10,4.5,0,0,0,0,0,0\n", entry)


def test_raising_row_counts_as_failed():
    point = dict(workloads.FLOAT_BOX[1][2], noise="no-such-noise", noise_param=0.01)
    passes = [run.run_pass(cmd_sweep, [point])]
    assert passes[0]["error"][0].startswith("ValueError")
    [reasons] = run.row_verdicts(passes, [{"infidelity": "1"}])
    assert reasons[0].startswith("raised ValueError")


def test_printed_metrics_match_benchmark_json():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer_names = list(tracing.layer_metrics(tracing.Tracer())) + [
        "trace.sweep_s", "trace.overhead_frac", "fail_frac"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: run.layer_unit(n) for n in layer_names}


def test_wrappers_are_restored():
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in tracing.PATCHES]
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.patched(tracer):
            for owner, attr, original in originals:
                assert owner.__dict__[attr] is not original
            raise RuntimeError("leave the block early")
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original


def test_self_times_partition_the_root_span():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.01))
    with tracer.span("root"):
        inner()
        inner()
    spans = tracer.summary()
    calls, incl, self_s = spans["root"]
    assert calls == 1
    assert self_s == pytest.approx(incl - spans["inner"][1])
    assert spans["inner"][0] == 2 and spans["inner"][1] >= 0.02


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_configuration_of_each_workload(name):
    """The workload's first point at S = 0, untraced and traced, in seconds."""
    point = dict(workloads.WORKLOADS[name][0][0], smax=0)
    t0 = time.perf_counter()
    plain = run.run_pass(cmd_sweep, [point])
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        traced = run.run_pass(cmd_sweep, [point], tracer)
    assert time.perf_counter() - t0 < 60
    assert plain["error"] == [None] and traced["error"] == [None]
    assert plain["csv"] == traced["csv"]
    layers = tracing.layer_metrics(tracer)
    assert layers["logical.window_pairs"] == 1 + 9 ** 2
    assert layers["logical.box_calls"] + layers["logical.quad_calls"] == (1 + 81) * (
        64 if name == "dephasing" else 1)
    assert layers["cli.row_unattributed_s"] >= 0


def test_last_pass_stops_at_a_row_boundary():
    def fake_sweep(cfg, out):
        out.write(f"{cfg['delta_db'][0]}\n")

    rows = [dict(workloads.FLOAT_BOX[1][0], delta_db=db) for db in (6, 8, 10)]
    full = run.run_pass(fake_sweep, rows)
    assert full["csv"] == ["6\n", "8\n", "10\n"]
    cut = run.run_pass(fake_sweep, rows, deadline=time.perf_counter() + 1.5, expected=[0.0, 1.0, 2.0])
    assert cut["csv"] == ["6\n", "8\n"]
    none = run.run_pass(fake_sweep, rows, deadline=time.perf_counter(), expected=[1.0, 1.0, 1.0])
    assert none["csv"] == []

    passes = [{"wall": [1.0, 2.0, 3.0]}, {"wall": [3.0, 4.0]}, {"wall": [2.0]}]
    assert run.slot_medians(passes, "wall") == [2.0, 3.0, 3.0]
