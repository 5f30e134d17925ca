"""Tests of the benchmark harness itself (outside the tier-1 testpaths).

    PYTHONPATH=src python -m pytest -q perfbench
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import artifact as af  # noqa: E402
import recorder  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

# test_10's case: two bumps, three stages
TINY = wl.SweepSpec(n=513, r_max=30.0, sigma=(1, 2), schedule=(1.0, 10.0, 100.0),
                    frozen={})


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    state, _ = wl.setup_sweep(TINY, str(tmp_path_factory.mktemp("tiny")))
    records = af.continuation(state.profile, state.assignment,
                              state.config.solver_config())
    spec = dataclasses.replace(TINY, frozen={r.beta: r.energy for r in records})
    return state, spec, records


def _checks(spec, profile, records):
    return {o.op: o.failed_checks for o in wl.check_sweep(spec, profile, records)}


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_traced_counts_repeat_and_names_are_restored(tiny):
    state = tiny[0]
    original = af.grid.solve_tridiag
    counts = []
    for _ in range(2):
        rec = recorder.Recorder()
        with rec:
            assert af.solver.solve_tridiag is not original
            wl.run_sweep(state)
        assert rec.absent == []
        counts.append(dict(rec.counters))
        assert af.solver.solve_tridiag is original
        assert af.grid.solve_tridiag is original
    assert counts[0] == counts[1]
    assert counts[0]["solver.continuation.calls"] == 1
    assert counts[0]["cli.write_stage.calls"] >= 1
    steps = counts[0]["solver.coupled_newton.steps"]
    assert steps == (counts[0].get("solver.coupled_newton.in_continuation.steps", 0)
                     + counts[0].get("solver.coupled_newton.in_newton_refine.steps", 0))


def test_layer_metrics_are_per_iteration():
    rec = recorder.Recorder()
    rec.counters.update({"solver.coupled_newton.steps": 20,
                         "solver.residual_components.calls": 200,
                         "grid.h1_inner.calls": 7})
    rec.self_s["grid.h1_inner"] = 3.0
    values = {k: v["value"] for k, v in run.layer_metrics(rec, 2, 8.0).items()}
    assert values.keys() == run.PER_LAYER.keys()
    assert values["solver.coupled_newton.steps"] == 10
    assert values["grid.h1_inner.calls"] == 3.5
    assert values["grid.h1_inner.self_s"] == 1.5
    assert values["solver.residual_per_step"] == 10.0
    assert values["trace.wall_s"] == 4.0


def test_self_time_excludes_children():
    rec = recorder.Recorder(layers=("grid.h1_inner", "grid.h1_norm_sq"))
    grid = af.build_grid(2, 257, 10.0)
    u = np.exp(-grid.nodes**2)
    with rec:
        for _ in range(200):
            af.grid.h1_norm_sq(grid, u)
    assert rec.counters["grid.h1_norm_sq.calls"] == 200
    assert rec.counters["grid.h1_inner.calls"] == 200
    total = rec.total_s["grid.h1_norm_sq"]
    assert rec.self_s["grid.h1_norm_sq"] == pytest.approx(
        total - rec.total_s["grid.h1_inner"])


def test_missing_layer_is_reported_absent():
    rec = recorder.Recorder(layers=("grid.no_such_function", "grid.h1_inner"))
    with rec:
        pass
    assert rec.absent == ["grid.no_such_function"]


def test_unbroken_tiny_sweep_passes_its_checks(tiny):
    state, spec, records = tiny
    checks = _checks(spec, state.profile, records)
    passed = {op for op, c in checks.items() if not c}
    assert passed == {f"beta={r.beta:g}" for r in records if r.accepted}


def _first_accepted(records):
    return next(i for i, r in enumerate(records) if r.accepted)


def _zero_interior_node(rec):
    pulses = rec.ensemble.pulses.copy()
    support = np.flatnonzero(pulses[0] > 0)
    pulses[0, support[support.size // 2]] = 0.0
    ens = dataclasses.replace(rec.ensemble, pulses=pulses)
    return dataclasses.replace(rec, ensemble=ens)


BREAKAGES = {
    "frozen_energy": lambda r: dataclasses.replace(r, energy=r.energy * (1 + 1e-5)),
    "positivity": _zero_interior_node,
    "residual": lambda r: dataclasses.replace(r, residual=2e-8),
    "lambda_unit": lambda r: dataclasses.replace(
        r, lambda_bar=np.asarray(r.lambda_bar) * (1 + 2e-6)),
    "energy_bound": lambda r: dataclasses.replace(r, energy=r.energy + 1e3),
    "accepted": lambda r: dataclasses.replace(r, accepted=False),
}


@pytest.mark.parametrize("check", sorted(BREAKAGES))
def test_each_stage_check_fires(tiny, check):
    state, spec, records = tiny
    i = _first_accepted(records)
    broken = list(records)
    broken[i] = BREAKAGES[check](records[i])
    checks = _checks(spec, state.profile, broken)
    assert check in checks[f"beta={records[i].beta:g}"]


def test_energy_monotone_fires(tiny):
    state, spec, records = tiny
    last = records[-1]
    broken = records[:-1] + [dataclasses.replace(last, energy=records[-2].energy - 1e-3)]
    spec = dataclasses.replace(spec, frozen={})
    assert "energy_monotone" in _checks(spec, state.profile, broken)[f"beta={last.beta:g}"]


def test_missing_stage_names_its_cause(tiny):
    state, spec, records = tiny
    message = f"stage beta={records[0].beta:g} failed: gradient norm 3.13e+03"
    out = wl.check_sweep(spec, state.profile, records[1:], [message])
    assert out[0].failed_checks == ["missing"] and out[0].detail == message


def test_only_known_defects_keep_the_result_correct():
    def outs(**checks):
        return [wl.Outcome(op, list(c)) for op, c in checks.items()]

    known = {"beta=1": ["missing"], "beta=10": [], "beta=10000": ["positivity"]}
    assert wl.unexplained("sweep-ref", [outs(**known), outs(**known)]) == []
    fixed = dict(known, **{"beta=10000": []})
    assert wl.unexplained("sweep-ref", [outs(**fixed)]) == []
    for broken in ({"beta=10": ["frozen_energy"]}, {"beta=1": ["positivity"]},
                   {"beta=10000": ["positivity", "residual"]}):
        assert wl.unexplained("sweep-ref", [outs(**dict(known, **broken))])
    assert wl.unexplained("sweep-ref", [outs(**known), outs(**fixed)])
    assert wl.unexplained("sweep-dense", [outs(**{"beta=100": ["positivity"]})])
    assert wl.unexplained("profile-routes", [outs(**{"N=2,h=5,shooting": ["raised"]})])


def test_interleaving_fires_on_a_wrong_order(tiny):
    state, _, records = tiny
    rec = records[-1]
    U = rec.ensemble.components(rec.lambda_bar)
    grid = rec.ensemble.grid
    assert wl.interleaving_follows_sigma(grid, U, (1, 2))
    assert not wl.interleaving_follows_sigma(grid, U, (2, 1))
    assert not wl.interleaving_follows_sigma(grid, U, (1, 2, 1))


def test_profile_checks_fire():
    case = wl.ProfileCase(2, 3, 1025, 30.0, 100.0)
    dr = 0.03

    def results(c_part, c_shot, shift=0.0):
        return {"partition": SimpleNamespace(c_value=c_part, node_radii=(3.0, 6.0)),
                "shooting": SimpleNamespace(c_value=c_shot,
                                            node_radii=(3.0, 6.0 + shift))}

    def failed(res, errors=None):
        return {o.op.split(",")[-1]: o.failed_checks
                for o in wl.check_profile_case(case, dr, res, errors or {})}

    assert failed(results(100.0, 100.0)) == {"partition": [], "shooting": []}
    assert failed(results(100.0 * (1 + 1e-5), 100.0))["partition"] == ["c_infinity_frozen"]
    assert "routes_agree" in failed(results(100.0, 100.02))["partition"]
    assert failed(results(100.0, 100.0, shift=3 * dr))["shooting"] == ["node_radii"]
    res = results(100.0, 100.0)
    del res["shooting"]
    out = failed(res, {"shooting": "NewtonDivergence: stalled"})
    assert out == {"partition": [], "shooting": ["raised"]}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
