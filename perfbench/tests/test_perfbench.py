"""The benchmark's own checks: inputs, reference, failure and miss counting."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference as ref
import run
import tracer
import workloads as wl

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def small_pools(monkeypatch):
    for name in wl.POOL:
        monkeypatch.setitem(wl.POOL, name, 6)


@pytest.mark.parametrize("name", sorted(wl.POOLS))
def test_generators_are_deterministic_per_seed(small_pools, name):
    first = wl.POOLS[name](7)
    assert first == wl.POOLS[name](7)
    assert first["inputs"] != wl.POOLS[name](8)["inputs"]
    assert len(first["inputs"]) == len(first["refs"]) == 6


def test_cli_plan_is_a_seeded_rotation():
    plans = {seed: wl.cli_plan(ROOT / "src", seed) for seed in range(6)}
    assert plans[3] == wl.cli_plan(ROOT / "src", 3)
    for plan in plans.values():
        assert sorted(e["config"] for e in plan) == sorted(c for _, c, _ in wl.CLI_ROTATION)
        assert [e["exit"] for e in plan].count(2) == 1


def test_reference_reproduces_the_exact_integral_of_example_6_2():
    b = wl.EXAMPLE_6_2
    a, bb, c, _ = ref.bridge_coefficients(b["L"], b["EI"], b["EcAc"], b["n"], b["H"], b["Lc"])
    exact = ref.melan_exact(a, bb, c, b["L"], [50.0], p0=200.0 / b["EI"])
    assert exact.integral == pytest.approx(22.3181954109, abs=1e-10)
    assert exact.w[0] == pytest.approx(0.3486213, rel=1e-6)


def test_reference_envelope_matches_example_6_2():
    b = wl.EXAMPLE_6_2
    A, B = ref.load_envelope(b["L"], b["EI"], b["EcAc"], b["n"], b["H"], b["Lc"])
    assert A == pytest.approx(485.8, abs=0.05)
    assert B == pytest.approx(200.9, abs=0.05)


def test_reference_solves_the_linear_equation():
    # y = sin(pi x) on [0, 1] is hinged, has integral 2/pi, and solves
    # y'''' - M y'' + N*I = (pi^4 + M pi^2) sin(pi x) + 2N/pi.
    M, N = 3.0, 0.5
    xs = [0.0, 0.25, 0.5]
    exact = ref.linear_exact(M, N, 1.0, xs, c0=2 * N / math.pi,
                             amp=math.pi**4 + M * math.pi**2)
    sines = [math.sin(math.pi * x) for x in xs]
    assert exact.integral == pytest.approx(2 / math.pi, rel=1e-14)
    assert exact.w == pytest.approx(sines, rel=1e-14, abs=1e-30)
    assert exact.wpp == pytest.approx([-math.pi**2 * s for s in sines], rel=1e-14, abs=1e-30)


def test_design_sweep_bridges_pass_melan_positivity(small_pools):
    from melan import BridgeParams, applicability

    for inp in wl.design_sweep_pool(5)["inputs"]:
        report = applicability(BridgeParams(**inp["bridge"]))
        assert report.positivity.satisfied
        A, B = report.envelope_sine, report.envelope_const
        assert 0.0 < inp["p0"] <= B and 0.0 <= inp["amp"] <= A


def _exact(values, check_idx):
    return {"check_idx": np.asarray(check_idx), "w": list(values), "wpp": list(values),
            "integral": 1.0}


def test_corrupted_output_is_a_failure():
    idx = wl.check_indices(1001)
    y = np.sin(np.linspace(0.0, np.pi, 1001))
    tally = wl.Tally()
    tally.check("ok", y, y, _exact(y[idx], idx))
    assert tally.failed == 0
    bad = y.copy()
    bad[idx[7]] *= 1.0 + 10 * wl.TOL_W
    tally.check("off", bad, y, _exact(y[idx], idx))
    nan = y.copy()
    nan[3] = math.nan
    tally.check("nan", nan, y, _exact(y[idx], idx))
    summary = tally.summary()
    assert summary["failed"] == 2
    assert summary["reasons"] == {"error above tolerance": 1, "non-finite output": 1}


def test_corrupted_cli_output_counts_toward_failed(tmp_path):
    from melan.cli import main

    entry = next(e for e in wl.cli_plan(ROOT / "src", 0) if e["config"] == "example_2_2")
    good, bad = tmp_path / "good", tmp_path / "bad"
    for out in (good, bad):
        assert main(["solve-linear", "--config", "example_2_2", "--out", str(out)]) == 0
    csv = bad / "solution.csv"
    rows = csv.read_text().splitlines()
    x, y, ypp = rows[500].split(",")
    rows[500] = f"{x},{float(y) * 1.001!r},{ypp}"
    csv.write_text("\n".join(rows) + "\n")

    tally = wl.Tally()
    run._check_cli(entry, good, 0, tally)
    run._check_cli(entry, bad, 0, tally)
    run._check_cli(entry, good, 3, tally)
    summary = tally.summary()
    assert summary["attempted"] == 3
    assert summary["failed"] == 2


@pytest.mark.parametrize("grid, misses", [(1001, 1), (4001, 0)])
def test_cert_miss_detects_the_known_miss_at_grid_1001(grid, misses):
    from melan import BridgeParams, Constant, LoadSpec, solve_bridge

    b = wl.EXAMPLE_6_2
    a, bb, c, _ = ref.bridge_coefficients(b["L"], b["EI"], b["EcAc"], b["n"], b["H"], b["Lc"])
    exact = ref.melan_exact(a, bb, c, b["L"], [], p0=200.0 / b["EI"]).integral
    sol = solve_bridge(BridgeParams(**b), LoadSpec((Constant(200.0),)), grid_points=grid)
    mono = sol.monotone
    tally = wl.Tally()
    tally.bracket(mono.certified, mono.final_lower.integral, mono.final_upper.integral,
                  exact, mono.iterations)
    assert mono.certified
    assert tally.cert_miss == misses
    if grid == 1001:
        assert mono.final_lower.integral == pytest.approx(22.3181960003, abs=1e-10)
        assert mono.final_upper.integral == pytest.approx(22.3181964628, abs=1e-10)


def test_tracer_self_times_cover_the_call_and_uninstall_restores():
    import melan.monotone
    from melan import BridgeParams, Constant, LoadSpec, solve_bridge

    original = melan.monotone.solve_linear
    trace = tracer.Tracer()
    traced = trace.wrap(solve_bridge, "bridge.solve_bridge")
    trace.install()
    try:
        assert melan.monotone.solve_linear is not original
        start = tracer.perf_counter()
        traced(BridgeParams(**wl.EXAMPLE_6_2), LoadSpec((Constant(100.0),)), grid_points=201)
        wall = tracer.perf_counter() - start
    finally:
        trace.uninstall()
    assert melan.monotone.solve_linear is original
    summary = trace.summary()
    assert sum(summary["layer_self_s"].values()) == pytest.approx(wall, rel=0.05)
    assert summary["calls"]["linear.solve_linear"] == summary["calls"]["monotone.iterate_once"]
    assert summary["sampled_calls"] == summary["calls"]["linear.solve_linear"]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == list(wl.WHY.items())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert spec["paths"] == ["perfbench"]


def test_run_fails_without_the_melan_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "load-cases", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.xfail(reason="melan's affine closed form cancels for small sqrt(M)L; "
                          "linear-closed therefore draws constant + half-sine loads only")
def test_affine_load_is_accurate_in_the_soft_regime():
    from melan import Affine, LinearProblem, LoadSpec, solve_linear

    M, N, L = (0.01 / 25.0) ** 2, 0.0, 25.0
    idx = wl.check_indices(1001)
    exact = ref.linear_exact(M, N, L, [L * i / 1000 for i in idx], c1=1.0 / L)
    sol = solve_linear(LinearProblem(M, N, L, LoadSpec((Affine(0.0, 1.0 / L),))), 1001)
    err = np.max(np.abs(sol.y[idx] - exact.w)) / np.max(np.abs(exact.w))
    assert err < wl.TOL_W
