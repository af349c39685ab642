"""Command-line interface: modes, bundled configs, exit codes, determinism."""

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import melan
from melan.cli import _write_curve, main


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# solve-linear


def test_solve_linear_bundled_benchmark(tmp_path):
    rc = main(["solve-linear", "--config", "example_2_1", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["max_abs_y"] == pytest.approx(0.035530618781420185, rel=1e-12)
    assert summary["midspan_y"] == pytest.approx(-0.035456651910221584, rel=1e-12)
    assert summary["regime"] == "unconditional"
    assert summary["residual"] < 1e-8
    header, rows = read_csv(tmp_path / "solution.csv")
    assert header == ["x", "y", "y_second_derivative"]
    assert len(rows) == summary["grid_points"] == 1001
    assert rows[0] == ["0", "0", "0"]


def test_solve_linear_second_benchmark(tmp_path):
    rc = main(["solve-linear", "--config", "example_2_2", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["max_abs_y"] == pytest.approx(0.6221525998101097, rel=1e-12)


@pytest.mark.parametrize("M", [1e-20, 1e-100])
def test_solve_linear_soft_regime_reaches_the_stiffless_limit(tmp_path, M):
    # unit load, N = L = 1: as M -> 0, y = (1 - I)*x(1 - x)(1 + x - x**2)/24
    # with I = zeta/(1 + zeta) = 1/121, so max |y| = (120/121)*(5/384)
    cfg = write_config(tmp_path / "soft.json", {"problem": {"M": M, "N": 1.0, "L": 1.0},
                                                "load": [{"type": "constant", "value": 1.0}]})
    assert main(["solve-linear", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["max_abs_y"] == pytest.approx(600.0 / 46464.0, rel=1e-12)
    assert summary["integral_y"] == pytest.approx(1.0 / 121.0, rel=1e-12)
    assert summary["residual"] < 1e-8


def test_solve_linear_deterministic_output(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    a_dir.mkdir()
    b_dir.mkdir()
    assert main(["solve-linear", "--config", "example_2_1", "--out", str(a_dir)]) == 0
    assert main(["solve-linear", "--config", "example_2_1", "--out", str(b_dir)]) == 0
    assert (a_dir / "solution.csv").read_bytes() == (b_dir / "solution.csv").read_bytes()


def test_write_curve_bytes_match_per_value_format(tmp_path):
    rng = np.random.default_rng(17)
    special = np.array(
        [0.0, -0.0, 1.0, -3.0, 2.0**53, 1e16, 5e-324, -5e-324, 1e300, -1e300, 0.1, 1 / 3]
    )
    grid = np.concatenate([special, rng.uniform(0.0, 100.0, 50)])
    y = np.concatenate(
        [special[::-1], rng.standard_normal(50) * 10.0 ** rng.integers(-300, 300, 50)]
    )
    ypp = np.concatenate([np.roll(special, 5), rng.standard_normal(50)])
    path = tmp_path / "curve.csv"
    _write_curve(path, grid, y, ypp)

    rows = [f"{xv:.17g},{yv:.17g},{pv:.17g}" for xv, yv, pv in zip(grid, y, ypp)]
    expected = "\n".join(["x,y,y_second_derivative"] + rows) + "\n"
    assert path.read_bytes() == expected.encode()
    # Every field reads back as the exact float, sign of zero included.
    header, fields = read_csv(path)
    assert header == ["x", "y", "y_second_derivative"]
    parsed = np.array(fields, dtype=float)
    assert parsed.tobytes() == np.column_stack((grid, y, ypp)).tobytes()


def test_solve_linear_empty_load(tmp_path):
    cfg = write_config(
        tmp_path / "empty.json",
        {
            "problem": {"M": 1.0, "N": 1.0, "L": 2.0},
            "load": [],
            "numerics": {"grid_points": 1001},
        },
    )
    rc = main(["solve-linear", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "solution.csv")
    assert len(rows) == 1001
    assert all(row[1] == "0" and row[2] == "0" for row in rows)


def test_grid_override(tmp_path):
    rc = main(["solve-linear", "--config", "example_2_1", "--grid", "501",
               "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["grid_points"] == 501
    _, rows = read_csv(tmp_path / "solution.csv")
    assert len(rows) == 501


# ---------------------------------------------------------------------------
# check


def test_check_certified_config(tmp_path):
    # the bundled short-span parameters, under the applicability mode
    cfg = write_config(
        tmp_path / "check62.json",
        {
            "mode": "check",
            "problem": {"L": 100.0, "EI": 4.557e8, "EcAc": 4121700.0,
                        "Lc": 103.2, "n": 1.0 / 9.0, "H": 19850.4},
        },
    )
    rc = main(["check", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"] == "certified-unique"
    assert report["N"] == pytest.approx(7.693776841665128e-09, rel=1e-10)
    names = {c["name"] for c in report["conditions"]}
    assert {"positivity", "necessary-b", "necessary-c", "sag-ratio"} <= names


def test_check_refused_config_exits_two(tmp_path):
    rc = main(["check", "--config", "example_6_1", "--out", str(tmp_path)])
    assert rc == 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"] == "not-applicable"
    assert report["M"] == pytest.approx(0.00012097841763675248, rel=1e-10)


# ---------------------------------------------------------------------------
# iterate


def test_iterate_bundled_config(tmp_path):
    rc = main(["iterate", "--config", "example_5_1", "--out", str(tmp_path)])
    assert rc == 0
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["status"] == "converged"
    assert trace["certified"] is True
    assert trace["iterations"] == 7
    assert trace["lambda"] == pytest.approx(np.pi / 4.0, rel=1e-12)
    assert trace["lower_maxima"][1] == pytest.approx(0.017964007135697395, rel=1e-9)
    assert trace["upper_maxima"][1] == pytest.approx(0.05277631810671728, rel=1e-9)
    assert trace["rho"] == pytest.approx(0.45747891806452123, rel=1e-9)
    # one curve file per iterate on each side
    lower = sorted(tmp_path.glob("lower_*.csv"))
    upper = sorted(tmp_path.glob("upper_*.csv"))
    assert len(lower) == len(trace["lower_maxima"])
    assert len(upper) == len(trace["upper_maxima"])
    # gap bounds decay geometrically and dominate the recorded gaps
    bounds = trace["gap_bounds"]
    gaps = trace["gaps"]
    assert all(g <= b + 1e-12 for g, b in zip(gaps, bounds))


def test_iterate_rejected_bracket_exits_three(tmp_path):
    # a load too large for the default bracket amplitude is a numerical
    # refusal, not a configuration error
    cfg = write_config(
        tmp_path / "tight.json",
        {
            "problem": {"a": 0.1, "b": 0.1, "c": 0.1, "L": 2.0},
            "load": [{"type": "constant", "value": 0.1}],
            "numerics": {"grid_points": 501},
        },
    )
    rc = main(["iterate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3


# ---------------------------------------------------------------------------
# bridge-report


def test_bridge_report_certified(tmp_path):
    rc = main(["bridge-report", "--config", "example_6_2", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"] == "certified-unique"
    assert report["additional_tension_kN"] == pytest.approx(7923.248010976623,
                                                            rel=1e-9)
    assert report["max_deflection_m"] == pytest.approx(0.3486213224031954,
                                                       rel=1e-9)
    assert report["iteration"]["certified"] is True
    assert (tmp_path / "deflection.csv").exists()


def test_bridge_report_forced_bundled_config(tmp_path):
    # the bundled long-span example carries force=true in its numerics and
    # demonstrates an uncertified run end to end
    rc = main(["bridge-report", "--config", "example_6_3", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"] == "not-applicable"
    assert report["iteration"]["status"] == "monotonicity-violation"
    assert report["iteration"]["certified"] is False
    assert report["max_deflection_m"] == pytest.approx(0.2687192436334864,
                                                       rel=1e-9)


# Per bundled config at --grid 1001: mode, exit code, and (status,
# iterations, certified) where the mode iterates.  A roundoff-level change
# to the sweeps must not move where an iteration stops or what it certifies.
BUNDLED_OUTCOMES = {
    "example_2_1": ("solve-linear", 0, None),
    "example_2_2": ("solve-linear", 0, None),
    "example_5_1": ("iterate", 0, ("converged", 7, True)),
    "example_6_1": ("check", 2, None),
    "example_6_2": ("bridge-report", 0, ("converged", 6, True)),
    "example_6_3": ("bridge-report", 0, ("monotonicity-violation", 8, False)),
}


@pytest.mark.parametrize("config", sorted(BUNDLED_OUTCOMES))
def test_bundled_config_outcome_is_pinned(tmp_path, config):
    mode, exit_code, outcome = BUNDLED_OUTCOMES[config]
    assert main([mode, "--config", config, "--grid", "1001", "--out", str(tmp_path)]) == exit_code
    if outcome is not None:
        if mode == "iterate":
            run = json.loads((tmp_path / "trace.json").read_text())
        else:
            run = json.loads((tmp_path / "report.json").read_text())["iteration"]
        assert (run["status"], run["iterations"], run["certified"]) == outcome


def test_bridge_report_refusal_exits_two(tmp_path):
    cfg = write_config(
        tmp_path / "refused.json",
        {
            "problem": {"L": 150.0, "EI": 4.557e8, "EcAc": 4121730.0,
                        "Lc": 163.2, "n": 0.2, "H": 16542.0},
            "load": [{"type": "constant", "value": 1.0}],
            "numerics": {"grid_points": 201},
        },
    )
    rc = main(["bridge-report", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2


def test_bridge_report_force_flag_downgrades_refusal(tmp_path):
    cfg = write_config(
        tmp_path / "forced.json",
        {
            "problem": {"L": 150.0, "EI": 4.557e8, "EcAc": 4121730.0,
                        "Lc": 163.2, "n": 0.2, "H": 16542.0},
            "load": [{"type": "constant", "value": 1.0}],
            "numerics": {"grid_points": 201, "max_iter": 60},
        },
    )
    rc = main(["bridge-report", "--config", cfg, "--force",
               "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"] == "not-applicable"
    assert report["iteration"]["certified"] is False


# ---------------------------------------------------------------------------
# configuration errors


def test_missing_config_file_exits_one(tmp_path):
    assert main(["solve-linear", "--config", str(tmp_path / "nope.json")]) == 1


def test_malformed_json_exits_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve-linear", "--config", str(bad)]) == 1


def test_non_utf8_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bin.json"
    bad.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(0x80, 0xC0)))
    assert main(["solve-linear", "--config", str(bad)]) == 1
    assert f"error: cannot read config {bad}" in capsys.readouterr().err


@pytest.mark.parametrize("route", ["flag", "config"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
def test_output_path_through_a_file_exits_one(tmp_path, capsys, route, below):
    # an existing file cannot be the output directory, nor contain one
    blocker = tmp_path / "taken"
    blocker.write_text("keep")
    out = blocker / "sub" if below else blocker
    blocks = {"output": {"dir": str(out)}} if route == "config" else {}
    flags = ["--out", str(out)] if route == "flag" else []
    cfg = write_config(tmp_path / "cfg.json", {"problem": LINEAR, "load": [], **blocks})
    assert main(["solve-linear", "--config", cfg, *flags]) == 1
    assert f"error: cannot create output directory {out}" in capsys.readouterr().err
    assert blocker.read_text() == "keep"


def test_mode_mismatch_exits_one(tmp_path):
    # bundled configs declare their mode; invoking another one is an error
    assert main(["iterate", "--config", "example_2_1",
                 "--out", str(tmp_path)]) == 1


def test_missing_required_field_exits_one(tmp_path):
    cfg = write_config(
        tmp_path / "incomplete.json",
        {"problem": {"M": 1.0, "L": 2.0}, "load": []},
    )
    assert main(["solve-linear", "--config", cfg, "--out", str(tmp_path)]) == 1


def test_unknown_load_type_exits_one(tmp_path):
    cfg = write_config(
        tmp_path / "badload.json",
        {
            "problem": {"M": 1.0, "N": 1.0, "L": 2.0},
            "load": [{"type": "sawtooth", "value": 1.0}],
        },
    )
    assert main(["solve-linear", "--config", cfg, "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize(
    "flags",
    [
        ["--grid", "1000"],
        ["--grid", "3"],
        ["--tol", "-1"],
        ["--tol", "inf"],
        ["--max-iter", "0"],
    ],
    ids=["even-grid", "tiny-grid", "negative-tol", "infinite-tol", "zero-max-iter"],
)
def test_bad_numerics_exit_one(tmp_path, flags):
    rc = main(["solve-linear", "--config", "example_2_1", *flags, "--out", str(tmp_path)])
    assert rc == 1
    assert not (tmp_path / "solution.csv").exists()


@pytest.mark.parametrize(
    "term",
    [
        {"type": "constant", "value": float("nan")},
        {"type": "sampled", "values": [0.0, float("inf"), 0.0]},
    ],
    ids=["nan-number", "infinite-sample"],
)
def test_non_finite_load_exits_one(tmp_path, term):
    # Python's json reads NaN and Infinity; they must not reach the solver
    cfg = write_config(
        tmp_path / "nonfinite.json",
        {"problem": {"M": 1.0, "N": 1.0, "L": 2.0}, "load": [term]},
    )
    assert main(["solve-linear", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "solution.csv").exists()


def test_non_finite_solution_exits_three(tmp_path):
    # sinh(rate*L) overflows; the solver must fail rather than write NaN rows
    cfg = write_config(
        tmp_path / "overflow.json",
        {
            "problem": {"M": 0.01, "N": 0.0, "L": 100.0},
            "load": [{"type": "sinh", "coef": 1.0, "rate": 8.0}],
        },
    )
    with np.errstate(all="ignore"):
        rc = main(["solve-linear", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3
    assert not (tmp_path / "solution.csv").exists()


SPAN_100 = {"L": 100.0, "EI": 4.557e8, "EcAc": 4121700.0, "Lc": 103.2,
            "n": 1.0 / 9.0, "H": 19850.4}


SPAN_150 = {"L": 150.0, "EI": 4.557e8, "EcAc": 4121730.0, "Lc": 163.2, "n": 0.2,
            "H": 16542.0}


SPAN_100_BEAM = {"L": 100.0, "EI": 4.557e8, "EcAc": 4121700.0}


LINEAR = {"M": 1.0, "N": 1.0, "L": 2.0}


GRID_11 = {"numerics": {"grid_points": 11}}


@pytest.mark.parametrize(
    "mode, problem, load, blocks, flags, code, message",
    [
        ("iterate", {"a": 0.1, "b": 0.1, "c": 0.1, "L": 2.0, "lambda": -1.0},
         [{"type": "constant", "value": 0.1}], {}, [], 1,
         "error: config field 'problem.lambda': "),
        ("check", {**SPAN_100, "EI": 1e-320}, [], {}, [], 1,
         "error: model coefficient a = inf overflows"),
        ("bridge-report", {**SPAN_100, "EcAc": 0.0},
         [{"type": "constant", "value": 100.0}], {}, ["--force"], 1,
         "error: the bridge data give no Melan problem: b must be positive"),
        # finite a and b whose sine-bracket M = a + 2*b*lam*L/pi overflows
        ("check", {"L": 1000, "EI": 1, "EcAc": 1e10, "n": 0.1, "H": 1e4, "Lc": 1e-300},
         [], {}, [], 1, "error: the sine bracket's coefficient M = inf overflows"),
        # zero tension or a flat cable is refused where the bridge is built
        ("check", {**SPAN_100_BEAM, "n": 0.11, "H": 0.0, "q": 10.0}, [], {}, [], 1,
         "error: H must be positive and finite, got 0.0"),
        ("check", {**SPAN_100_BEAM, "H": 19850.4, "q": 0.0, "Lc": 103.2}, [], {}, [], 1,
         "error: q must be positive and finite, got 0.0"),
        ("bridge-report", {**SPAN_100_BEAM, "H": 19850.4, "q": 0.0},
         [{"type": "constant", "value": 100.0}], {}, [], 1,
         "error: q must be positive and finite, got 0.0"),
        # psi = L**4 * Psi(z, x/L) leaves the float range
        ("solve-linear", {"M": 1e-300, "N": 0.0, "L": 1e100},
         [{"type": "constant", "value": 1.0}], {}, [], 3,
         "numerical failure: kernel profiles overflow at M = 1e-300, L = 1e+100"),
        # the positivity ratio N*L**5/(4*z**2*sigma(z)) overflows with z = 1e78
        ("check", {**SPAN_100_BEAM, "L": 1e80, "n": 1.0 / 9.0, "H": 19850.4}, [], {}, [], 1,
         "error: the positivity condition leaves the float range at span L = 1e+80 (lhs "
         "7.69371e-243, rhs 0, margin -inf)"),
        # the grid step L/10 underflows to 0, the sine term's L**2 and the sinh
        # term's rate**2 leave the float range, and sqrt(M)*L underflows to 0
        # under sinh_frac
        ("solve-linear", {"M": 1.0, "N": -1e-8, "L": 5e-324},
         [{"type": "constant", "value": 1.0}], GRID_11, [], 3,
         "numerical failure: the residual check is not finite (nan) at h = 0"),
        ("solve-linear", {"M": 1.0, "N": 0.1, "L": 1e-300},
         [{"type": "sine", "amplitude": 1.0}], GRID_11, [], 3,
         "numerical failure: a load term's closed form leaves the float range at L = 1e-300"),
        ("solve-linear", {"M": 1.0, "N": 0.1, "L": 1.0},
         [{"type": "sinh", "coef": 1.0, "rate": 1e308}], GRID_11, [], 3,
         "numerical failure: a load term's closed form leaves the float range"),
        ("solve-linear", {"M": 1e-10, "N": 0.0, "L": 5e-324},
         [{"type": "affine", "c0": 1.0, "c1": 1.0}], GRID_11, [], 3, "sqrt(M)*L = 0"),
        # EI/L**3 overflows the live-load envelope (the positivity bound is finite)
        ("check", {"L": 1.2e-8, "EI": 1e308, "EcAc": 6.4e-9, "H": 3.2e-4, "q": 244270.3},
         [], {}, [], 1, "error: the live-load envelope overflows (n = 1.14502, EI = 1e+308)"),
        # a forced live load whose term divided by EI overflows: c1/EI = 4.9e459
        ("bridge-report", {"L": 100.0, "EI": 2.04e-160, "EcAc": 1e-170, "n": 0.1, "H": 1e-164},
         [{"type": "affine", "c0": 0.0, "c1": 1e300}], {}, ["--force"], 1,
         "error: the live load over EI = 2.04e-160 is not finite: Affine.c1 must be finite, "
         "got inf"),
        # with c1 = 1.7e308 the load itself, c1*x, overflows on the span, but
        # the load is scaled first, and c1/EI is not finite
        ("bridge-report", {"L": 100.0, "EI": 2.04e-160, "EcAc": 1e-170, "n": 0.1, "H": 1e-164},
         [{"type": "affine", "c0": 0.0, "c1": 1.7e308}], {}, ["--force"], 1,
         "error: the live load over EI = 2.04e-160 is not finite"),
        # a refused bridge (span-150) must not be forced by a truthy string
        ("bridge-report", SPAN_150, [{"type": "constant", "value": 100.0}],
         {"numerics": {"force": "false"}}, [], 1,
         "error: config field 'numerics.force': expected true or false, got 'false'"),
        # sampled values follow the rule of every other number field
        ("solve-linear", LINEAR, [{"type": "sampled", "values": [1.0, True, 3.0]}], {}, [], 1,
         "error: config field 'load[0].values[1]': expected a number, got True"),
        ("solve-linear", LINEAR, [{"type": "sampled", "values": [1.0, 2.0, "3"]}], {}, [], 1,
         "error: config field 'load[0].values[2]': expected a number, got '3'"),
        ("solve-linear", LINEAR, [{"type": "sampled", "values": [1.0, 10**400, 3.0]}], {}, [],
         1, "error: config field 'load[0].values[1]': expected a finite number, got 1000"),
        # without --out the directory comes from the config
        ("solve-linear", LINEAR, [{"type": "constant", "value": 1.0}],
         {"output": {"dir": 123}}, [], 1,
         "error: config field 'output.dir': expected a path string, got 123"),
        # the positivity bound's true value leaves the float range: its rhs is
        # inf and its margin NaN, which standard JSON cannot hold
        ("iterate", {"a": 0.1, "b": 0.1, "c": 0.1, "L": 2.95e-64},
         [{"type": "sine", "amplitude": 0.1}], GRID_11, [], 3,
         "numerical failure: trace.json would hold a non-finite number"),
        # forced long runs: rho = 194.5, so the a-priori gap bound (L**2/4)*rho**n
        # passes the float range near sweep 135 and saturates to inf
        ("iterate", {"a": 0.001, "b": 10.0, "c": 1.0, "L": 10.0, "lambda": 1.0},
         [{"type": "constant", "value": 0.1}], {"numerics": {"max_iter": 1000}}, ["--force"],
         3, "numerical failure: trace.json would hold a non-finite number"),
        # L**2 = 4e308 at sweep 0, and the load's own linear solve, the first
        # lower sweep, leaves the float range
        ("iterate", {"a": 1.0, "b": 1e-12, "c": 1e-12, "L": 2e154},
         [{"type": "constant", "value": 1.0}], GRID_11, ["--force"], 3,
         "numerical failure: sweep 1 solves the load alone, and its linear solve leaves "
         "the float range at L = 2e+154"),
        # a 711 PiB grid, beyond any address space: numpy refuses it at once,
        # before anything is allocated, even where memory is overcommitted
        ("solve-linear", LINEAR, [{"type": "constant", "value": 1.0}], {},
         ["--grid", "100000000000000001"], 1,
         "error: not enough memory for this grid_points: Unable to allocate"),
    ],
    ids=["negative-lambda", "overflowing-coefficient", "no-cable-coupling",
         "overflowing-sine-bracket",
         "zero-tension", "flat-cable", "flat-cable-without-length", "overflowing-kernel",
         "overflowing-span-bound", "underflowing-coupling-bound",
         "underflowing-sine-term", "overflowing-sinh-rate", "underflowing-sinh-argument",
         "underflowing-sigma", "overflowing-scaled-load", "overflowing-load",
         "string-force", "boolean-sample",
         "string-sample",
         "overflowing-integer-sample", "numeric-output-dir", "non-finite-trace",
         "saturating-gap-bound", "overflowing-initial-gap-bound", "impossible-grid"],
)
def test_bad_input_exits_without_traceback(tmp_path, capsys, mode, problem, load,
                                           blocks, flags, code, message):
    cfg = write_config(tmp_path / "bad.json", {"problem": problem, "load": load, **blocks})
    out = tmp_path / "out"
    if "output" not in blocks:
        flags = ["--out", str(out), *flags]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the forced envelope refusal warns
        rc = main([mode, "--config", cfg, *flags])
    assert rc == code
    assert message in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("M, integral, peak", [(1e200, 1.0 / 12e200, 1.0 / 8e200),
                                               (1e-150, 1.0 / 120.0, 5.0 / 384.0)],
                         ids=["huge-M", "tiny-M"])
def test_extreme_coefficients_write_finite_files(tmp_path, M, integral, peak):
    # M = 1e200 squares beyond the float range and M = 1e-150 gives a
    # subnormal 12*M**2*sqrt(M), but y = psi and its integral zeta are finite
    cfg = write_config(tmp_path / "cfg.json", {"problem": {"M": M, "N": 0.0, "L": 1.0},
                                                "load": [{"type": "constant", "value": 1.0}]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve-linear", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["integral_y"] == pytest.approx(integral, rel=1e-12)
    assert summary["max_abs_y"] == pytest.approx(peak, rel=1e-12)


# ---------------------------------------------------------------------------
# console entry point


def child_env():
    # Children run in tmp_path, so the package path must be absolute.
    src = str(Path(melan.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "melan.cli", "solve-linear", "--config",
         "example_2_1", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=str(tmp_path),
        env=child_env(),
    )
    assert proc.returncode == 0
    assert "solve-linear: wrote" in proc.stdout
    assert (tmp_path / "summary.json").exists()


def test_overflowing_bracket_amplitude_exits_three_quietly(tmp_path):
    # lambda = 1e308 overflows the sine bound's curvature and sigma's x**3
    cfg = write_config(
        tmp_path / "huge.json",
        {"problem": {"a": 0.1, "b": 0.1, "c": 0.1, "L": 2.0, "lambda": 1e308},
         "load": [{"type": "constant", "value": 0.1}]},
    )
    proc = subprocess.run(
        [sys.executable, "-m", "melan.cli", "iterate", "--config", cfg, "--out",
         str(tmp_path / "out")],
        capture_output=True,
        text=True,
        cwd=str(tmp_path),
        env=child_env(),
    )
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("problem, load", [
    # h**2 underflows to 0, so the stencil divides by zero
    ({"M": 1.0, "N": 0.0, "L": 1e-300}, {"type": "constant", "value": 1.0}),
    # the solution is finite, but the stencil's sums overflow
    ({"M": 1.0, "N": 0.0, "L": 1.0}, {"type": "sampled", "values": [1e308] * 3}),
])
def test_non_finite_residual_exits_three_before_writing(tmp_path, problem, load):
    cfg = write_config(tmp_path / "cfg.json", {"problem": problem, "load": [load]})
    proc = subprocess.run(
        [sys.executable, "-m", "melan.cli", "solve-linear", "--config", cfg, "--out",
         str(tmp_path / "out")],
        capture_output=True,
        text=True,
        cwd=str(tmp_path),
        env=child_env(),
    )
    assert proc.returncode == 3
    assert not (tmp_path / "out" / "summary.json").exists()
    assert "Warning" not in proc.stderr


_IMPORT_GUARD = """
import sys
import melan.cli
assert "scipy" not in sys.modules, "import melan.cli loaded scipy"
import melan
assert "scipy" not in sys.modules, "import melan loaded scipy"
from melan import *
problem = LinearProblem(M=1.0, N=1.0, L=2.0, load=LoadSpec((Constant(-5.0),)))
sol = fd_solve_linear(problem, FdConfig(points=101))
assert "scipy.linalg" in sys.modules, "fd_solve_linear ran without scipy.linalg"
print(repr(float(abs(sol.y).max())))
"""


def test_scipy_loads_only_when_the_oracle_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD],
        capture_output=True,
        text=True,
        cwd=str(tmp_path),
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    # Benchmark B peaks at 0.62215...; the 101-point FD oracle is O(h^2) close.
    assert float(proc.stdout) == pytest.approx(0.6221525998101097, rel=1e-2)
