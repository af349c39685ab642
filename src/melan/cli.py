"""Command-line interface: four workflows over JSON configs.

    melan <mode> --config PATH [--grid N] [--tol X] [--max-iter K]
                 [--force] [--out DIR]

Modes: solve-linear, check, iterate, bridge-report.  Configs are JSON with
four blocks — problem, load, numerics, output — documented in the README;
the six bundled example configs double as usage documentation.  All
quantities are in kN and m.  Curves are emitted as CSV (columns x, y,
y_second_derivative, 17 significant digits, byte-identical across runs),
reports as JSON.

Exit codes: 0 success; 1 configuration error; 2 a certification condition
refused the run (and force was not given); 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from importlib import resources
from pathlib import Path
from typing import List, Optional

import numpy as np

from .bridge import ApplicabilityReport, BridgeParams, applicability, solve_bridge
from .criteria import ConditionReport
from .errors import ConfigError, EnvelopeViolation, MelanError, NotApplicable
from .linear import LinearProblem, residual, solve_linear
from .loads import Affine, Constant, Cubic, LoadSpec, Sampled, SineHalfWave, SinhTerm
from .monotone import MelanProblem, MonotoneVerdict, iterate_melan

__all__ = ["main"]


# ---------------------------------------------------------------------------
# Config ingestion


def _fail(field: str, message: str) -> ConfigError:
    return ConfigError(f"config field '{field}': {message}")


def _finite(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(field, f"expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, infinities, ints beyond float range
        raise _fail(field, f"expected a finite number, got {value!r}")
    return float(value)


def _number(block: dict, field: str, path: str, required: bool = True) -> Optional[float]:
    if field not in block:
        if required:
            raise _fail(f"{path}.{field}", "missing required number")
        return None
    return _finite(block[field], f"{path}.{field}")


def _integer(block: dict, field: str, path: str, default: int) -> int:
    if field not in block:
        return default
    value = block[field]
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(f"{path}.{field}", f"expected an integer, got {value!r}")
    return value


# Closed-form load terms: config tag -> (class, its numeric fields in order).
_TERMS = {
    "constant": (Constant, ("value",)),
    "affine": (Affine, ("c0", "c1")),
    "sine": (SineHalfWave, ("amplitude",)),
    "cubic": (Cubic, ("c3",)),
    "sinh": (SinhTerm, ("coef", "rate")),
}


def _load_term(entry: dict, index: int):
    path = f"load[{index}]"
    if not isinstance(entry, dict) or "type" not in entry:
        raise _fail(path, "each load term must be an object with a 'type' tag")
    tag = entry["type"]
    if isinstance(tag, str) and tag in _TERMS:
        cls, fields = _TERMS[tag]
        return cls(*(_number(entry, name, path) for name in fields))
    if tag == "sampled":
        values = entry.get("values")
        if not isinstance(values, list) or not values:
            raise _fail(f"{path}.values", "expected a non-empty list of numbers")
        try:
            return Sampled([_finite(v, f"{path}.values[{j}]") for j, v in enumerate(values)])
        except ValueError as exc:
            raise _fail(f"{path}.values", str(exc)) from exc
    raise _fail(f"{path}.type", f"unknown load term type {tag!r}")


def _parse_load(config: dict) -> LoadSpec:
    entries = config.get("load", [])
    if not isinstance(entries, list):
        raise _fail("load", "expected a list of term objects")
    if not entries:
        return LoadSpec((Constant(0.0),))
    try:
        return LoadSpec(tuple(_load_term(e, i) for i, e in enumerate(entries)))
    except ValueError as exc:
        raise _fail("load", str(exc)) from exc


def _problem_block(config: dict) -> dict:
    block = config.get("problem")
    if not isinstance(block, dict):
        raise _fail("problem", "missing required object")
    return block


def _bridge_params(config: dict) -> BridgeParams:
    block = _problem_block(config)
    return BridgeParams(
        L=_number(block, "L", "problem"),
        EI=_number(block, "EI", "problem"),
        EcAc=_number(block, "EcAc", "problem"),
        n=_number(block, "n", "problem", required=False),
        H=_number(block, "H", "problem", required=False),
        q=_number(block, "q", "problem", required=False),
        Lc=_number(block, "Lc", "problem", required=False),
    )


def _resolve_config_path(name: str) -> str:
    """A real path wins; otherwise fall back to the bundled example configs."""
    candidate = Path(name)
    if candidate.is_file():
        return str(candidate)
    bundle = resources.files("melan") / "configs" / name
    if bundle.is_file():
        return str(bundle)
    if not name.endswith(".json"):
        bundle = resources.files("melan") / "configs" / f"{name}.json"
        if bundle.is_file():
            return str(bundle)
    raise ConfigError(f"config file not found: {name}")


def _read_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error in {path} at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config root must be an object, got {type(config).__name__}")
    return config


# ---------------------------------------------------------------------------
# Emission


def _write_curve(path: Path, grid: np.ndarray, y: np.ndarray, ypp: np.ndarray) -> None:
    # One %-format over the row-major values: the same bytes as formatting
    # each value with f"{v:.17g}", without a Python-level loop over rows.
    values = np.column_stack((grid, y, ypp)).ravel().tolist()
    body = "%.17g,%.17g,%.17g\n" * len(grid) % tuple(values)
    path.write_text("x,y,y_second_derivative\n" + body)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _applicability_payload(report: ApplicabilityReport) -> dict:
    """The blocks report.json shares between check and bridge-report."""
    return {
        "coefficients": {"a": report.a, "b": report.b, "c": report.c},
        "physical": {
            "n": report.n, "q_over_H": report.qh, "H": report.H,
            "q": report.q, "Lc": report.Lc,
        },
        "lambda": report.lam,
        "envelope": {"sine": report.envelope_sine, "const": report.envelope_const},
        "conditions": [asdict(r) for r in report.reports],
        "verdict": report.verdict,
    }


def _print_reports(reports: List[ConditionReport], stream) -> None:
    width = max(len(r.name) for r in reports)
    for r in reports:
        mark = "ok " if r.satisfied else "FAIL"
        rel = "<" if r.strict else "<="
        print(
            f"  {r.name:<{width}}  {mark}  {r.lhs:.6g} {rel} {r.rhs:.6g}"
            f"  (margin {r.margin:+.3g})",
            file=stream,
        )


def _out_dir(config: dict, args) -> Path:
    out = args.out
    if out is None:
        block = config.get("output", {})
        if not isinstance(block, dict):
            raise _fail("output", "expected an object")
        out = block.get("dir", ".")
        if not isinstance(out, str):
            raise _fail("output.dir", f"expected a path string, got {out!r}")
    out = Path(out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _numerics(config: dict, args) -> dict:
    block = config.get("numerics", {})
    if not isinstance(block, dict):
        raise _fail("numerics", "expected an object")
    grid = args.grid if args.grid is not None else _integer(block, "grid_points", "numerics", 1001)
    max_iter = (
        args.max_iter if args.max_iter is not None
        else _integer(block, "max_iter", "numerics", 100)
    )
    tol = args.tol if args.tol is not None else _number(block, "tol", "numerics", required=False)
    # The residual check of solve-linear needs at least 7 grid points.
    if grid < 7 or grid % 2 == 0:
        raise _fail("numerics.grid_points", f"expected an odd integer >= 7, got {grid}")
    if tol is not None and not (tol > 0.0 and np.isfinite(tol)):
        raise _fail("numerics.tol", f"expected a positive finite number, got {tol}")
    if max_iter < 1:
        raise _fail("numerics.max_iter", f"expected an integer >= 1, got {max_iter}")
    force = block.get("force", False)
    if not isinstance(force, bool):
        raise _fail("numerics.force", f"expected true or false, got {force!r}")
    return {"grid_points": grid, "max_iter": max_iter, "tol": tol, "force": args.force or force}


# ---------------------------------------------------------------------------
# Modes


def _run_solve_linear(config: dict, args) -> int:
    block = _problem_block(config)
    load = _parse_load(config)
    try:
        problem = LinearProblem(
            M=_number(block, "M", "problem"),
            N=_number(block, "N", "problem"),
            L=_number(block, "L", "problem"),
            load=load,
        )
    except ValueError as exc:
        raise _fail("problem", str(exc)) from exc
    num = _numerics(config, args)
    out = _out_dir(config, args)

    sol = solve_linear(problem, grid_points=num["grid_points"])
    res = residual(sol, problem)
    _write_curve(out / "solution.csv", sol.grid, sol.y, sol.ypp)
    summary = {
        "M": problem.M,
        "N": problem.N,
        "L": problem.L,
        "grid_points": num["grid_points"],
        "regime": sol.regime,
        "max_abs_y": float(np.max(np.abs(sol.y))),
        "midspan_y": float(sol.y[len(sol.y) // 2]),
        "integral_y": sol.integral_y,
        "residual": res,
    }
    _write_json(out / "summary.json", summary)
    print(f"solve-linear: wrote {out / 'solution.csv'}")
    print(
        f"  max |y| = {summary['max_abs_y']:.8g}, integral = "
        f"{summary['integral_y']:.8g}, residual = {res:.3g}"
    )
    return 0


def _run_check(config: dict, args) -> int:
    bp = _bridge_params(config)
    num = _numerics(config, args)
    out = _out_dir(config, args)
    report = applicability(bp)

    payload = _applicability_payload(report)
    payload.update(M=report.M, N=report.N)
    _write_json(out / "report.json", payload)

    print(f"check: verdict {report.verdict}")
    print(
        f"  a = {report.a:.6g}, b = {report.b:.6g}, c = {report.c:.6g}"
        f"  (M = {report.M:.6g}, N = {report.N:.6g})"
    )
    print(
        f"  envelope: p(x) <= {report.envelope_sine:.6g}*sin(pi*x/L)"
        f" + {report.envelope_const:.6g} kN/m"
    )
    _print_reports(report.reports, sys.stdout)
    if report.verdict == "not-applicable" and not num["force"]:
        return 2
    return 0


def _trace_payload(verdict: MonotoneVerdict) -> dict:
    def maxima(iterates):
        return [float(np.max(np.abs(it.y))) for it in iterates]

    return {
        "M": verdict.pair.M,
        "N": verdict.pair.N,
        "lambda": verdict.pair.lam,
        "rho": verdict.pair.rho,
        "status": verdict.status,
        "iterations": verdict.iterations,
        "certified": verdict.certified,
        "final_gap": verdict.final_gap,
        "gap_bounds": list(verdict.gap_bounds),
        "gaps": list(verdict.gaps),
        "lower_maxima": maxima(verdict.lower),
        "upper_maxima": maxima(verdict.upper),
        "positivity": asdict(verdict.pair.positivity),
        "uniqueness": asdict(verdict.pair.uniqueness),
        "warnings": list(verdict.warnings),
    }


def _write_trace_curves(out: Path, verdict: MonotoneVerdict) -> None:
    for side, iterates in (("lower", verdict.lower), ("upper", verdict.upper)):
        for k, it in enumerate(iterates):
            _write_curve(out / f"{side}_{k}.csv", verdict.pair.grid, it.y, it.ypp)


def _run_iterate(config: dict, args) -> int:
    block = _problem_block(config)
    load = _parse_load(config)
    try:
        problem = MelanProblem(
            a=_number(block, "a", "problem"),
            b=_number(block, "b", "problem"),
            c=_number(block, "c", "problem"),
            L=_number(block, "L", "problem"),
            load=load,
        )
    except ValueError as exc:
        raise _fail("problem", str(exc)) from exc
    lam = _number(block, "lambda", "problem", required=False)
    if lam is not None and lam < 0.0:
        raise _fail("problem.lambda", f"expected a nonnegative number, got {lam!r}")
    num = _numerics(config, args)
    out = _out_dir(config, args)

    verdict = iterate_melan(
        problem,
        lam=lam,
        grid_points=num["grid_points"],
        max_iter=num["max_iter"],
        tol=num["tol"],
        strict=not num["force"],
    )
    _write_trace_curves(out, verdict)
    _write_json(out / "trace.json", _trace_payload(verdict))
    print(
        f"iterate: {verdict.status} after {verdict.iterations} sweeps"
        f" (gap {verdict.final_gap:.6g}, rho {verdict.pair.rho:.4g},"
        f" certified {verdict.certified})"
    )
    return 0


def _run_bridge_report(config: dict, args) -> int:
    bp = _bridge_params(config)
    load = _parse_load(config)
    num = _numerics(config, args)
    out = _out_dir(config, args)

    result = solve_bridge(
        bp,
        load,
        grid_points=num["grid_points"],
        max_iter=num["max_iter"],
        tol=num["tol"],
        force=num["force"],
    )
    report = result.report
    payload = _applicability_payload(report)
    payload.update(
        additional_tension_kN=result.h_w,
        max_deflection_m=float(np.max(np.abs(result.deflection.y))),
        iteration=_trace_payload(result.monotone),
    )
    _write_json(out / "report.json", payload)
    deflection = result.deflection
    _write_curve(out / "deflection.csv", deflection.grid, deflection.y, deflection.ypp)
    _write_trace_curves(out, result.monotone)

    print(f"bridge-report: verdict {report.verdict}")
    _print_reports(report.reports, sys.stdout)
    print(
        f"  iteration {result.monotone.status} after"
        f" {result.monotone.iterations} sweeps; max deflection"
        f" {payload['max_deflection_m']:.6g} m; additional tension"
        f" {result.h_w:.6g} kN"
    )
    return 0


# ---------------------------------------------------------------------------
# Entry point


_RUNNERS = {
    "solve-linear": _run_solve_linear,
    "check": _run_check,
    "iterate": _run_iterate,
    "bridge-report": _run_bridge_report,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="melan",
        description="Deflection solvers and certification checks for "
        "cable-coupled beam models (units: kN, m).",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in _RUNNERS:
        p = sub.add_parser(mode)
        p.add_argument("--config", required=True, help="JSON config path or bundled name")
        p.add_argument("--grid", type=int, default=None, help="override numerics.grid_points")
        p.add_argument("--tol", type=float, default=None, help="override numerics.tol")
        p.add_argument("--max-iter", type=int, default=None, help="override numerics.max_iter")
        p.add_argument("--force", action="store_true", help="downgrade refusals to warnings")
        p.add_argument("--out", default=None, help="output directory (default: config or cwd)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        path = _resolve_config_path(args.config)
        config = _read_config(path)
        declared = config.get("mode")
        if declared is not None and declared != args.mode:
            raise ConfigError(
                f"config declares mode {declared!r} but was invoked as {args.mode!r}"
            )
        return _RUNNERS[args.mode](config, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NotApplicable, EnvelopeViolation) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except MelanError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
