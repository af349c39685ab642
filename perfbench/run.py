"""Benchmark for certified deflections: four seeded closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds src/melan.  Workloads (the reason
for each is in workloads.WHY):

  cli-configs    one fresh `python -m melan.cli` process per request, the
                 six bundled configs in a fixed rotation, one child at a time
  design-sweep   solve_bridge on a new seeded bridge per request, grid 3001
  load-cases     solve_bridge on one bridge (example_6_2), seeded loads, grid 1001
  linear-closed  check_smallness + check_positivity + solve_linear, grid 1001

Each workload is one caller that waits for every request before sending the
next.  Library workloads run in a fresh worker process (worker.py), so each
has its own peak RSS; run.py generates the inputs, computes their exact
references in mpmath (reference.py), and takes peak RSS from os.wait4.
Every output is checked against its reference; a request fails on an
exception, an unexpected exit code, a non-finite number, or an error above
workloads.TOL_W (deflection) / TOL_WPP (curvature).

--trace 0 prints the end-to-end metrics; --trace 1 runs S/2 seconds untraced
and S/2 seconds with spans at every layer boundary (tracer.py) and prints the
per-layer metrics.  The last line of stdout is the JSON result; the lines
before it give the run record and every metric with its unit, including
failed_frac and cert_miss_frac, which are zero on some workloads and so are
not bounded metrics (failures are the result's `failed` count).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

SETUP_SAMPLES = 7
# The whole run must end well inside 180 s; children are killed past this.
WATCHDOG_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("defl_err_rel", "ratio"),
    ("curv_err_rel", "ratio"),
)

# Self times are milliseconds per request and calls are calls per request,
# over the traced half of the run.  cli.import_ms is the median import time
# of melan (melan.cli for cli-configs) in the fresh set-up processes;
# cli.interpreter_ms is the start-up and exit of each traced CLI child.
# linear.solve_linear.peak_alloc_mb comes from one extra library request
# under tracemalloc (CLI children are not run under it, so it reads 0).
# trace.overhead_frac compares traced with untraced mean request time, and
# trace.unaccounted_frac is the share of traced request time that no span,
# import or interpreter time covers.
PER_LAYER = (
    ("cli.import_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("cli.bytes_out", "bytes"),
    ("cli.interpreter_ms", "ms"),
    ("bridge.self_ms", "ms"),
    ("bridge.solve_bridge.self_ms", "ms"),
    ("bridge.applicability.self_ms", "ms"),
    ("monotone.self_ms", "ms"),
    ("monotone.run_monotone.self_ms", "ms"),
    ("monotone.iterate_once.self_ms", "ms"),
    ("monotone.iterate_once.calls", "count"),
    ("monotone.sweeps", "count"),
    ("monotone.cert_miss_frac", "ratio"),
    ("linear.self_ms", "ms"),
    ("linear.solve_linear.self_ms", "ms"),
    ("linear.solve_linear.calls", "count"),
    ("linear.solve_linear.peak_alloc_mb", "MB"),
    ("linear.sampled_share", "ratio"),
    ("kernel.self_ms", "ms"),
    ("kernel.psi.self_ms", "ms"),
    ("kernel.gm_row_integral.self_ms", "ms"),
    ("kernel.zeta.self_ms", "ms"),
    ("criteria.self_ms", "ms"),
    ("criteria.calls", "count"),
    ("loads.self_ms", "ms"),
    ("loads.evaluate.self_ms", "ms"),
    ("loads.Sampled.self_ms", "ms"),
    ("loads.Sampled.calls", "count"),
    ("quadrature.self_ms", "ms"),
    ("quadrature.calls", "count"),
    ("trace.request_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unaccounted_frac", "ratio"),
)

_children = []


def _on_watchdog(signum, frame):
    raise TimeoutError(f"benchmark run exceeded {WATCHDOG_S} s")


def _spawn(argv, **kwargs) -> subprocess.Popen:
    proc = subprocess.Popen(argv, env=_child_env(), cwd=str(ROOT), **kwargs)
    _children.append(proc)
    return proc


def _reap(proc: subprocess.Popen):
    """Wait for `proc`; return (exit code, peak RSS in MB) from os.wait4."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    _children.remove(proc)
    return proc.returncode, usage.ru_maxrss / 1024.0


def _stop_children() -> None:
    for proc in list(_children):
        proc.kill()
        proc.wait()
        _children.remove(proc)


def _child_env() -> dict:
    # An absolute path: children run with their own working directory and
    # the package is not installed.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def _worker(rundir: Path, workload: str, seconds: float = 0.0, trace: int = 0,
            setup_only: bool = False):
    """Start worker.py; return (process, seconds from spawn to its ready line, import s).

    The caller reads the rest of the worker's stdout: one `record <json>` line.
    """
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--dir", str(rundir), "--seconds", repr(seconds), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    start = perf_counter()
    proc = _spawn(argv, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = perf_counter() - start
    if not line.startswith("ready "):
        proc.stdout.read()
        code, _ = _reap(proc)
        raise RuntimeError(f"{workload} worker exited with code {code} before set-up finished")
    return proc, ready, float(line.split()[1])


def _record_line(proc: subprocess.Popen) -> dict:
    rest = proc.stdout.read()
    return json.loads(rest.partition("record ")[2] or "{}")


def _setup_samples(rundir: Path, workload: str, count: int):
    """Set-up time and import time of `count` fresh setup-only processes, and their record."""
    setups, imports = [], []
    for _ in range(count):
        proc, ready, import_s = _worker(rundir, workload, setup_only=True)
        record = _record_line(proc)
        code, _ = _reap(proc)
        if code != 0:
            raise RuntimeError(f"set-up process exited with code {code}")
        setups.append(ready)
        imports.append(import_s)
    return setups, imports, record


def run_library(rundir: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    pool = wl.POOLS[workload](seed)
    refs = pool.pop("refs")
    (rundir / "inputs.json").write_text(json.dumps(pool))
    (rundir / "refs.json").write_text(json.dumps(refs))

    proc, ready, import_s = _worker(rundir, workload, seconds, trace)
    record = _record_line(proc)
    code, rss = _reap(proc)
    if code != 0:
        raise RuntimeError(f"{workload} worker exited with code {code}")
    result = json.loads((rundir / "result.json").read_text())
    setups, imports, _ = _setup_samples(rundir, workload, SETUP_SAMPLES - 1)
    result.update(setups=[ready] + setups, imports=[import_s] + imports, peak_rss_mb=rss,
                  bytes_out=0, record=record)
    return result


# ---------------------------------------------------------------------------
# cli-configs: this process is the caller; each request is a child process.


def _finite_json(path: Path):
    """Parsed JSON file, or None when any number in it is NaN or infinite."""
    bad = []
    data = json.loads(path.read_text(), parse_constant=lambda c: bad.append(c))
    return None if bad else data


def _curve(path: Path):
    import numpy as np

    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _check_cli(entry: dict, out: Path, code: int, tally: wl.Tally) -> None:
    """Check one CLI request's exit code and files against the config's reference."""
    tally.attempted += 1
    if code != entry["exit"]:
        tally.fail(f"exit code {code} for {entry['config']}")
        return
    mode, exact = entry["mode"], entry["ref"]
    try:
        if mode == "solve-linear":
            if _finite_json(out / "summary.json") is None:
                tally.fail("non-finite output")
                return
            sol = _curve(out / "solution.csv")
            tally.check(entry["config"], sol[:, 1], sol[:, 2], exact)
            return
        name = "trace.json" if mode == "iterate" else "report.json"
        report = _finite_json(out / name)
        if report is None:
            tally.fail("non-finite output")
            return
        if mode == "check":
            if report["verdict"] != "not-applicable":
                tally.fail(f"verdict {report['verdict']} for {entry['config']}")
            return
        it = report if mode == "iterate" else report["iteration"]
        k = it["iterations"]
        lower, upper = _curve(out / f"lower_{k}.csv"), _curve(out / f"upper_{k}.csv")
        if exact is None:
            # Forced run on an uncertified bridge: no accuracy claim to check.
            if it["certified"]:
                tally.fail(f"forced run certified for {entry['config']}")
            elif not all(map(math.isfinite, _curve(out / "deflection.csv").ravel())):
                tally.fail("non-finite output")
            tally.bracket(False, 0.0, 0.0, 0.0, k)
            return
        length = float(lower[-1, 0])
        tally.bracket(it["certified"], wl.simpson(lower[:, 1], length),
                      wl.simpson(upper[:, 1], length), exact["integral"], k)
        if mode == "iterate":
            tally.check(entry["config"], 0.5 * (lower[:, 1] + upper[:, 1]),
                        0.5 * (lower[:, 2] + upper[:, 2]), exact)
        else:
            sol = _curve(out / "deflection.csv")
            tally.check(entry["config"], sol[:, 1], sol[:, 2], exact)
    except (OSError, KeyError, ValueError) as exc:
        tally.fail(f"missing or malformed output: {type(exc).__name__}")


def _cli_loop(rundir: Path, plan: list, seconds: float, traced: bool, tally: wl.Tally,
              stats: dict) -> list:
    latencies = []
    spent = 0.0
    i = 0
    # Whole rotations only: the configs fall into a faster and a slower
    # half, so a part rotation would move the median between the halves.
    while spent < seconds or i % len(plan):
        entry = plan[i % len(plan)]
        out = rundir / f"req-{'t' if traced else 'u'}{i}"
        if traced:
            argv = [sys.executable, str(HERE / "cli_child.py")]
        else:
            argv = [sys.executable, "-m", "melan.cli"]
        argv += [entry["mode"], "--config", entry["config"], "--out", str(out)]
        start = perf_counter()
        proc = _spawn(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        code, rss = _reap(proc)
        end = perf_counter()
        latencies.append(end - start)
        spent += latencies[-1]
        stats["peak_rss_mb"] = max(stats["peak_rss_mb"], rss)
        _check_cli(entry, out, code, tally)
        if traced:
            child = json.loads((out / "_trace.json").read_text())
            for key in ("self_s", "calls"):
                for name, value in child[key].items():
                    stats[key][name] = stats[key].get(name, 0) + value
            stats["sampled_calls"] += child["sampled_calls"]
            stats["import_s"] += child["import_s"]
            stats["interpreter_s"] += (child["started"] - start) + (end - child["finished"])
            (out / "_trace.json").unlink()
        stats["bytes_out"] += sum(f.stat().st_size for f in out.iterdir())
        # A fresh directory per request: rewriting existing files costs a
        # filesystem-dependent flush that would swamp the CLI's own time.
        shutil.rmtree(out)
        i += 1
    return latencies


def run_cli(rundir: Path, seed: int, seconds: float, trace: int) -> dict:
    import tracer

    plan = wl.cli_plan(SRC, seed)
    (rundir / "inputs.json").write_text(json.dumps({"plan": plan}))
    setups, imports, record = _setup_samples(rundir, "cli-configs", SETUP_SAMPLES)
    tally = wl.Tally()
    stats = {"peak_rss_mb": 0.0, "bytes_out": 0, "self_s": {}, "calls": {},
             "sampled_calls": 0, "import_s": 0.0, "interpreter_s": 0.0}
    result = {"setups": setups, "imports": imports, "record": record}
    if not trace:
        result["latencies"] = _cli_loop(rundir, plan, seconds, False, tally, stats)
    else:
        result["latencies"] = _cli_loop(rundir, plan, seconds / 2, False, tally, stats)
        stats["bytes_out"] = 0
        result["traced_latencies"] = _cli_loop(rundir, plan, seconds / 2, True, tally, stats)
        result["trace"] = {**tracer.by_layer(stats["self_s"], stats["calls"]),
                           "sampled_calls": stats["sampled_calls"], "peak_alloc": 0,
                           "import_s": stats["import_s"],
                           "interpreter_s": stats["interpreter_s"]}
    result.update(peak_rss_mb=stats["peak_rss_mb"], tally=tally.summary(),
                  bytes_out=stats["bytes_out"])
    return result


# ---------------------------------------------------------------------------
# Metrics and report.


def _latency(latencies: list) -> dict:
    ms = sorted(v * 1e3 for v in latencies)
    p90 = statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0]
    return {"p50": statistics.median(ms), "p90": p90,
            "beyond_p90": sum(1 for v in ms if v > p90), "count": len(ms)}


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def end_to_end(result: dict) -> dict:
    tally = result["tally"]
    lat = _latency(result["latencies"])
    return {
        "setup_s": statistics.median(result["setups"]),
        "throughput_per_s": len(result["latencies"]) / sum(result["latencies"]),
        "latency_ms.p50": lat["p50"],
        "latency_ms.p90": lat["p90"],
        "peak_rss_mb": result["peak_rss_mb"],
        "defl_err_rel": tally["defl_err_median"],
        "curv_err_rel": tally["curv_err_median"],
    }


def per_layer(result: dict) -> dict:
    tr = result["trace"]
    traced = result["traced_latencies"]
    n = len(traced)
    tally = result["tally"]
    self_s, calls = tr["self_s"], tr["calls"]

    def ms(name):
        return self_s.get(name, 0.0) / n * 1e3

    def per(name):
        return calls.get(name, 0) / n

    layer_ms = {layer: secs / n * 1e3 for layer, secs in tr["layer_self_s"].items()}
    traced_ms = sum(traced) / n * 1e3
    untraced_ms = sum(result["latencies"]) / len(result["latencies"]) * 1e3
    interpreter_ms = tr.get("interpreter_s", 0.0) / n * 1e3
    covered_ms = sum(layer_ms.values()) + tr.get("import_s", 0.0) / n * 1e3 + interpreter_ms
    solves = calls.get("linear.solve_linear", 0)
    return {
        "cli.import_ms": statistics.median(result["imports"]) * 1e3,
        "cli.self_ms": layer_ms["cli"],
        "cli.bytes_out": result["bytes_out"] / n,
        "cli.interpreter_ms": interpreter_ms,
        "bridge.self_ms": layer_ms["bridge"],
        "bridge.solve_bridge.self_ms": ms("bridge.solve_bridge"),
        "bridge.applicability.self_ms": ms("bridge.applicability"),
        "monotone.self_ms": layer_ms["monotone"],
        "monotone.run_monotone.self_ms": ms("monotone.run_monotone"),
        "monotone.iterate_once.self_ms": ms("monotone.iterate_once"),
        "monotone.iterate_once.calls": per("monotone.iterate_once"),
        "monotone.sweeps": _ratio(tally["sweeps"], tally["monotone_runs"]),
        "monotone.cert_miss_frac": _ratio(tally["cert_miss"], tally["certified"]),
        "linear.self_ms": layer_ms["linear"],
        "linear.solve_linear.self_ms": ms("linear.solve_linear"),
        "linear.solve_linear.calls": per("linear.solve_linear"),
        "linear.solve_linear.peak_alloc_mb": tr["peak_alloc"] / 2**20,
        "linear.sampled_share": _ratio(tr["sampled_calls"], solves),
        "kernel.self_ms": layer_ms["kernel"],
        "kernel.psi.self_ms": ms("kernel.psi"),
        "kernel.gm_row_integral.self_ms": ms("kernel.gm_row_integral"),
        "kernel.zeta.self_ms": ms("kernel.zeta"),
        "criteria.self_ms": layer_ms["criteria"],
        "criteria.calls": tr["layer_calls"]["criteria"] / n,
        "loads.self_ms": layer_ms["loads"],
        "loads.evaluate.self_ms": ms("loads.evaluate"),
        "loads.Sampled.self_ms": ms("loads.Sampled"),
        "loads.Sampled.calls": per("loads.Sampled"),
        "quadrature.self_ms": layer_ms["quadrature"],
        "quadrature.calls": tr["layer_calls"]["quadrature"] / n,
        "trace.request_ms": traced_ms,
        "trace.overhead_frac": traced_ms / untraced_ms - 1.0,
        "trace.unaccounted_frac": 1.0 - covered_ms / traced_ms,
    }


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def _record(args, result: dict) -> list:
    lines = [
        f"perfbench: workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
        f"trace {args.trace}; closed loop, 1 caller",
        f"why: {wl.WHY[args.workload]}",
        f"record: commit {_commit()}; nproc {os.cpu_count()}",
    ]
    v = result["record"]
    lines.append(f"record: python {v['python']}, numpy {v['numpy']}, scipy {v['scipy']}, "
                 f"openblas '{v['blas']['config']}', blas threads {v['blas']['threads']}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "melan" / "__init__.py").is_file():
        print(f"error: no melan package under {SRC}; run from a melan checkout",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_watchdog)
    signal.alarm(WATCHDOG_S)
    rundir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    rundir.mkdir(parents=True)
    try:
        if args.workload == "cli-configs":
            result = run_cli(rundir, args.seed, args.seconds, args.trace)
        else:
            result = run_library(rundir, args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, TimeoutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        _stop_children()
        shutil.rmtree(rundir, ignore_errors=True)

    tally = result["tally"]
    e2e = end_to_end(result)
    lat = _latency(result["latencies"])
    lines = _record(args, result)
    lines.append(f"requests: {tally['attempted']} attempted, {tally['failed']} failed "
                 f"{tally['reasons'] or ''}".rstrip())
    for name, unit in END_TO_END:
        note = ""
        if name.startswith("latency_ms"):
            note = f"  ({lat['count']} samples, {lat['beyond_p90']} beyond p90)"
        elif name == "setup_s":
            note = f"  (median of {len(result['setups'])} fresh processes)"
        elif name.endswith("_err_rel"):
            worst = tally[name.replace("_rel", "_max")]
            note = f"  (median of {tally['checked']} checked inputs; worst {worst:.3g})"
        lines.append(f"  {name:<34} {e2e[name]:.6g} {unit}{note}")
    lines.append(f"  {'failed_frac':<34} {_ratio(tally['failed'], tally['attempted']):.6g} ratio")
    lines.append(f"  {'cert_miss_frac':<34} {_ratio(tally['cert_miss'], tally['certified']):.6g} "
                 f"ratio  ({tally['cert_miss']} of {tally['certified']} certified brackets "
                 f"miss the exact integral)")
    metrics, units = e2e, END_TO_END
    if args.trace:
        metrics, units = per_layer(result), PER_LAYER
        for name, unit in PER_LAYER:
            lines.append(f"  {name:<34} {metrics[name]:.6g} {unit}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
