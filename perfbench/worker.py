"""One library workload in a fresh process: set up, then a timed closed loop.

    python worker.py --workload NAME --dir RUNDIR --seconds S --trace 0|1 [--setup-only]

RUNDIR holds `inputs.json` and `refs.json`, written by run.py.  The worker
imports melan, runs one untimed warm-up request, prints `ready <import s>`
and then `record <json>` (versions and BLAS threads), and, unless
--setup-only, runs requests back to back until their summed
wall time reaches S seconds.  Each output is checked against its exact
reference between requests, outside the timed region.  With --trace 1 the
loop runs S/2 seconds untraced, then S/2 seconds with per-layer spans on
the same inputs, then one more request under tracemalloc.  The result goes
to RUNDIR/result.json.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import sys
import tracemalloc
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import Tally  # noqa: E402


def record() -> dict:
    """Versions of the interpreter and numerics stack, and the BLAS in use."""
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_info(numpy)}


def blas_info(numpy) -> dict:
    """Thread count and build string of the OpenBLAS that numpy loaded."""
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    return {"threads": threads(), "config": config().decode()}
    return {"threads": None, "config": None}


class Library:
    """Requests of the three in-process workloads, each checked against its reference."""

    def __init__(self, workload: str, inputs: dict):
        import melan

        self.melan = melan
        self.workload = workload
        self.grid = inputs["grid"]
        self.idx = inputs["check_idx"]
        self.inputs = inputs["inputs"]
        self.refs = None
        self.api = {name: getattr(melan, name) for name in
                    ("solve_bridge", "solve_linear", "check_smallness", "check_positivity")}
        # load-cases works on one bridge, built once as an engineer would.
        if workload == "load-cases":
            self.fixed_bridge = melan.BridgeParams(**self.inputs[0]["bridge"])

    def load_refs(self, refs: list) -> None:
        import numpy as np

        idx = np.asarray(self.idx)
        self.refs = [dict(r, check_idx=idx, w=np.asarray(r["w"]), wpp=np.asarray(r["wpp"]))
                     for r in refs]

    def request(self, inp: dict):
        api, m = self.api, self.melan
        if self.workload == "linear-closed":
            M, N, L = inp["M"], inp["N"], inp["L"]
            small = api["check_smallness"](M, N, L)
            positive = api["check_positivity"](M, N, L)
            load = m.LoadSpec((m.Constant(inp["c0"]), m.SineHalfWave(inp["amp"])))
            sol = api["solve_linear"](m.LinearProblem(M, N, L, load), grid_points=self.grid)
            return small, positive, sol
        if self.workload == "load-cases":
            bridge = self.fixed_bridge
        else:
            bridge = m.BridgeParams(**inp["bridge"])
        load = m.LoadSpec((m.Constant(inp["p0"]), m.SineHalfWave(inp["amp"])))
        return api["solve_bridge"](bridge, load, grid_points=self.grid)

    def check(self, k: int, out, tally: Tally) -> None:
        exact = self.refs[k]
        if self.workload == "linear-closed":
            small, positive, sol = out
            if not (small.satisfied and positive.satisfied):
                tally.fail("criterion refused a certified input")
                return
            tally.check(k, sol.y, sol.ypp, exact, integral=sol.integral_y)
            return
        mono = out.monotone
        tally.bracket(mono.certified, mono.final_lower.integral, mono.final_upper.integral,
                      exact["integral"], mono.iterations)
        tally.check(k, out.deflection.y, out.deflection.ypp, exact)

    def loop(self, seconds: float, tally: Tally) -> list:
        """Requests back to back, cycling the pool from its start, for `seconds` of request time."""
        latencies = []
        spent = 0.0
        i = 0
        while spent < seconds:
            k = i % len(self.inputs)
            i += 1
            start = perf_counter()
            try:
                out = self.request(self.inputs[k])
            except Exception as exc:  # every failure is counted, none stops the run
                out = exc
            latencies.append(perf_counter() - start)
            spent += latencies[-1]
            tally.attempted += 1
            if isinstance(out, Exception):
                tally.fail(f"exception {type(out).__name__}")
            else:
                self.check(k, out, tally)
            del out
        return latencies


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(args.dir, "inputs.json")) as fh:
        inputs = json.load(fh)
    start = perf_counter()
    if args.workload == "cli-configs":
        # Set-up only: a fresh interpreter imports melan.cli and serves one
        # request in-process.  The measured CLI requests run in run.py.
        import melan.cli

        import_s = perf_counter() - start
        entry = inputs["plan"][0]
        out = os.path.join(args.dir, f"warmup-{os.getpid()}")
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            melan.cli.main([entry["mode"], "--config", entry["config"], "--out", out])
        print(f"ready {import_s!r}", flush=True)
        print(f"record {json.dumps(record())}", flush=True)
        return 0

    import melan  # noqa: F401

    import_s = perf_counter() - start
    lib = Library(args.workload, inputs)
    # The last pool entry is not timed again until a full cycle has passed,
    # so the warm-up leaves no Green matrix that the first requests reuse.
    lib.request(lib.inputs[-1])
    print(f"ready {import_s!r}", flush=True)
    print(f"record {json.dumps(record())}", flush=True)
    if args.setup_only:
        return 0

    with open(os.path.join(args.dir, "refs.json")) as fh:
        lib.load_refs(json.load(fh))
    tally = Tally()
    result = {}
    if not args.trace:
        result["latencies"] = lib.loop(args.seconds, tally)
    else:
        import tracer

        result["latencies"] = lib.loop(args.seconds / 2, tally)
        trace = tracer.Tracer()
        for name, span in tracer.ENTRY.items():
            lib.api[name] = trace.wrap(lib.api[name], span)
        trace.install()
        result["traced_latencies"] = lib.loop(args.seconds / 2, tally)
        result["trace"] = trace.summary()
        # One more request under tracemalloc, for solve_linear's peak allocation.
        tracemalloc.start()
        trace.measure_alloc = True
        lib.request(lib.inputs[0])
        tracemalloc.stop()
        result["trace"]["peak_alloc"] = trace.peak_alloc
        trace.uninstall()
    result["tally"] = tally.summary()
    with open(os.path.join(args.dir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
