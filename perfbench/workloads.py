"""Seeded workload inputs, their exact references, and the output checks.

Every workload is a closed loop: one caller in one process sends a request,
waits for it to finish, then sends the next.  The benchmark draws each
workload's inputs from `--seed` here, computes their exact references with
`reference` (mpmath, no melan code), and hands melan only the generated
inputs.  Nothing in this module imports melan, so the parent process that
generates inputs and checks results stays out of the measured processes.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

import reference as ref

# Why each workload exists.  Later changes are judged per workload, so these
# say which layer each one loads and which change it should (not) see.
WHY = {
    "cli-configs": (
        "what an engineer runs: one fresh melan.cli process per request over the six "
        "bundled configs, so import and output cost show and sampled-path cost barely does"
    ),
    "design-sweep": (
        "a new seeded bridge per request at a fine grid, so the dense Green matrices are "
        "rebuilt every time (cold); the mechanism workload for an O(n) convolution"
    ),
    "load-cases": (
        "one bridge, a seeded stream of live loads at grid 1001: Green matrices stay warm "
        "and per-sweep Python work dominates, so a change that is faster cold and slower "
        "warm shows here"
    ),
    "linear-closed": (
        "closed-form criteria and linear solves, sqrt(M)L log-uniform over 0.01-700; never "
        "touches the dense matrices, so sampled-path changes should not move it"
    ),
}

WORKLOADS = tuple(WHY)

# A request fails when its output is off the exact reference by more than
# this, relative to the reference's largest magnitude on the check points.
# The sampled path's curvature error is O(h^2) (about 2e-6 at grid 1001), so
# the curvature tolerance leaves room for it; both are far above roundoff.
TOL_W = 1e-6
TOL_WPP = 1e-4

LOAD_CASES_GRID = 1001
LINEAR_GRID = 1001
DESIGN_GRID = 3001

# Distinct inputs per workload.  Requests cycle through the shuffled pool,
# so every full cycle covers the whole stratified input range and the
# worst-case errors are steady from seed to seed.  melan keeps no result
# cache, so a repeated input costs what a new one does.
POOL = {"linear-closed": 256, "load-cases": 256, "design-sweep": 256}

# The bridge of the bundled example_6_2 config (span 100 m).
EXAMPLE_6_2 = dict(L=100.0, EI=455700000.0, EcAc=4121700.0, n=0.1111111111111111,
                   H=19850.4, Lc=103.2)


def check_indices(points: int) -> list:
    """101 grid indices, alternating even and odd.

    The Simpson rows of the sampled path are exact at even nodes and carry
    the O(h^2) curvature error at odd ones, so both parities are checked.
    """
    step = (points - 1) // 100
    return [j * step + (j % 2) for j in range(100)] + [points - 1]


def _abscissae(L: float, points: int, idx) -> list:
    return [L * i / (points - 1) for i in idx]


def _stratified(rng: random.Random, count: int) -> list:
    """One uniform draw in each of `count` equal strata of [0, 1), shuffled."""
    u = [(j + rng.random()) / count for j in range(count)]
    rng.shuffle(u)
    return u


def _exact_dict(exact: ref.Exact) -> dict:
    return {"integral": exact.integral, "w": list(exact.w), "wpp": list(exact.wpp)}


def linear_closed_pool(seed: int) -> dict:
    """Closed-form linear problems with loads c0 + A*sin(pi*x/L), N in the certified range."""
    rng = random.Random(f"linear-closed/{seed}")
    count = POOL["linear-closed"]
    idx = check_indices(LINEAR_GRID)
    inputs, refs = [], []
    for u in _stratified(rng, count):
        z = math.exp(math.log(0.01) + u * math.log(700.0 / 0.01))
        L = math.exp(rng.uniform(math.log(0.5), math.log(200.0)))
        M = (z / L) ** 2
        n_max = min(ref.positivity_bound(M, L), 8.0 * M / L**3)
        N = rng.uniform(0.0, 0.95) * n_max
        c0 = rng.uniform(0.1, 1.0)
        amp = rng.uniform(0.0, 1.0)
        inputs.append({"M": M, "N": N, "L": L, "c0": c0, "amp": amp})
        refs.append(_exact_dict(ref.linear_exact(
            M, N, L, _abscissae(L, LINEAR_GRID, idx), c0=c0, amp=amp)))
    return {"grid": LINEAR_GRID, "check_idx": idx, "inputs": inputs, "refs": refs}


def _bridge_load(rng: random.Random, u: float, envelope) -> tuple:
    """Constant + half-sine live load (kN/m) strictly inside the envelope."""
    A_env, B_env = envelope
    p0 = (0.05 + 0.93 * u) * B_env
    amp = rng.uniform(0.0, 0.98) * A_env
    return p0, amp


def _bridge_exact(bridge: dict, p0: float, amp: float, points: int, idx) -> dict:
    a, b, c, _ = ref.bridge_coefficients(
        bridge["L"], bridge["EI"], bridge["EcAc"], bridge["n"], bridge["H"], bridge.get("Lc"))
    exact = ref.melan_exact(a, b, c, bridge["L"], _abscissae(bridge["L"], points, idx),
                            p0=p0 / bridge["EI"], amp=amp / bridge["EI"])
    return _exact_dict(exact)


def load_cases_pool(seed: int) -> dict:
    """One bridge (example_6_2) under a stratified pool of live loads."""
    rng = random.Random(f"load-cases/{seed}")
    count = POOL["load-cases"]
    idx = check_indices(LOAD_CASES_GRID)
    b = EXAMPLE_6_2
    envelope = ref.load_envelope(b["L"], b["EI"], b["EcAc"], b["n"], b["H"], b["Lc"])
    inputs, refs = [], []
    for u in _stratified(rng, count):
        p0, amp = _bridge_load(rng, u, envelope)
        inputs.append({"bridge": b, "p0": p0, "amp": amp})
        refs.append(_bridge_exact(b, p0, amp, LOAD_CASES_GRID, idx))
    return {"grid": LOAD_CASES_GRID, "check_idx": idx, "inputs": inputs, "refs": refs}


def random_bridge(rng: random.Random) -> tuple:
    """A seeded bridge that passes the positivity condition of its L/100 bracket.

    Returns the bridge without its cable length, which melan derives, and
    that length as the benchmark derives it.  Bridges whose
    frozen coupling N exceeds 0.98 of the bound 4*M*sigma(sqrt(M)L)/L^3 are
    drawn again: they would be refused, and no timed request is a refusal.
    """
    while True:
        L = rng.uniform(60.0, 300.0)
        n = rng.uniform(1.0 / 12.0, 1.0 / 7.0)
        EI = math.exp(rng.uniform(math.log(5e7), math.log(2e9)))
        EcAc = math.exp(rng.uniform(math.log(2e6), math.log(6e7)))
        q = rng.uniform(10.0, 200.0)
        H = q * L / (8.0 * n)
        a, b, c, Lc = ref.bridge_coefficients(L, EI, EcAc, n, H)
        lam = L / 100.0
        M = a + b * 2.0 * lam * L / math.pi
        N = c + b * lam * math.pi**2 / L**2
        if N <= 0.98 * ref.positivity_bound(M, L):
            return {"L": L, "EI": EI, "EcAc": EcAc, "n": n, "H": H}, Lc


def design_sweep_pool(seed: int) -> dict:
    """Distinct seeded bridges, each with its own live load inside its envelope."""
    rng = random.Random(f"design-sweep/{seed}")
    count = POOL["design-sweep"]
    idx = check_indices(DESIGN_GRID)
    inputs, refs = [], []
    for u in _stratified(rng, count):
        bridge, Lc = random_bridge(rng)
        envelope = ref.load_envelope(bridge["L"], bridge["EI"], bridge["EcAc"],
                                     bridge["n"], bridge["H"], Lc)
        p0, amp = _bridge_load(rng, u, envelope)
        inputs.append({"bridge": bridge, "p0": p0, "amp": amp})
        refs.append(_bridge_exact(bridge, p0, amp, DESIGN_GRID, idx))
    return {"grid": DESIGN_GRID, "check_idx": idx, "inputs": inputs, "refs": refs}


POOLS = {
    "linear-closed": linear_closed_pool,
    "load-cases": load_cases_pool,
    "design-sweep": design_sweep_pool,
}


# ---------------------------------------------------------------------------
# cli-configs: the bundled configs in a fixed rotation.

# (mode, config, expected exit code).  example_6_1 is refused by design
# (positivity fails at span 150); example_6_3 runs forced and uncertified.
CLI_ROTATION = (
    ("solve-linear", "example_2_1", 0),
    ("solve-linear", "example_2_2", 0),
    ("iterate", "example_5_1", 0),
    ("check", "example_6_1", 2),
    ("bridge-report", "example_6_2", 0),
    ("bridge-report", "example_6_3", 0),
)


def _config_reference(config: dict) -> dict:
    """Exact solution at every grid point for the outputs a config claims, or None."""
    mode, prob = config["mode"], config["problem"]
    numerics = config.get("numerics", {})
    points = numerics.get("grid_points", 1001)
    idx = list(range(points))
    terms = {t["type"]: t for t in config.get("load", [])}
    p0 = terms.get("constant", {}).get("value", 0.0)
    amp = terms.get("sine", {}).get("amplitude", 0.0)
    if mode == "bridge-report" and not numerics.get("force", False):
        return {"check_idx": idx, **_bridge_exact(prob, p0, amp, points, idx)}
    xs = _abscissae(prob["L"], points, idx)
    if mode == "solve-linear":
        affine = terms.get("affine", {})
        exact = ref.linear_exact(prob["M"], prob["N"], prob["L"], xs,
                                 c0=p0 + affine.get("c0", 0.0), c1=affine.get("c1", 0.0),
                                 amp=amp)
    elif mode == "iterate":
        exact = ref.melan_exact(prob["a"], prob["b"], prob["c"], prob["L"], xs, p0=p0, amp=amp)
    else:
        return None
    return {"check_idx": idx, **_exact_dict(exact)}


def cli_plan(src: Path, seed: int) -> list:
    """The rotation, started at a seeded offset, with each entry's reference."""
    plan = []
    for mode, name, code in CLI_ROTATION:
        config = json.loads((src / "melan" / "configs" / f"{name}.json").read_text())
        plan.append({"mode": mode, "config": name, "exit": code,
                     "ref": _config_reference(config)})
    start = random.Random(f"cli-configs/{seed}").randrange(len(plan))
    return plan[start:] + plan[:start]


# ---------------------------------------------------------------------------
# Checks shared by the library worker and the CLI client.


def simpson(values: np.ndarray, length: float) -> float:
    """Composite Simpson integral of samples on a uniform odd-length grid."""
    w = np.ones(values.size)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(w @ values) * length / (3.0 * (values.size - 1))


class Tally:
    """Failures, errors and certification misses over a run's requests.

    Each checked input contributes its worst relative error over the check
    points (a repeated input gives the same error, so it counts once).  The
    bounded metrics take the median over inputs: the worst case is set by
    where the iteration happened to stop, or by roundoff, and moves by
    25-75% from seed to seed, so it is reported beside the median but not
    bounded.  The failure tolerances above still apply to every request.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = {}
        self.certified = 0
        self.cert_miss = 0
        self.monotone_runs = 0
        self.sweeps = 0
        self.errors = {}

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def check(self, key, y, ypp, exact: dict, integral=None) -> None:
        """Fail a request on a non-finite value or an error above tolerance.

        `y` and `ypp` are full grid samples; the errors are taken at the
        reference's check indices, relative to the reference's largest value.
        `key` names the input, so that repeats of it count once.
        """
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(ypp))):
            self.fail("non-finite output")
            return
        idx = exact["check_idx"]
        w_ref = np.asarray(exact["w"])
        pp_ref = np.asarray(exact["wpp"])
        e_w = float(np.max(np.abs(y[idx] - w_ref)) / np.max(np.abs(w_ref)))
        e_pp = float(np.max(np.abs(ypp[idx] - pp_ref)) / np.max(np.abs(pp_ref)))
        self.errors[key] = (e_w, e_pp)
        e_i = 0.0 if integral is None else abs(integral / exact["integral"] - 1.0)
        if e_w > TOL_W or e_pp > TOL_WPP or e_i > TOL_W:
            self.fail("error above tolerance")

    def bracket(self, certified: bool, lower: float, upper: float, exact: float,
                sweeps: int) -> None:
        """Record one monotone run: a certified bracket must contain the exact integral."""
        self.monotone_runs += 1
        self.sweeps += sweeps
        if certified:
            self.certified += 1
            if not lower <= exact <= upper:
                self.cert_miss += 1

    def summary(self) -> dict:
        """Counts, and the median and worst of the per-input errors."""
        out = {key: value for key, value in vars(self).items() if key != "errors"}
        out["checked"] = len(self.errors)
        for col, name in enumerate(("defl_err", "curv_err")):
            errs = [pair[col] for pair in self.errors.values()]
            out[f"{name}_median"] = float(np.median(errs)) if errs else float("nan")
            out[f"{name}_max"] = max(errs, default=float("nan"))
        return out
