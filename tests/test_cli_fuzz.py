"""Contract fuzz of the command line: only an exit code leaves `main`.

A seeded generator draws configs for the four modes, with magnitudes
log-uniform over 1e-12..1e12 and over the whole float range
(1e-320..1e308), plus edge values, and runs each through `main(argv)` in
process.  Whatever the numbers, a run must end in an exit code (no
exception, no numpy RuntimeWarning), every JSON file it writes must be
standard JSON (no NaN or Infinity), and every CSV value must be finite.
"""

import json
import math
import random
import warnings

from melan.cli import main

SEED = 20261020
CASES = 1000

MODES = ("solve-linear", "check", "iterate", "bridge-report")
EDGES = (5e-324, 2.2250738585072014e-308, 1e-300, 1e-160, 1e-12, 0.5, 1.0, 2.0,
         1e12, 1e160, 1e300, 1.7976931348623157e308)


def _magnitude(rng: random.Random) -> float:
    """A positive number: moderate, anywhere in the float range, or an edge value."""
    draw = rng.random()
    if draw < 0.45:
        return 10.0 ** rng.uniform(-12.0, 12.0)
    if draw < 0.9:
        return 10.0 ** rng.uniform(-320.0, 308.0)
    return rng.choice(EDGES)


def _signed(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0)) * _magnitude(rng)


def _load(rng: random.Random, nonnegative: bool) -> list:
    value = (lambda: _magnitude(rng)) if nonnegative else (lambda: _signed(rng))
    makers = (
        lambda: {"type": "constant", "value": value()},
        lambda: {"type": "sine", "amplitude": value()},
        lambda: {"type": "affine", "c0": value(), "c1": _signed(rng)},
        lambda: {"type": "cubic", "c3": value()},
        lambda: {"type": "sinh", "coef": value(), "rate": _magnitude(rng)},
        lambda: {"type": "sampled", "values": [value() for _ in range(rng.choice((3, 5, 9)))]},
    )
    return [rng.choice(makers)() for _ in range(rng.randint(0, 2))]


def _bridge(rng: random.Random) -> dict:
    block = {"L": _magnitude(rng), "EI": _magnitude(rng),
             "EcAc": 0.0 if rng.random() < 0.05 else _magnitude(rng)}
    if rng.random() < 0.5:
        block["n"] = _magnitude(rng) if rng.random() < 0.5 else rng.uniform(1 / 14, 1 / 5)
    else:
        block["H"], block["q"] = _magnitude(rng), _magnitude(rng)
    if rng.random() < 0.3:
        block["Lc"] = _magnitude(rng)
    return block


def _config(rng: random.Random, mode: str) -> dict:
    if mode == "solve-linear":
        problem = {"M": _magnitude(rng), "N": 0.0 if rng.random() < 0.1 else _signed(rng),
                   "L": _magnitude(rng)}
        load = _load(rng, nonnegative=False)
    elif mode == "iterate":
        problem = {name: _magnitude(rng) for name in ("a", "b", "c", "L")}
        if rng.random() < 0.5:
            problem["lambda"] = 0.0 if rng.random() < 0.2 else _magnitude(rng)
        load = _load(rng, nonnegative=True)
    else:
        problem = _bridge(rng)
        load = _load(rng, nonnegative=True)
    numerics = {"grid_points": rng.choice((11, 21, 101)), "max_iter": rng.choice((1, 5, 20)),
                "force": rng.random() < 0.3}
    return {"mode": mode, "problem": problem, "load": load, "numerics": numerics}


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _check_outputs(out) -> None:
    for path in out.iterdir():
        text = path.read_text()
        if path.suffix == ".json":
            json.loads(text, parse_constant=_reject_constant)
        elif path.suffix == ".csv":
            for line in text.splitlines()[1:]:
                values = [float(v) for v in line.split(",")]
                if not all(math.isfinite(v) for v in values):
                    raise ValueError(f"{path.name}: non-finite value in {line!r}")


def test_every_config_ends_in_an_exit_code(tmp_path, capsys):
    rng = random.Random(SEED)
    failures = []
    for i in range(CASES):
        mode = MODES[i % len(MODES)]
        config = _config(rng, mode)
        case = tmp_path / f"case_{i}"
        case.mkdir()
        path = case / "config.json"
        path.write_text(json.dumps(config))
        out = case / "out"
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # sag-ratio and --force notes
                warnings.simplefilter("error", RuntimeWarning)
                code = main([mode, "--config", str(path), "--out", str(out)])
            assert code in (0, 1, 2, 3), f"exit code {code!r}"
            if out.is_dir():
                _check_outputs(out)
        except Exception as exc:  # every case is run; the assertion below lists them
            failures.append(f"case {i} ({mode}): {type(exc).__name__}: {exc}; config {config}")
        capsys.readouterr()
    assert not failures, f"{len(failures)} of {CASES} configs:\n" + "\n".join(failures)
