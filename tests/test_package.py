"""Package surface: every public name is declared once, defined and imported for a use."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import melan

ROOT = Path(__file__).resolve().parent.parent
MODULES = ["melan"] + [f"melan.{m.name}" for m in pkgutil.iter_modules(melan.__path__)]

# sorted(melan.__all__): the names the package exported before its list was
# built from the module lists, less SolutionMeta (GridSolution.regime now),
# MissingCableLength (a bridge without a cable length is refused when built),
# the sine-bracket record (check_sine_conditions returns (M, N) alone) and
# the per-side history record (a run's lower and upper are tuples of iterates).
SURFACE = [
    "Affine", "ApplicabilityReport", "BoundPair", "BoundUnavailable", "BridgeParams",
    "BridgeSolution", "ConditionReport", "ConfigError", "Constant", "Cubic",
    "EnvelopeViolation", "FdConfig", "GridSolution", "InvalidPair", "Iterate",
    "KernelParams", "LinearOperator", "LinearProblem", "LoadSpec",
    "MelanError", "MelanProblem", "MonotoneVerdict",
    "MonotonicityViolation", "NewtonDiverged", "NonFiniteSolution", "NotApplicable",
    "NotContractive", "NotConverged", "Sampled", "SineHalfWave", "SineShape",
    "SingularResonance", "SingularSystem", "SinhTerm", "ZeroShape", "__version__",
    "applicability", "cable_length", "check_positivity", "check_sine_conditions",
    "check_smallness", "check_uniqueness", "contraction_rho", "derive_coefficients",
    "error_bounds", "fd_solve_linear", "fd_solve_nonlinear", "gm_row_integral",
    "gp_convolution", "green_g", "green_g0", "green_gm", "iterate_melan", "iterate_once",
    "load_envelope", "load_moment_g", "make_sine_pair", "picard_iterate", "psi", "residual",
    "run_monotone", "sigma", "sinh_ratio", "solve_bridge", "solve_linear", "theta",
    "verify_lower", "verify_upper", "xi", "zeta",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    # a name deleted from a module but left in its __all__ breaks only
    # `from module import *`, which nothing else in the suite runs
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert not missing


def test_package_surface_is_pinned():
    assert sorted(melan.__all__) == SURFACE


def test_every_public_name_is_declared_in_exactly_one_module():
    lists = [getattr(importlib.import_module(name), "__all__", ()) for name in MODULES[1:]]
    counts = {entry: sum(entry in names for names in lists) for entry in melan.__all__}
    counts.pop("__version__")
    assert {entry: n for entry, n in counts.items() if n != 1} == {}


def _unused_imports(source: str):
    """Names a module imports (not __future__, not *) that its code never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
        elif isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


# Imports kept only so that perfbench/tracer.py can wrap the name at that site.
TRACER_ONLY_IMPORTS = {("melan.monotone", "integrate")}


def test_every_import_is_used_or_wrapped_by_the_tracer(monkeypatch):
    # A tracer-only import is allowed only while the tracer lists its site,
    # and a new one only by adding it to TRACER_ONLY_IMPORTS.
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracer import SITES

    wrapped = {(path, attr) for path, attr, _ in SITES}
    unused = {
        (name, attr)
        for name in MODULES
        for attr in _unused_imports(Path(importlib.import_module(name).__file__).read_text())
    }
    assert unused == TRACER_ONLY_IMPORTS
    assert TRACER_ONLY_IMPORTS <= wrapped


def test_only_run_monotone_refuses_an_inapplicable_bracket():
    # A failing positivity condition is refused in one place, run_monotone's
    # `refuse`, which raises the class it is given; nothing calls
    # NotApplicable(...) itself.
    calls = [
        f"{name}:{node.lineno}"
        for name in MODULES
        for node in ast.walk(ast.parse(Path(importlib.import_module(name).__file__).read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "NotApplicable"
    ]
    assert calls == []


def _named(node):
    """The name a Name or Attribute node reads (`np.errstate` reads errstate), else None."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def test_only_quiet_sets_the_floating_point_state():
    # One floating-point rule: each solver entry point runs under kernel._quiet,
    # as a decorator, and checks what it returns.  numpy's errstate appears only
    # in _quiet's definition, no code enters `with _quiet:` (its one errstate
    # object cannot be entered twice), and nothing catches FloatingPointError.
    found = []
    for name in MODULES:
        tree = ast.parse(Path(importlib.import_module(name).__file__).read_text())
        definition = {id(node) for assign in ast.walk(tree) if isinstance(assign, ast.Assign)
                      and [_named(t) for t in assign.targets] == ["_quiet"]
                      for node in ast.walk(assign.value)}
        for node in ast.walk(tree):
            if _named(node) == "errstate" and id(node) not in definition:
                found.append(f"{name}:{node.lineno} errstate")
            elif _named(node) == "FloatingPointError":
                found.append(f"{name}:{node.lineno} FloatingPointError")
            elif isinstance(node, ast.withitem) and _named(node.context_expr) == "_quiet":
                found.append(f"{name}:{node.context_expr.lineno} with _quiet")
    assert found == []


DERIVED = {"MonotoneVerdict": {"iterations", "certified", "gap_bounds"},
           "ApplicabilityReport": {"verdict"}}


def test_derived_facts_have_one_home():
    # A run's sweep count, certification and gap bounds, and a bridge's verdict, are
    # properties derived from the record's own fields: no call passes them,
    # and neither record declares them as dataclass fields.
    found = []
    keywords = set().union(*DERIVED.values())
    for name in MODULES:
        for node in ast.walk(ast.parse(Path(importlib.import_module(name).__file__).read_text())):
            if isinstance(node, ast.Call):
                found += [f"{name}:{node.lineno} {k.arg}=" for k in node.keywords
                          if k.arg in keywords]
            elif isinstance(node, ast.ClassDef) and node.name in DERIVED:
                found += [f"{name}:{item.lineno} {node.name}.{item.target.id}"
                          for item in node.body if isinstance(item, ast.AnnAssign)
                          and item.target.id in DERIVED[node.name]]
    assert found == []
