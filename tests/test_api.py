"""The public surface: each module's ``__all__`` and what the package
re-exports from it."""

import ast
import dataclasses
import importlib
import inspect
import pathlib

import pytest

import hjsim
from hjsim.diagnostics import AutocorrelationFit
from hjsim.rng import DrawBank, RandomStream

MODULES = ["cli", "diagnostics", "diffusion", "engine", "intensity", "model", "pathio", "rng",
           "stability"]

# wrappers and an exception that only tests, or nothing, used, removed, with their module
REMOVED = {"flow_memory": "intensity", "apply_event": "intensity",
           "intensity_vector": "intensity", "total_event_rate": "intensity",
           "dominating_rate": "intensity", "advance_diffusion": "diffusion",
           "apply_state_jump": "diffusion", "next_event": "engine", "CandidateEvent": "engine",
           "load_model": "model", "lyapunov_spec_for": "stability",
           "DegenerateKernelError": "model"}

# keyword options that no command, diagnostic or criterion needed, removed,
# with the function that took them
REMOVED_OPTIONS = [("diagnostics", "time_average", "batches"),
                   ("diagnostics", "mixing_curve", "floor_factor"),
                   ("diagnostics", "mixing_curve", "workers"),
                   ("diagnostics", "autocorr_decay", "min_corr"),
                   ("stability", "drift_scan", "tolerance"),
                   ("stability", "stability_report", "poly_m"),
                   ("stability", "stability_report", "vandermonde_t0"),
                   ("model", "check_assumptions", "grid_points"),
                   ("stability", "vandermonde_check", "strict"),
                   ("cli", "_atomic_write", "text"),
                   ("engine", "simulate_path_reference", "k2_bound"),
                   ("model", "check_assumptions", "spectral_radius")]


def package_imports():
    """(module, name) for every name that ``hjsim/__init__`` imports."""
    tree = ast.parse(inspect.getsource(hjsim))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"hjsim.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_imports_only_exported_names():
    imports = package_imports()
    assert len(imports) > 50
    for module, name in imports:
        assert name in importlib.import_module(f"hjsim.{module}").__all__, (module, name)
        assert hasattr(hjsim, name)


@pytest.mark.parametrize("name, module", sorted(REMOVED.items()))
def test_removed_wrappers_are_gone(name, module):
    mod = importlib.import_module(f"hjsim.{module}")
    assert not hasattr(hjsim, name)
    assert not hasattr(mod, name)
    assert name not in mod.__all__


@pytest.mark.parametrize("module, function, option", REMOVED_OPTIONS)
def test_removed_options_are_gone(module, function, option):
    func = getattr(importlib.import_module(f"hjsim.{module}"), function)
    assert option not in inspect.signature(func).parameters


@pytest.mark.parametrize("cls, name", [(RandomStream, "normal"), (RandomStream, "exponential"),
                                       (DrawBank, "unread"), (AutocorrelationFit, "to_dict")])
def test_removed_draw_methods_are_gone(cls, name):
    assert not hasattr(cls, name)


def test_assumption_report_leaves_subcriticality_to_stability_data():
    names = {field.name for field in dataclasses.fields(hjsim.AssumptionReport)}
    assert not names & {"spectral_radius", "stability_ok"}


def imports_hjsim(node) -> bool:
    """Whether an AST node imports from the ``hjsim`` package."""
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "hjsim"
    return isinstance(node, ast.Import) and any(a.name.split(".")[0] == "hjsim"
                                                for a in node.names)


def test_no_function_imports_a_sibling_module():
    """Each module imports its siblings at the top, so the module graph has
    no cycle hidden in a function body."""
    lazy = []
    for file in sorted(pathlib.Path(hjsim.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(file.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lazy += [(file.name, func.name, node.lineno) for node in ast.walk(func)
                         if imports_hjsim(node)]
    assert lazy == []
