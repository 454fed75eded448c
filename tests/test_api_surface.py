"""The configuration surface of gkpsim: every defaulted parameter of a function
or method defined in its modules, against an allowlist.

A new default (an option a caller may leave out) or a removed one shows up
here, so the surface only changes on purpose.  Dataclass fields are not
counted: their generated __init__ is not defined in a module's source.
Every function, class and method that gkpsim defines must also be referenced
somewhere in src/gkpsim, tests/ or bench/.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import gkpsim
from gkpsim import cli

ALLOWED_DEFAULTS = {
    "charfun.dephased_envelope_charfun(nodes)",
    "charfun.gaussian_channel_charfun(check_cptp)",
    "charfun.identity_charfun(n)",
    "cli.main(argv)",
    "cli.sweep_point(cell)",
    "cli.sweep_point(code)",
    "fock.ideal_decode_batch(grid)",
    "lattice.BoxCell.contains(tol)",
    "lattice.PrimitiveCell.contains(tol)",
    "lattice.VoronoiCell.contains(tol)",
    "lattice.hexagonal_code(d)",
    "lattice.rectangular_code(d)",
    "lattice.repetition_code(alpha)",
    "lattice.repetition_code(n)",
    "lattice.shortest_error_length(which)",
    "lattice.square_code(d)",
    "lattice.square_code(n)",
    "logical.box_cell_integral(ctx)",
    "logical.highprec_channel_analysis(dps)",
    "logical.highprec_channel_analysis(trunc)",
    "logical.logical_channel(dps)",
    "logical.logical_channel(quad_order)",
    "logical.logical_channel(trunc)",
    "logical.numeric_cell_integral(order)",
    "logical.window_coefficients(dps)",
    "logical.window_coefficients(quad_order)",
    "logical.window_coefficients(trunc)",
    "metrics.average_gate_fidelity(warn)",
    "symplectic.assert_symplectic(name)",
    "symplectic.assert_symplectic(tol)",
    "symplectic.check_symplectic(tol)",
    "symplectic.is_integral(tol)",
}


def _functions(module):
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)  # static and class methods
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def defaulted_parameters() -> set:
    found = set()
    for info in pkgutil.iter_modules(gkpsim.__path__):
        module = importlib.import_module(f"gkpsim.{info.name}")
        for qualname, fn in _functions(module):
            if fn.__code__.co_filename != module.__file__:
                continue  # generated, e.g. a dataclass __init__
            for param in inspect.signature(fn).parameters.values():
                if param.default is not inspect.Parameter.empty:
                    found.add(f"{info.name}.{qualname}({param.name})")
    return found


def test_defaulted_parameters_match_the_allowlist():
    found = defaulted_parameters()
    assert found - ALLOWED_DEFAULTS == set(), "new defaulted parameters"
    assert ALLOWED_DEFAULTS - found == set(), "allowlisted parameters that no longer exist"


@pytest.mark.parametrize("option, value", [("--threads", "2"), ("--smax", "2"), ("--quadrature-nodes", "8")])
def test_sweep_has_no_threads_option(option, value):
    # S and the node count are set by the config keys smax and quadrature_nodes only
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", option, value])
    assert exc.value.code == 2


def _definitions(tree: ast.Module):
    """Qualified names of the module-level functions and classes and of the
    non-dunder methods defined in a module, with the name each is used by."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("__"):
                    yield f"{node.name}.{member.name}", member.name


def _references(tree: ast.Module) -> set:
    """Every name, attribute, imported name and string constant in a module;
    string constants count because bench/tracing.py patches names given as strings."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_every_definition_has_a_reference():
    root = Path(__file__).resolve().parents[1]
    trees = {path: ast.parse(path.read_text())
             for folder in ("src/gkpsim", "tests", "bench") for path in sorted((root / folder).rglob("*.py"))}
    used = set().union(*(_references(tree) for tree in trees.values()))
    package = root / "src" / "gkpsim"
    dead = [f"{path.stem}.{qualname}" for path, tree in trees.items() if path.parent == package
            for qualname, name in _definitions(tree) if name not in used]
    assert dead == [], "definitions that nothing in src/gkpsim, tests or bench references"
