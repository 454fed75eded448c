"""The configuration surface of gkpsim: every defaulted parameter of a function
or method defined in its modules, against an allowlist.

A new default (an option a caller may leave out) or a removed one shows up
here, so the surface only changes on purpose.  Dataclass fields are not
counted: their generated __init__ is not defined in a module's source.
"""

import importlib
import inspect
import pkgutil

import pytest

import gkpsim
from gkpsim import cli

ALLOWED_DEFAULTS = {
    "charfun.dephased_envelope_charfun(nodes)",
    "charfun.gaussian_channel_charfun(check_cptp)",
    "charfun.hermitian_defect(n_samples)",
    "charfun.identity_charfun(n)",
    "cli.cmd_bloch_trajectory(s_max)",
    "cli.cmd_oracle_check(s_max)",
    "cli.cmd_sweep(nodes)",
    "cli.cmd_sweep(s_max)",
    "cli.main(argv)",
    "cli.sweep_point(cell)",
    "cli.sweep_point(code)",
    "fock.apply_loss(j_max)",
    "fock.ideal_decode(grid)",
    "fock.ideal_decode_batch(grid)",
    "lattice.BoxCell.contains(tol)",
    "lattice.PrimitiveCell.contains(tol)",
    "lattice.VoronoiCell.__init__(radius)",
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
    "metrics.lowdin_orthonormalize(ortho)",
    "states.apply_clifford(gate)",
    "states.decompose_wavefunction(window)",
    "states.square_cell_grid(order)",
    "states.zak_position_amplitudes(window)",
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


def test_sweep_has_no_threads_option():
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--threads", "2"])
    assert exc.value.code == 2
