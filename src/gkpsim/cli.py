"""Batch driver: noise sweeps, Bloch trajectories, lattice reports, and
oracle cross-checks, emitting CSV/JSON artifacts.

Output is deterministic byte-for-byte for a fixed config: grid points are
processed in input order with a fixed summation order, and floats are printed
with 17 significant digits.

Sweep rows report the cancellation-free average gate infidelity
(metrics.average_gate_infidelity).  Each channel is built in double
precision, and rebuilt at FALLBACK_DPS digits only when its integrals
underflowed and its infidelity is small enough for them to matter.  A
channel on a quadrature cell is rebuilt at higher quadrature orders until
its error estimate is small against its infidelity.
"""

from __future__ import annotations

import argparse
import json
import sys

import mpmath as mp
import numpy as np

from .charfun import (
    compose,
    dephased_envelope_charfun,
    envelope_charfun,
    loss_charfun,
    random_displacement_charfun,
)
from .lattice import (
    CLIFFORD_SYMPLECTICS,
    _checked,
    _integer,
    _real,
    code_from_config,
    is_cell_invariant,
    repetition_symmetric_cell,
    shortest_error_length,
    square_code,
    voronoi_box,
)
from .logical import (
    TruncationSpec,
    highprec_channel_analysis,  # noqa: F401  bench/tracing.py patches this name in cli
    logical_channel,
)
from .metrics import (
    average_gate_fidelity,  # noqa: F401  bench/tracing.py patches this name in cli
    average_gate_infidelity,
    bloch_and_octahedron,
    cptp_diagnostics,
    fock_qubit_baseline,
    lowdin_orthonormalize,
)
from .symplectic import standard_form

# A double-precision channel is rebuilt at FALLBACK_DPS digits when some of
# its integrals underflowed (meta["underflowed"]) and its infidelity lies
# below RERUN_BELOW.  An integral cut off at the -745 exponent is below
# exp(-745) ~ 5e-324 times its prefactor, of order the cell volume, and a
# window with S <= 5 and 64 kernel terms has under 1e6 (pair, term)
# integrals, so the lost terms sum to below ~1e-310 and move an infidelity
# above 1e-290 by under 1e-20 relative.  Below 1e-290 they, and subnormal
# rounding from 2.2e-308 down, could matter.  mpmath's exponent is
# unbounded, so the diagonal sum needs no more digits as squeezing grows:
# 30 reproduce all 17 printed digits of the 410- and 613-digit references
# at 30 and 32 dB.
RERUN_BELOW = 1e-290
FALLBACK_DPS = 30

# A 2D Voronoi cell integrates by the slab rule of logical.py: closed form in
# y, Gauss-Legendre nodes of a given order in x, checked against 1.5 times
# that order.  Deep rows rest on Gaussians (dephasing terms, or tails at the
# cell edge) narrower than the nodes of order 40.  A channel whose quadrature
# error estimate (meta["quad_err"]) exceeds QUAD_REL_ERR of its infidelity is
# built again at the next order, and a row still above it at the last order
# raises.  The estimate is the lower order's error, so it overstates that of
# the value kept.  On the square code's Voronoi cell envelope rows settle at
# order 40 up to 21 dB, at 80 from 22 dB and at 160 at 28 dB; the 29 dB row
# still raises, its order-160 estimate being 1.5e-9 of its infidelity.
QUAD_ORDERS = (40, 80, 160)
QUAD_REL_ERR = 1e-9


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if hasattr(x, "_mpf_"):  # an mpmath real from any context
        return mp.nstr(x, 17, strip_zeros=False)
    return f"{float(x):.17g}"


def _delta_from_db(delta_db: float) -> float:
    return 10.0 ** (-delta_db / 20.0)


def _nbar_est(delta: float) -> float:
    return 1.0 / (2.0 * delta ** 2) - 0.5


def _build_charfun(noise: str, delta: float, param: float, nodes: int):
    env = envelope_charfun(delta)
    if noise == "envelope" or param == 0:
        return env
    if noise == "loss":
        return compose(loss_charfun(param), env)
    if noise == "displacement":
        return compose(random_displacement_charfun(np.sqrt(param)), env)
    if noise == "dephasing":
        return dephased_envelope_charfun(np.sqrt(param), delta, nodes)
    raise ValueError(f"unknown noise family {noise!r}")


def _analysis(cf, code, cell, s_max: int) -> dict:
    """{"infidelity", "channel"} of the Loewdin-orthonormalized channel at
    truncation s_max.  The channel is built in double precision, and built
    again at FALLBACK_DPS digits when its integrals underflowed and its
    infidelity lies below RERUN_BELOW, or at a higher quadrature order while
    its quadrature error estimate exceeds QUAD_REL_ERR of its infidelity."""
    trunc = TruncationSpec(s_max)
    for order in QUAD_ORDERS:
        _, och = lowdin_orthonormalize(logical_channel(code, cell, cf, trunc, quad_order=order))
        infid = average_gate_infidelity(och)
        if och.meta["underflowed"] and infid < RERUN_BELOW:
            # mpmath refuses quadrature cells, so an underflowed one raises here
            _, och = lowdin_orthonormalize(logical_channel(code, cell, cf, trunc, dps=FALLBACK_DPS))
            infid = average_gate_infidelity(och)
        if och.meta["quad_err"] <= QUAD_REL_ERR * abs(infid):
            break
    else:
        raise ValueError(f"cell quadrature not converged at order {QUAD_ORDERS[-1]}: error "
                         f"estimate {och.meta['quad_err']:.2e} against infidelity {infid:.3e}")
    return {"infidelity": infid, "channel": och}


def sweep_point(noise: str, delta_db: float, param: float, s_max: int, nodes: int,
                code=None, cell=None):
    """One sweep row: orthonormalized logical-channel metrics plus the
    truncation residual at s_max + 1, each channel built as _analysis says;
    only the infidelity of the s_max + 1 channel is read."""
    code = square_code() if code is None else code
    cell = voronoi_box(code) if cell is None else cell
    delta = _delta_from_db(delta_db)
    cf = _build_charfun(noise, delta, param, nodes)
    res, res2 = (_analysis(cf, code, cell, s) for s in (s_max, s_max + 1))
    infid, infid2 = res["infidelity"], res2["infidelity"]
    residual = abs(infid - infid2) / infid2 if infid2 > 0 else 0.0
    tp, choi = cptp_diagnostics(res["channel"])
    return {
        "delta_db": delta_db, "nbar_est": _nbar_est(delta), "noise_param": param,
        "avg_gate_infidelity": infid, "tp_defect": tp,
        "min_choi_eig": choi, "smax_residual": residual, "is_baseline": False,
    }


def baseline_point(noise: str, param: float):
    ch = fock_qubit_baseline(noise, param)
    tp, choi = cptp_diagnostics(ch)
    return {
        "delta_db": float("nan"), "nbar_est": 0.5, "noise_param": param,
        "avg_gate_infidelity": average_gate_infidelity(ch), "tp_defect": tp, "min_choi_eig": choi,
        "smax_residual": 0.0, "is_baseline": True,
    }


SWEEP_COLUMNS = ["delta_db", "nbar_est", "noise_param", "avg_gate_infidelity",
                 "tp_defect", "min_choi_eig", "smax_residual", "is_baseline"]


# The keys of each subcommand's config and their defaults.  A list of numbers
# is a grid, a list of strings a list of names, an int a count, a bool a flag;
# README.md documents each key.
SWEEP_KEYS = {"noise": "envelope", "delta_db": [10.0], "noise_param": [0.0], "smax": 1,
              "quadrature_nodes": 64, "baseline": False, "code": None}
BLOCH_KEYS = {"delta_db": [4, 6, 8, 10, 14, 20, 30], "smax": 4}
LATTICE_KEYS = {"code": {"name": "square"}, "symmetric_cell": False}
CLIFFORD_KEYS = {"code": {"name": "square"}, "gates": ["H", "S", "R"]}
ORACLE_KEYS = {"delta_db": [8], "gamma": [0.0, 0.01], "cutoff": 160, "grid": 48, "smax": 2}


def _settings(where: str, cfg, defaults: dict) -> dict:
    """defaults overridden by cfg.  A key outside defaults, a count that is
    not an integer, a flag that is not a boolean, a grid that is not a list
    of real numbers, or a list of names that is not a list of strings raises a
    ValueError naming the key."""
    got = {**defaults, **_checked(where, cfg, (), tuple(defaults))}
    for key, default in defaults.items():
        what = f"{key} in {where}"
        if isinstance(default, bool):
            if not isinstance(got[key], bool):
                raise ValueError(f"{what} must be true or false, got {got[key]!r}")
        elif isinstance(default, int):
            got[key] = _integer(got[key], what)
        elif isinstance(default, list):
            if not isinstance(got[key], list):
                raise ValueError(f"{what} must be a list, got {got[key]!r}")
            for value in got[key]:
                if not isinstance(default[0], str):
                    _real(value, f"each entry of {what}")
                elif not isinstance(value, str):
                    raise ValueError(f"each entry of {what} must be a string, got {value!r}")
    return got


def cmd_sweep(cfg: dict, out):
    cfg = _settings("sweep config", cfg, SWEEP_KEYS)
    noise, deltas, params = cfg["noise"], cfg["delta_db"], cfg["noise_param"]
    if not deltas or not params:
        raise ValueError("delta_db and noise_param grids must be nonempty")

    code, cell = (None, None) if cfg["code"] is None else code_from_config(cfg["code"])
    if code is not None and code.n_modes != 1:
        raise ValueError(f"sweep builds single-mode noise kernels, and its code has {code.n_modes} modes")

    # baselines first, so that a family without one fails before the sweep runs
    baselines = [baseline_point(noise, p) for p in params] if cfg["baseline"] and noise != "envelope" else []
    rows = [sweep_point(noise, db, p, cfg["smax"], cfg["quadrature_nodes"], code, cell)
            for db in deltas for p in params] + baselines

    out.write(",".join(SWEEP_COLUMNS) + "\n")
    for row in rows:
        out.write(",".join(_fmt(row[c]) for c in SWEEP_COLUMNS) + "\n")


def cmd_bloch_trajectory(cfg: dict, out):
    cfg = _settings("bloch-trajectory config", cfg, BLOCH_KEYS)
    s_max = cfg["smax"]
    code = square_code()
    cell = voronoi_box(code)
    states = {
        "0": np.array([1, 0], dtype=complex),
        "1": np.array([0, 1], dtype=complex),
        "+": np.array([1, 1], dtype=complex) / np.sqrt(2),
        "-": np.array([1, -1], dtype=complex) / np.sqrt(2),
    }
    out.write("delta_db,state,r_x,r_y,r_z,inside_octahedron\n")
    for db in cfg["delta_db"]:
        delta = _delta_from_db(db)
        # weak envelopes (large Delta) spread weight over many Pauli shells
        window = max(s_max, 9) if db < 3 else s_max
        ch = logical_channel(code, cell, envelope_charfun(delta), TruncationSpec(window))
        for name, psi in states.items():
            rho = ch.apply(np.outer(psi, psi.conj()))
            rho = rho / np.trace(rho)
            r, inside = bloch_and_octahedron(rho)
            out.write(",".join([_fmt(db), name] + [_fmt(v) for v in r] + [_fmt(inside)]) + "\n")


def cmd_lattice_report(cfg: dict, out):
    cfg = _settings("lattice-report config", cfg, LATTICE_KEYS)
    code, cell = code_from_config(cfg["code"])
    sigma, dims = standard_form(code.generator_matrix())
    report = {"dims": [int(d) for d in dims], "sigma": sigma.tolist(), "shortest_error_lengths": {}}
    for cls in ("any", "X", "Z"):
        try:
            report["shortest_error_lengths"][cls] = shortest_error_length(code, cell, cls)
        except ValueError:
            report["shortest_error_lengths"][cls] = None
    if cfg["symmetric_cell"]:
        pcell = repetition_symmetric_cell(code)
        report["symmetric_cell_X"] = shortest_error_length(code, pcell, "X")
    json.dump(report, out, indent=2)
    out.write("\n")


def cmd_clifford_check(cfg: dict, out):
    opts = _settings("clifford-check config", cfg, CLIFFORD_KEYS)
    code, cell = code_from_config(opts["code"])
    verdicts = {}
    for gate in opts["gates"]:
        if gate not in CLIFFORD_SYMPLECTICS:
            raise ValueError(f"unknown gate {gate!r} in clifford-check config; "
                             f"known gates: {', '.join(CLIFFORD_SYMPLECTICS)}")
        n_a = CLIFFORD_SYMPLECTICS[gate].astype(float)
        if n_a.shape[0] != 2 * code.n_modes:
            continue
        s_a = code.sigma @ n_a @ np.linalg.inv(code.sigma)
        verdicts[gate] = bool(is_cell_invariant(s_a, cell))
    json.dump({"code": cfg.get("code"), "cell_invariant": verdicts}, out, indent=2)
    out.write("\n")


def cmd_oracle_check(cfg: dict, out):
    from .fock import apply_loss, ideal_decode_batch, orthonormalized_codewords

    cfg = _settings("oracle-check config", cfg, ORACLE_KEYS)
    code = square_code()
    cell = voronoi_box(code)
    # the logical z, x and y eigenstates
    basis = [np.array(v, complex) / np.linalg.norm(v) for v in
             ([1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [1, -1j])]
    results = []
    for db in cfg["delta_db"]:
        delta = _delta_from_db(db)
        codewords, _ = orthonormalized_codewords(delta, cfg["cutoff"])
        for gam in cfg["gamma"]:
            cf = envelope_charfun(delta) if gam == 0 else compose(loss_charfun(gam), envelope_charfun(delta))
            _, och = lowdin_orthonormalize(logical_channel(code, cell, cf, TruncationSpec(cfg["smax"])))
            vecs = [psi[0] * codewords[0] + psi[1] * codewords[1] for psi in basis]
            rhos = [apply_loss(np.outer(vec, vec.conj()), gam) for vec in vecs]
            oracles, _ = ideal_decode_batch(rhos, code, grid=cfg["grid"])
            worst = 0.0
            for psi, oracle in zip(basis, oracles):
                pipe = och.apply(np.outer(psi, psi.conj()))
                pipe = pipe / np.trace(pipe)
                ev = np.linalg.eigvalsh(oracle - pipe)
                worst = max(worst, 0.5 * float(np.sum(np.abs(ev))))
            results.append({"delta_db": db, "gamma": gam, "max_trace_distance": worst})
    json.dump({"results": results, "max_trace_distance": max(r["max_trace_distance"] for r in results)},
              out, indent=2)
    out.write("\n")


def main(argv=None):
    commands = {
        "sweep": cmd_sweep,
        "bloch-trajectory": cmd_bloch_trajectory,
        "lattice-report": cmd_lattice_report,
        "clifford-check": cmd_clifford_check,
        "oracle-check": cmd_oracle_check,
    }
    parser = argparse.ArgumentParser(
        prog="gkpsim",
        description="GKP logical-noise sweeps and lattice reports",
    )
    parser.add_argument("command", choices=list(commands))
    parser.add_argument("--config", help="JSON config file", default=None)
    parser.add_argument("--out", help="output path (default stdout)", default=None)
    args = parser.parse_args(argv)

    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)

    command = commands[args.command]
    if args.out:
        with open(args.out, "w") as fh:
            command(cfg, fh)
    else:
        command(cfg, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
