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
from .states import CLIFFORD_TABLE
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

# Cells other than a BoxCell integrate by Gauss-Legendre rules of a given
# order, checked against 1.5 times that order.  Deep rows rest on Gaussians
# (dephasing terms, or tails at the cell edge) narrower than the nodes of
# order 40: on the square code's Voronoi cell a 26 dB envelope row came out
# 2e-5 relative off the closed form on voronoi_box, and a 26 dB dephasing
# row 2e-8 off.  A channel whose quadrature error estimate (meta["quad_err"])
# exceeds QUAD_REL_ERR of its infidelity is built again at the next order,
# and a row still above it at the last order raises.  The estimate is the
# lower order's error, so it overstates that of the value kept: envelope
# rows go to order 80 from about 20 dB, to 160 at 26 dB, and raise at 29 dB.
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
    """Metrics of the Loewdin-orthonormalized channel at truncation s_max.  The
    channel is built in double precision, and built again at FALLBACK_DPS
    digits when its integrals underflowed and its infidelity lies below
    RERUN_BELOW, or at a higher quadrature order while its quadrature error
    estimate exceeds QUAD_REL_ERR of its infidelity."""
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
    tp, choi = cptp_diagnostics(och)
    return {"infidelity": infid, "tp_defect": tp, "min_choi_eig": choi}


def sweep_point(noise: str, delta_db: float, param: float, s_max: int, nodes: int,
                code=None, cell=None):
    """One sweep row: orthonormalized logical-channel metrics plus the
    truncation residual at s_max + 1, each channel built as _analysis says."""
    code = square_code() if code is None else code
    cell = voronoi_box(code) if cell is None else cell
    delta = _delta_from_db(delta_db)
    cf = _build_charfun(noise, delta, param, nodes)
    res, res2 = (_analysis(cf, code, cell, s) for s in (s_max, s_max + 1))
    infid, infid2 = res["infidelity"], res2["infidelity"]
    residual = abs(infid - infid2) / infid2 if infid2 > 0 else 0.0
    return {
        "delta_db": delta_db, "nbar_est": _nbar_est(delta), "noise_param": param,
        "avg_gate_infidelity": infid, "tp_defect": res["tp_defect"],
        "min_choi_eig": res["min_choi_eig"], "smax_residual": residual, "is_baseline": False,
    }


def baseline_point(noise: str, param: float):
    family = "loss" if noise in ("loss", "displacement") else "dephasing"
    ch = fock_qubit_baseline(family, param)
    tp, choi = cptp_diagnostics(ch)
    return {
        "delta_db": float("nan"), "nbar_est": 0.5, "noise_param": param,
        "avg_gate_infidelity": average_gate_infidelity(ch), "tp_defect": tp, "min_choi_eig": choi,
        "smax_residual": 0.0, "is_baseline": True,
    }


SWEEP_COLUMNS = ["delta_db", "nbar_est", "noise_param", "avg_gate_infidelity",
                 "tp_defect", "min_choi_eig", "smax_residual", "is_baseline"]


def cmd_sweep(cfg: dict, out):
    noise = cfg.get("noise", "envelope")
    deltas = cfg.get("delta_db", [10.0])
    params = cfg.get("noise_param", [0.0])
    s_max = int(cfg.get("smax", 1))
    nodes = int(cfg.get("quadrature_nodes", 64))
    include_baseline = bool(cfg.get("baseline", False))
    if not deltas or not params:
        raise ValueError("delta_db and noise_param grids must be nonempty")

    code, cell = (None, None)
    if "code" in cfg:
        code, cell = code_from_config(cfg["code"])

    rows = [sweep_point(noise, db, p, s_max, nodes, code, cell) for db in deltas for p in params]
    if include_baseline and noise != "envelope":
        rows.extend(baseline_point(noise, p) for p in params)

    out.write(",".join(SWEEP_COLUMNS) + "\n")
    for row in rows:
        out.write(",".join(_fmt(row[c]) for c in SWEEP_COLUMNS) + "\n")


def cmd_bloch_trajectory(cfg: dict, out):
    deltas = cfg.get("delta_db", [4, 6, 8, 10, 14, 20, 30])
    s_max = int(cfg.get("smax", 4))
    code = square_code()
    cell = voronoi_box(code)
    states = {
        "0": np.array([1, 0], dtype=complex),
        "1": np.array([0, 1], dtype=complex),
        "+": np.array([1, 1], dtype=complex) / np.sqrt(2),
        "-": np.array([1, -1], dtype=complex) / np.sqrt(2),
    }
    out.write("delta_db,state,r_x,r_y,r_z,inside_octahedron\n")
    for db in deltas:
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
    code, cell = code_from_config(cfg.get("code", {"name": "square"}))
    m = code.generator_matrix()
    sigma, dims = standard_form(m)
    report = {
        "dims": [int(d) for d in dims],
        "sigma": sigma.tolist(),
        "shortest_error_lengths": {},
    }
    classes = ["any", "X", "Z"]
    for cls in classes:
        try:
            report["shortest_error_lengths"][cls] = shortest_error_length(code, cell, cls)
        except ValueError:
            report["shortest_error_lengths"][cls] = None
    if cfg.get("symmetric_cell", False):
        pcell = repetition_symmetric_cell(code)
        report["symmetric_cell_X"] = shortest_error_length(code, pcell, "X")
    json.dump(report, out, indent=2)
    out.write("\n")


def cmd_clifford_check(cfg: dict, out):
    code, cell = code_from_config(cfg.get("code", {"name": "square"}))
    gates = cfg.get("gates", ["H", "S", "R"])
    verdicts = {}
    for gate in gates:
        n_a = CLIFFORD_TABLE[gate][0].astype(float)
        if n_a.shape[0] != 2 * code.n_modes:
            continue
        s_a = code.sigma @ n_a @ np.linalg.inv(code.sigma)
        verdicts[gate] = bool(is_cell_invariant(s_a, cell))
    json.dump({"code": cfg.get("code"), "cell_invariant": verdicts}, out, indent=2)
    out.write("\n")


def cmd_oracle_check(cfg: dict, out):
    from .fock import apply_loss, ideal_decode, orthonormalized_codewords

    deltas = cfg.get("delta_db", [8])
    gammas = cfg.get("gamma", [0.0, 0.01])
    cutoff = int(cfg.get("cutoff", 160))
    grid = int(cfg.get("grid", 48))
    s_max = int(cfg.get("smax", 2))
    code = square_code()
    cell = voronoi_box(code)
    basis = {
        "z+": np.array([1, 0], complex), "z-": np.array([0, 1], complex),
        "x+": np.array([1, 1], complex) / np.sqrt(2), "x-": np.array([1, -1], complex) / np.sqrt(2),
        "y+": np.array([1, 1j], complex) / np.sqrt(2), "y-": np.array([1, -1j], complex) / np.sqrt(2),
    }
    results = []
    for db in deltas:
        delta = _delta_from_db(db)
        codewords, _ = orthonormalized_codewords(delta, cutoff)
        for gam in gammas:
            cf = envelope_charfun(delta) if gam == 0 else compose(loss_charfun(gam), envelope_charfun(delta))
            ch = logical_channel(code, cell, cf, TruncationSpec(s_max))
            _, och = lowdin_orthonormalize(ch)
            worst = 0.0
            for name, psi in basis.items():
                vec = psi[0] * codewords[0] + psi[1] * codewords[1]
                rho = np.outer(vec, vec.conj())
                if gam > 0:
                    rho = apply_loss(rho, gam)
                oracle, _ = ideal_decode(rho, code, grid=grid)
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
