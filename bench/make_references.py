"""Regenerate the reference table of one or more workloads.

    python3 bench/make_references.py float-box dephasing

Box-cell rows get their reference from highprec_channel_analysis at
suggest_dps + 40 digits and the row's S; hexagonal Voronoi rows from
logical_channel(..., quad_order=80). Each point also records what the
current code's `gkpsim sweep` row gives (seed_*), and whether that lies
clear of the tolerances by at least a factor of MARGIN either way; a point
that does not is reported and should leave the menu, so that a rounding
change cannot flip it.

The tables are written to bench/references/<workload>.json.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import mpmath as mp  # noqa: E402
import numpy as np  # noqa: E402

from gkpsim.cli import _build_charfun, _delta_from_db, cmd_sweep  # noqa: E402
from gkpsim.lattice import code_from_config, square_code, voronoi_box  # noqa: E402
from gkpsim.logical import (  # noqa: E402
    TruncationSpec,
    highprec_channel_analysis,
    logical_channel,
    suggest_dps,
)
from gkpsim.metrics import (  # noqa: E402
    average_gate_fidelity,
    cptp_diagnostics,
    lowdin_orthonormalize,
)

import check  # noqa: E402
import workloads  # noqa: E402

MARGIN = 10.0
EXTRA_DPS = 40
REFERENCE_QUAD_ORDER = 80


def reference(point: dict) -> dict:
    delta = _delta_from_db(point["delta_db"])
    cf = _build_charfun(point["noise"], delta, point["noise_param"], workloads.DEPHASING_NODES)
    trunc = TruncationSpec(point["smax"])
    if point["code"] is None:
        dps = suggest_dps(delta) + EXTRA_DPS
        code = square_code()
        res = highprec_channel_analysis(cf, code, voronoi_box(code), trunc, dps=dps)
        with mp.workdps(dps):
            values = [mp.nstr(res[k], 25) for k in ("infidelity", "tp_defect", "min_choi_eig")]
        method = f"highprec_channel_analysis dps={dps}"
    else:
        code, cell = code_from_config(point["code"])
        ch = logical_channel(code, cell, cf, trunc, quad_order=REFERENCE_QUAD_ORDER)
        _, och = lowdin_orthonormalize(ch)
        fid = average_gate_fidelity(och, warn=False)
        tp, choi = cptp_diagnostics(och)
        values = [repr(1 - fid), repr(tp), repr(choi)]
        method = f"logical_channel quad_order={REFERENCE_QUAD_ORDER}"
    return dict(zip(("infidelity", "tp_defect", "min_choi_eig"), values), method=method)


def seed_row(point: dict, entry: dict) -> dict:
    """What the current code gives, and whether it is clear of every tolerance."""
    buf = io.StringIO()
    cmd_sweep(workloads.sweep_config(point), buf)
    row = check.parse_row(buf.getvalue())
    rel = check.relative_error(row["avg_gate_infidelity"], entry["infidelity"])
    tp = float(row["tp_defect"])
    choi = float(row["min_choi_eig"])
    clear = [
        rel * MARGIN <= check.REL_TOL or rel >= check.REL_TOL * MARGIN,
        tp * MARGIN <= check.TP_TOL or tp >= check.TP_TOL * MARGIN,
        -choi * MARGIN <= check.CHOI_TOL or -choi >= check.CHOI_TOL * MARGIN,
    ]
    return {
        "seed_infidelity": row["avg_gate_infidelity"],
        "seed_rel_err": mp.nstr(rel, 3),
        "seed_tp_defect": row["tp_defect"],
        "seed_min_choi_eig": row["min_choi_eig"],
        "seed_status": "fail" if check.check_row(buf.getvalue(), entry) else "pass",
        "clear_of_tolerance": all(clear),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in args.workloads:
        points = {}
        for point in workloads.menu(name):
            t0 = time.perf_counter()
            entry = reference(point)
            entry.update(seed_row(point, entry))
            points[workloads.point_id(point)] = entry
            print(f"{workloads.point_id(point)}: {entry['seed_status']} rel_err "
                  f"{entry['seed_rel_err']} clear={entry['clear_of_tolerance']} "
                  f"({time.perf_counter() - t0:.1f} s)", flush=True)
        table = {
            "generated_with": {
                "numpy": np.__version__,
                "mpmath": mp.__version__,
                "mpmath_backend": mp.libmp.BACKEND,
            },
            "points": points,
        }
        with open(check.reference_path(name), "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
