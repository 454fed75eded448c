"""The reference table and the check of one sweep row against it."""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

REFERENCE_DIR = Path(__file__).resolve().parent / "references"

# A row fails when its infidelity is off by more than REL_TOL (relative),
# its trace-preservation defect exceeds TP_TOL, or its smallest Choi
# eigenvalue is below -CHOI_TOL.
REL_TOL = 1e-6
TP_TOL = 1e-9
CHOI_TOL = 1e-9


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_references(workload: str) -> dict:
    """{point_id: entry} for one workload."""
    with open(reference_path(workload)) as fh:
        return json.load(fh)["points"]


def parse_row(csv_text: str) -> dict:
    """The single data row of a `gkpsim sweep` CSV, as {column: text}."""
    lines = csv_text.splitlines()
    if len(lines) != 2:
        raise ValueError(f"expected a header and one row, got {len(lines)} lines")
    header, values = lines[0].split(","), lines[1].split(",")
    if len(header) != len(values):
        raise ValueError("row and header have different lengths")
    return dict(zip(header, values))


def relative_error(value: str, reference: str):
    with mp.workdps(30):
        v, r = mp.mpf(value), mp.mpf(reference)
        if r == 0:
            return mp.mpf(0) if v == 0 else mp.inf
        return abs(v - r) / abs(r)


def check_row(csv_text: str, entry: dict) -> list:
    """Reasons the row fails its check; empty when it passes."""
    row = parse_row(csv_text)
    reasons = []
    rel = relative_error(row["avg_gate_infidelity"], entry["infidelity"])
    if not rel <= REL_TOL:
        reasons.append(f"avg_gate_infidelity {row['avg_gate_infidelity']} vs reference "
                       f"{entry['infidelity']} (relative error {mp.nstr(rel, 3)})")
    with mp.workdps(30):
        tp = mp.mpf(row["tp_defect"])
        choi = mp.mpf(row["min_choi_eig"])
    if not tp <= TP_TOL:
        reasons.append(f"tp_defect {row['tp_defect']} > {TP_TOL:g}")
    if not choi >= -CHOI_TOL:
        reasons.append(f"min_choi_eig {row['min_choi_eig']} < {-CHOI_TOL:g}")
    return reasons
