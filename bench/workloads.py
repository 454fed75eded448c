"""Workload menus and the seeded row generator.

A workload is a list of slots. Each slot is a finite menu of sweep points
that cost about the same to compute (same code, cell, truncation S and
kernel-term count; only dB, noise family and noise parameter differ). A seed
draws one point from each slot, and those rows, in slot order, make one pass.
Because every seed draws the same number of points from the same slots, a
pass costs about the same whatever the seed, while the values that the
answer depends on still change from seed to seed.

Every menu point has a stored reference in references/<workload>.json. Slots hold
points of one seed status only, so every seed draws the same number of
rows that fail the check at the seed commit.

This module imports nothing from numpy or gkpsim, so that the benchmark can
pin the BLAS thread count before either is loaded.
"""

from __future__ import annotations

import random

HEX_CODE = {"name": "hexagonal", "cell": {"voronoi": {}}}
DEPHASING_NODES = 64


def _points(noise, dbs, params, s_max, code=None):
    return [
        {"noise": noise, "delta_db": db, "noise_param": p, "smax": s_max, "code": code}
        for db in dbs for p in params
    ]


# Square qubit code on voronoi_box, float path (dB <= 25). Passing rows of
# one S cost the same whatever the family, dB and noise parameter (the same
# box-integral and Pauli-matrix counts): about 0.3 s at S 1, 1.3 s at S 2 and
# 3.3 s at S 3 on a quiet host. Failing rows cost less, because their
# underflowed coefficients skip the Pauli matrices. A pass takes about 8 s,
# and 12 s when the host is slow, so a run of 30 s times at least two.
# Two rows sit below the three S = 2 rows and one above, so the median row
# of a run lies inside the S = 2 group, clear of the cheaper and dearer rows.
# S = 4 rows (about 7 s, up to 15 s on a busy host) would leave room for only
# one pass.
FLOAT_BOX = [
    _points("displacement", [6, 8, 10], [0.005, 0.01, 0.02], 2),
    _points("envelope", [6, 8, 10, 12], [0.0], 1) + _points("loss", [8, 10, 12], [0.005, 0.01, 0.02], 1),
    _points("loss", [8, 10, 12], [0.005, 0.01, 0.02], 2),
    _points("loss", [8, 10, 12], [0.01, 0.02], 3),
    _points("envelope", [8, 10, 12], [0.0], 2),
    # The float path loses the answer above about 16 dB without a warning;
    # the rows of this slot fail the reference check at the seed commit.
    _points("envelope", [16, 18, 20, 22, 24], [0.0], 1),
]

# 64-node white-noise dephasing at S = 1, where the decay precheck accepts
# the kernel: at sigma^2 = 0.02 it refuses 12 dB and above.
DEPHASING = [
    _points("dephasing", [8, 10, 12], [0.005, 0.01], 1) + _points("dephasing", [8, 10], [0.02], 1),
]

# Just above the 25 dB threshold, so sweep_point takes the mpmath path. A
# loss row costs about 15 % more than an envelope row at the same dB, and
# a row costs more as dB grows; these four points cost the same within 3 %,
# so the time of a run does not depend on which one the seed draws.
HIGHPREC = [
    _points("envelope", [25.5, 25.6], [0.0], 1) + _points("loss", [25.2], [0.0005, 0.001], 1),
]

# Hexagonal code on its VoronoiCell: the quadrature path.
HEX_QUAD = [
    _points("envelope", [8, 10, 12], [0.0], 1, HEX_CODE) + _points("loss", [8, 10, 12], [0.005, 0.01], 1, HEX_CODE),
]

WORKLOADS = {
    "float-box": FLOAT_BOX,
    "dephasing": DEPHASING,
    "highprec": HIGHPREC,
    "hex-quad": HEX_QUAD,
}


def point_id(point: dict) -> str:
    """Stable key of a menu point in references.json."""
    code = point["code"]["name"] if point["code"] else "square-box"
    return (f"{code}/{point['noise']}/db={point['delta_db']:g}"
            f"/p={point['noise_param']:g}/S={point['smax']}")


def menu(workload: str) -> list:
    """Every point of a workload, slot by slot."""
    return [p for slot in WORKLOADS[workload] for p in slot]


def rows_for_seed(workload: str, seed: int) -> list:
    """The rows of one pass: one point per slot, drawn from the seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    return [rng.choice(slot) for slot in WORKLOADS[workload]]


def sweep_config(point: dict) -> dict:
    """The `gkpsim sweep` config of one row."""
    cfg = {
        "noise": point["noise"],
        "delta_db": [point["delta_db"]],
        "noise_param": [point["noise_param"]],
        "smax": point["smax"],
        "quadrature_nodes": DEPHASING_NODES,
    }
    if point["code"]:
        cfg["code"] = point["code"]
    return cfg
