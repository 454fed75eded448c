"""Sweep benchmark for gkpsim: time to a correct `gkpsim sweep` row.

    python3 bench/run.py --workload float-box --seed 1 --seconds 30 --trace 0

The seed draws one pass of rows (see workloads.py). Each row goes through
gkpsim.cli.cmd_sweep, the function behind `gkpsim sweep`, in this process
and on one thread, back to back (closed loop, one client). Passes repeat
until the next row would overrun --seconds, so the last pass may stop part
way; the first pass always runs whole. Every row's CSV is checked against
the stored reference (check.py), and every repeat of a row must print the
same bytes.

--trace 0 prints the end-to-end metrics. --trace 1 runs each pass untraced
and then traced (tracing.py), requires the two CSVs to be byte-identical,
and prints the per-layer metrics of the traced passes, per pass.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. `failed` counts rows whose call
raised. `correct` is false when a row that passed at the seed commit raises
or fails its check, or when output differs between repeats; rows that the
reference table records as failing at the seed commit are reported (in
pass_frac, fail_frac and the failing-rows line) without making the run
incorrect.
"""

from __future__ import annotations

import os

# Pinned before numpy can be imported, here and in every child interpreter.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5

END_TO_END_UNITS = {"setup_s": "s", "sweep_s": "s", "sweep_cpu_s": "s", "row_p50_s": "s",
                    "peak_rss_mb": "MB", "pass_frac": "ratio"}
# Units of the per-layer metrics that are neither self times (`_s`) nor counts.
LAYER_UNITS = {"logical.box_us": "us", "logical.quad_err_max": "abs", "logical.highprec_dps": "digits",
               "superop.matrix_per_channel": "ratio", "trace.overhead_frac": "ratio", "fail_frac": "ratio"}


def layer_unit(name: str) -> str:
    return LAYER_UNITS.get(name, "s" if name.endswith("_s") else "count")


# Time from a fresh interpreter until the first row could start: importing
# gkpsim and building the workload's code and cell.
SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import gkpsim.cli
from gkpsim.lattice import code_from_config, square_code, voronoi_box
code_cfg = json.loads(sys.argv[2])
if code_cfg is None:
    code = square_code()
    cell = voronoi_box(code)
else:
    code, cell = code_from_config(code_cfg)
print(time.perf_counter() - t0)
"""


def measure_setup(code_cfg) -> list:
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), json.dumps(code_cfg)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def run_pass(cmd_sweep, rows, tracer=None, deadline=None, expected=None) -> dict:
    """One pass over the rows; per row: wall s, cpu s, CSV text, error or None.

    With a deadline, the pass stops before the first row that would end
    after it, by that row's expected seconds.
    """
    out = {"wall": [], "cpu": [], "csv": [], "error": []}
    for i, point in enumerate(rows):
        if deadline is not None and perf_counter() + expected[i] > deadline:
            break
        cfg = workloads.sweep_config(point)
        buf = io.StringIO()
        error = None
        w0, c0 = perf_counter(), process_time()
        try:
            if tracer is None:
                cmd_sweep(cfg, buf)
            else:
                with tracer.span("cli.row"):
                    cmd_sweep(cfg, buf)
        except Exception as exc:  # a row that raises is a failed operation, not a crash
            error = f"{type(exc).__name__}: {exc}"
        out["wall"].append(perf_counter() - w0)
        out["cpu"].append(process_time() - c0)
        out["csv"].append(buf.getvalue())
        out["error"].append(error)
    return out


def row_verdicts(passes, entries) -> list:
    """Per row of every pass: None when it passes, else the reasons it fails."""
    verdicts = []
    for p in passes:
        for csv_text, error, entry in zip(p["csv"], p["error"], entries):
            if error is not None:
                verdicts.append([f"raised {error}"])
            else:
                try:
                    reasons = check.check_row(csv_text, entry)
                except ValueError as exc:
                    reasons = [f"unreadable CSV: {exc}"]
                verdicts.append(reasons or None)
    return verdicts


def slot_medians(passes, key) -> list:
    """Per slot of the pass, the median of its timed rows."""
    return [statistics.median(p[key][i] for p in passes if i < len(p[key]))
            for i in range(len(passes[0][key]))]


def environment(args, rows) -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "rows": [workloads.point_id(p) for p in rows],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gkpsim sweep benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gkpsim" / "__init__.py").is_file():
        print(f"bench: no gkpsim sources under {SRC}", file=sys.stderr)
        return 2
    rows = workloads.rows_for_seed(args.workload, args.seed)
    setup = measure_setup(rows[0]["code"]) if args.trace == 0 else []

    sys.path.insert(0, str(SRC))
    import gkpsim

    if Path(gkpsim.__file__).resolve().parent != SRC / "gkpsim":
        print(f"bench: gkpsim was imported from {gkpsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from gkpsim.cli import cmd_sweep

    refs = check.load_references(args.workload)
    entries = [refs[workloads.point_id(p)] for p in rows]
    print(json.dumps({"environment": environment(args, rows)}), flush=True)

    if args.trace:
        import tracing
    start = perf_counter()
    deadline = start + args.seconds
    plain, traced, layers = [], [], []
    if args.trace:
        # Per-layer metrics are per pass, so traced runs stop at a pass boundary.
        while True:
            t0 = perf_counter()
            plain.append(run_pass(cmd_sweep, rows))
            tracer = tracing.Tracer()
            with tracing.patched(tracer):
                traced.append(run_pass(cmd_sweep, rows, tracer))
            layers.append(tracing.layer_metrics(tracer))
            if perf_counter() + (perf_counter() - t0) > deadline:
                break
    else:
        plain.append(run_pass(cmd_sweep, rows))
        while len(plain[-1]["wall"]) == len(rows):
            more = run_pass(cmd_sweep, rows, deadline=deadline, expected=plain[0]["wall"])
            if not more["wall"]:
                break
            plain.append(more)

    verdicts = row_verdicts(plain + traced, entries)
    ran = [i for p in plain + traced for i in range(len(p["csv"]))]
    seed_status = [entries[i]["seed_status"] for i in ran]
    row_ids = [workloads.point_id(rows[i]) for i in ran]
    unexpected = any(v and s == "pass" for v, s in zip(verdicts, seed_status))
    same_bytes = all(p["csv"] == plain[0]["csv"][:len(p["csv"])] for p in plain + traced)
    failing = sorted({(i, "; ".join(v), s) for i, v, s in zip(row_ids, verdicts, seed_status) if v})
    row_s = slot_medians(plain, "wall")
    print(json.dumps({
        "passes": len(plain), "rows_per_pass": len(rows), "rows_timed": sum(len(p["wall"]) for p in plain),
        "row_s": row_s,
        "identical_output_across_passes": same_bytes,
        "failing_rows": [{"row": i, "why": why, "seed_status": s} for i, why, s in failing],
    }), flush=True)

    attempted = len(verdicts)
    failed = sum(e is not None for p in plain + traced for e in p["error"])
    # Share of rows that fail, taken slot by slot, so that a last pass cut
    # short does not change the mix of slots.
    slot_bad = [[v is not None for i, v in zip(ran, verdicts) if i == slot] for slot in range(len(rows))]
    bad_frac = statistics.mean(statistics.mean(bad) for bad in slot_bad)
    if args.trace:
        metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        traced_s = sum(slot_medians(traced, "wall"))
        metrics["trace.sweep_s"] = traced_s
        metrics["trace.overhead_frac"] = traced_s / sum(row_s) - 1
        metrics["fail_frac"] = bad_frac
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "sweep_s": sum(row_s),
            "sweep_cpu_s": sum(slot_medians(plain, "cpu")),
            "row_p50_s": statistics.median(row_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": 1 - bad_frac,
        }
        units = END_TO_END_UNITS
    print(json.dumps({
        "correct": not unexpected and same_bytes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
