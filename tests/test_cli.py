"""`gkpsim` subcommands driven through cli.main on tiny configs.  The sweep
and Bloch values were printed by the code before the chi representation
replaced the Pauli-pair dict (the Bloch state column was added later); the
JSON reports by the code before precision became a digit count.  The 26 and
30 dB envelope rows were printed by the mpmath path at 199 and 410 digits,
before the infidelity became a cancellation-free diagonal sum.

Float values agree to 1e-9 relative, with an absolute floor for values that
are rounding noise (trace defects, Choi eigenvalues and Bloch components
near 1e-16 and below, zeros of the lattice matrices).  smax_residual divides a difference of two
fidelities by the infidelity, so its rounding floor is 1e-15 / infidelity.
The 26 dB row runs in double precision, where the diagonal sum matches the
199-digit infidelity to DEEP_REL.  Rows whose infidelity lies below
cli.RERUN_BELOW take the dps-30 fallback and must reproduce every printed
digit of the infidelity; their tp_defect and min_choi_eig are rounding noise
of 30-digit arithmetic, so only their size is checked.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

import gkpsim
from gkpsim import cli

REL = 1e-9
NOISE = 1e-15
DEEP_REL = 1e-12  # double-precision diagonal sum against a stored mpmath infidelity

ENVELOPE_SWEEP = """\
delta_db,nbar_est,noise_param,avg_gate_infidelity,tp_defect,min_choi_eig,smax_residual,is_baseline
8,2.6547867224009667,0,0.0021036638176424871,4.4408920985037451e-16,5.1411943921186261e-06,3.0873776692780779e-11,0
26,198.55358527674869,0,6.8557214597667489e-138,2.6192633760572472e-201,-2.4795424599424483e-201,0.0,0
30,499.50000000000011,0,2.1598615577169454e-343,1.2418121899148105e-411,4.8709882527812633e-412,0.0,0
"""

LOSS_SWEEP = """\
delta_db,nbar_est,noise_param,avg_gate_infidelity,tp_defect,min_choi_eig,smax_residual,is_baseline
8,2.6547867224009667,0.01,0.0028669369918116194,5.3844763693495977e-16,9.5807245268905923e-06,6.3547820853028699e-11,0
12,7.4244659623055664,0.01,4.7884142586607226e-06,7.0212627287180505e-16,2.579518924714563e-11,0,0
nan,0.5,0.01,0.0033375209644600501,2.2204460492503131e-16,-2.4271202147905364e-16,0,1
"""

BLOCH = """\
delta_db,state,r_x,r_y,r_z,inside_octahedron
6,0,0.076286387972294589,3.9565019661571786e-20,0.97628137988172936,0
6,1,0.086206448483599207,-4.6648337282991314e-20,-0.97491446829358452,0
6,+,0.97628137988172914,5.9285994870933139e-18,0.0762863879722947,0
6,-,-0.97491446829358475,-6.9899954771995583e-18,0.086206448483599263,0
10,0,0.0007558001252043297,-5.9931632967035174e-24,0.99985322930001552,0
10,1,0.00075676214184030774,-3.6013416612327759e-24,-0.99985315986070344,0
10,+,0.99985322930001563,5.5251203605388047e-20,0.00075580012520437556,0
10,-,-0.99985315986070344,-5.5344449725646664e-20,0.00075676214184033919,0
"""

HEX_CODE = {"name": "hexagonal", "cell": {"voronoi": {}}}

HEX_REPORT = """\
{"dims": [2], "sigma": [[1.074569931823542, -0.537284965911771], [0.0, 0.9306048591020997]],
 "shortest_error_lengths": {"any": 0.37991784282579627, "X": 0.37991784282579627,
                            "Z": 0.37991784282579627}}
"""

REPETITION_REPORT = """\
{"dims": [2, 1, 1],
 "sigma": [[0.7598356856515925, 0.0, 0.0, 0.0, 0.0, 0.0],
           [0.7598356856515925, 1.074569931823542, 0.0, 0.0, 0.0, 0.0],
           [0.7598356856515925, 0.0, 1.074569931823542, 0.0, 0.0, 0.0],
           [0.0, 0.0, 0.0, 1.3160740129524924, -0.9306048591020996, -0.9306048591020996],
           [0.0, 0.0, 0.0, 0.0, 0.9306048591020996, 0.0],
           [0.0, 0.0, 0.0, 0.0, 0.0, 0.9306048591020996]],
 "shortest_error_lengths": {"any": 0.4653024295510497, "X": 0.4653024295510497,
                            "Z": 0.4653024295510497},
 "symmetric_cell_X": 0.3799178428257962}
"""


def _run(tmp_path, command, cfg, *extra):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    assert cli.main([command, "--config", str(cfg_path), "--out", str(out), *extra]) == 0
    return out.read_text()


def _rows(csv_text):
    lines = csv_text.splitlines()
    return lines[0].split(","), [[mp.mpf(v) for v in line.split(",")] for line in lines[1:]]


def _assert_json_close(got, want):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want)
        for key in want:
            _assert_json_close(got[key], want[key])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_json_close(g, w)
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=REL, abs=NOISE)
    else:
        assert got == want


def _assert_sweep_close(got_text, want_text):
    header, got = _rows(got_text)
    _, want = _rows(want_text)
    assert header == cli.SWEEP_COLUMNS
    assert len(got) == len(want)
    col = {name: i for i, name in enumerate(header)}
    for g, w in zip(got, want):
        infid = w[col["avg_gate_infidelity"]]
        fallback = infid < cli.RERUN_BELOW  # the dps-30 path
        deep = infid < 1e-16  # stored by an mpmath path; 1 - F rounds it away in double precision
        for name, i in col.items():
            if fallback and name == "avg_gate_infidelity":
                assert abs(g[i] - w[i]) <= 1e-16 * w[i], name
            elif fallback and name == "tp_defect":
                assert 0 <= g[i] < 1e-25
            elif fallback and name == "min_choi_eig":
                assert g[i] >= -1e-25
            elif deep and name == "avg_gate_infidelity":
                assert abs(g[i] - w[i]) <= DEEP_REL * w[i], name
            elif name == "delta_db" and mp.isnan(w[i]):
                assert mp.isnan(g[i])
            else:
                floor = NOISE / infid if name == "smax_residual" and infid > 0 else NOISE
                assert abs(g[i] - w[i]) <= REL * abs(w[i]) + floor, (name, g[i], w[i])


def test_sweep_envelope_float_and_highprec_rows(tmp_path):
    cfg = {"noise": "envelope", "delta_db": [8, 26, 30], "noise_param": [0.0], "smax": 1,
           "baseline": True}
    _assert_sweep_close(_run(tmp_path, "sweep", cfg), ENVELOPE_SWEEP)


def test_sweep_loss_with_baseline(tmp_path):
    cfg = {"noise": "loss", "delta_db": [8, 12], "noise_param": [0.01], "smax": 1,
           "baseline": True}
    _assert_sweep_close(_run(tmp_path, "sweep", cfg), LOSS_SWEEP)


def test_bloch_trajectory(tmp_path):
    got = _run(tmp_path, "bloch-trajectory", {"delta_db": [6, 10], "smax": 1}).splitlines()
    want = BLOCH.splitlines()
    assert got[0] == want[0]
    assert len(got) == len(want)
    for g, w in zip(got[1:], want[1:]):
        g, w = g.split(","), w.split(",")
        assert len(g) == len(w) == 6
        assert g[1] == w[1]  # the state name, text
        for a, b in zip(g[:1] + g[2:], w[:1] + w[2:]):
            assert abs(mp.mpf(a) - mp.mpf(b)) <= REL * abs(mp.mpf(b)) + NOISE


@pytest.mark.parametrize("cfg, want", [
    ({"code": HEX_CODE}, HEX_REPORT),
    ({"code": {"name": "repetition", "params": {"n": 3}, "cell": {"voronoi": {}}},
      "symmetric_cell": True}, REPETITION_REPORT),
])
def test_lattice_report(tmp_path, cfg, want):
    _assert_json_close(json.loads(_run(tmp_path, "lattice-report", cfg)), json.loads(want))


@pytest.mark.parametrize("code, verdicts", [
    ({"name": "square", "cell": {"voronoi": {}}}, {"H": True, "S": False, "R": False}),
    (HEX_CODE, {"H": False, "S": False, "R": True}),
])
def test_clifford_check(tmp_path, code, verdicts):
    got = json.loads(_run(tmp_path, "clifford-check", {"code": code}))
    assert got == {"code": code, "cell_invariant": verdicts}


def test_clifford_check_two_modes_skips_single_mode_gates(tmp_path):
    code = {"name": "square", "params": {"n": 2}}
    got = json.loads(_run(tmp_path, "clifford-check", {"code": code, "gates": ["H", "S", "R", "CZ", "CNOT"]}))
    assert got == {"code": code, "cell_invariant": {"CZ": False, "CNOT": False}}


def test_clifford_check_unknown_gate_raises(tmp_path):
    with pytest.raises(ValueError, match="unknown gate 'T' in clifford-check config; known gates: H, S, R, CZ"):
        _run(tmp_path, "clifford-check", {"gates": ["H", "T"]})


def test_oracle_check(tmp_path):
    # the Fock oracle and the chi pipeline agree to 5.4e-11 here; grid 12
    # still passes the decoder's own refinement check against grid 18
    cfg = {"delta_db": [8], "gamma": [0.0, 0.01], "cutoff": 120, "grid": 12}
    got = json.loads(_run(tmp_path, "oracle-check", cfg))
    assert [(r["delta_db"], r["gamma"]) for r in got["results"]] == [(8, 0.0), (8, 0.01)]
    assert got["max_trace_distance"] == max(r["max_trace_distance"] for r in got["results"])
    assert got["max_trace_distance"] < 1e-8


@pytest.mark.parametrize("command, cfg, key", [
    ("sweep", {"s_max": 3}, "s_max"),
    ("bloch-trajectory", {"delta_dB": [6]}, "delta_dB"),
    ("lattice-report", {"symmetric": True}, "symmetric"),
    ("clifford-check", {"gate": ["H"]}, "gate"),
    ("oracle-check", {"gammas": [0.0]}, "gammas"),
])
def test_misspelt_config_key_raises(tmp_path, command, cfg, key):
    with pytest.raises(ValueError, match=f"unknown key '{key}' in {command} config"):
        _run(tmp_path, command, cfg)


@pytest.mark.parametrize("command, cfg, message", [
    ("sweep", {"smax": 2.7}, "smax in sweep config must be an integer"),
    ("sweep", {"quadrature_nodes": "8"}, "quadrature_nodes in sweep config must be an integer"),
    ("sweep", {"baseline": "no"}, "baseline in sweep config must be true or false"),
    ("sweep", {"delta_db": 10}, "delta_db in sweep config must be a list"),
    ("sweep", {"noise_param": [True]}, "each entry of noise_param in sweep config must be a real number"),
    ("bloch-trajectory", {"smax": True}, "smax in bloch-trajectory config must be an integer"),
    ("lattice-report", {"symmetric_cell": 1}, "symmetric_cell in lattice-report config must be true or false"),
    ("oracle-check", {"cutoff": 120.5}, "cutoff in oracle-check config must be an integer"),
    ("oracle-check", {"grid": 12.5}, "grid in oracle-check config must be an integer"),
    ("clifford-check", {"gates": "HS"}, "gates in clifford-check config must be a list"),
    ("clifford-check", {"gates": [1]}, "each entry of gates in clifford-check config must be a string"),
])
def test_config_value_of_the_wrong_kind_raises(tmp_path, command, cfg, message):
    with pytest.raises(ValueError, match=message):
        _run(tmp_path, command, cfg)


@pytest.mark.parametrize("cfg", [
    {"noise": "loss", "delta_db": [8], "noise_param": [0.01]},
    {"noise": "dephasing", "delta_db": [8], "noise_param": [0.01], "quadrature_nodes": 8},
    {"noise": "envelope", "delta_db": [10], "code": HEX_CODE},
], ids=["square-box", "dephasing-8-nodes", "hexagonal-voronoi"])
def test_sweep_output_is_byte_for_byte_deterministic(tmp_path, cfg):
    # two fresh interpreters and this one print the same bytes
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    src = str(Path(gkpsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    outs = [subprocess.run([sys.executable, "-m", "gkpsim.cli", "sweep", "--config", str(cfg_path)],
                           env=env, capture_output=True, check=True).stdout for _ in range(2)]
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out.csv")]) == 0
    outs.append((tmp_path / "out.csv").read_bytes())
    assert outs[0].count(b"\n") == 2
    assert outs[0] == outs[1] == outs[2]


def test_two_mode_sweep_raises_before_building_a_kernel(tmp_path, monkeypatch):
    # it once died inside the decay precheck with a bare numpy shape error
    def building(*args):
        raise AssertionError("a noise kernel was built")

    monkeypatch.setattr(cli, "_build_charfun", building)
    cfg = {"code": {"name": "square", "params": {"n": 2}}, "noise": "envelope"}
    with pytest.raises(ValueError, match="sweep builds single-mode noise kernels, and its code has 2 modes"):
        _run(tmp_path, "sweep", cfg)


def test_integral_float_count_is_accepted(tmp_path):
    # JSON may spell a count 1.0; it is the same S as 1
    cfg = {"noise": "loss", "delta_db": [8], "noise_param": [0.01], "smax": 1.0}
    assert _run(tmp_path, "sweep", cfg) == _run(tmp_path, "sweep", dict(cfg, smax=1))


def test_displacement_has_no_baseline(tmp_path):
    # the amplitude-damping baseline once printed here, labelled as a baseline
    cfg = {"noise": "displacement", "delta_db": [8], "noise_param": [0.01], "baseline": True}
    with pytest.raises(ValueError, match="'displacement'.* loss and dephasing"):
        _run(tmp_path, "sweep", cfg)


def _readme_keys(command):
    """{key: default} of the config table under the command's README.md heading."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split(f"### `{command}`\n", 1)[1].split("\n#", 1)[0]
    return {key: json.loads(default) for key, default in re.findall(r"^\| `(\w+)` \| `(.+?)` \|", section, re.M)}


@pytest.mark.parametrize("command, keys", [
    ("sweep", cli.SWEEP_KEYS), ("bloch-trajectory", cli.BLOCH_KEYS), ("lattice-report", cli.LATTICE_KEYS),
    ("clifford-check", cli.CLIFFORD_KEYS), ("oracle-check", cli.ORACLE_KEYS),
])
def test_readme_lists_every_config_key_and_default(command, keys):
    assert _readme_keys(command) == keys
