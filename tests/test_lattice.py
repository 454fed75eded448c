import itertools
import json

import numpy as np
import pytest

from gkpsim.lattice import (
    CLIFFORD_SYMPLECTICS,
    MAX_WINDOW,
    BoxCell,
    GkpCode,
    ShiftedUnionCell,
    VoronoiCell,
    code_from_config,
    hexagonal_code,
    is_cell_invariant,
    rectangular_code,
    repetition_code,
    repetition_symmetric_cell,
    shortest_error_length,
    square_code,
    voronoi_box,
)
from gkpsim.logical import pauli_matrix
from gkpsim.symplectic import INTEGRALITY_TOL, check_symplectic, is_integral, omega, rotation

ALPHA_STAR = 3 ** -0.25


def _check_lattice(code):
    """Lattice and dual-lattice symplectic integrality."""
    m = code.generator_matrix()
    om = omega(code.n_modes)
    mbar = code.dual_basis().T
    return (is_integral(m @ om @ m.T, INTEGRALITY_TOL)
            and is_integral(mbar @ om @ m.T, INTEGRALITY_TOL))


def test_code_lattice_integrality():
    for code in (square_code(), hexagonal_code(), rectangular_code(0.8),
                 repetition_code(3, ALPHA_STAR), square_code(3)):
        assert _check_lattice(code)


def test_pauli_commutation_phases():
    # exp(2 i pi mbar_J^T Omega m_K) reproduces the Pauli commutation of the code
    for code in (square_code(), hexagonal_code(), square_code(3)):
        om = omega(code.n_modes)
        n = code.n_modes
        for j in range(2 * n):
            for k in range(2 * n):
                prod = code.mbar(j) @ om @ code.m(k)
                assert abs(prod - round(prod)) < 1e-9


def test_remainder_idempotence_and_consistency():
    rng = np.random.default_rng(3)
    for code, cell in [(square_code(), voronoi_box(square_code())),
                       (hexagonal_code(), VoronoiCell(hexagonal_code())),
                       (square_code(), VoronoiCell(square_code()))]:
        for _ in range(400):
            v = rng.normal(size=2) * 2.5
            rem, shift = cell.remainder(v)
            code.dual_coefficients(shift)  # raises unless shift is a dual vector
            rem2, shift2 = cell.remainder(rem)
            assert np.allclose(rem2, rem, atol=1e-12)
            assert np.max(np.abs(shift2)) <= 1e-12


def _brute_nearest(basis, v):
    """(smallest squared distance, lexicographically first nearest point) of
    the lattice B Z^n to v, over every coefficient offset within
    d0 / sigma_min + 1/2 of the rounded solution s0, d0 the distance of
    B s0 to v: a point no farther than B s0 has coefficients within
    d0 / sigma_min of B^-1 v."""
    dim = len(v)
    s0 = np.round(np.linalg.solve(basis, v))
    sigma_min = np.linalg.svd(basis, compute_uv=False).min()
    r = int(np.linalg.norm(v - basis @ s0) / sigma_min + 0.5)
    axis = np.arange(-r, r + 1)
    offs = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    pts = (s0 + offs) @ basis.T
    d2 = np.sum((v - pts) ** 2, axis=1)
    return d2.min(), pts[np.argmax(d2 <= d2.min() + 1e-12)]


def _relevant_by_enumeration(basis):
    """Relevant vectors by the coset criterion, each coset Bc + 2 B Z^n
    searched over the k within |Bc| / (2 sigma_min) + 1/2 of -c/2, which
    hold every coset vector Bc + 2 B k no longer than Bc."""
    dim = basis.shape[0]
    sigma_min = np.linalg.svd(basis, compute_uv=False).min()
    rel = []
    for c in itertools.product((0, 1), repeat=dim):
        if any(c):
            bc = basis @ np.array(c, dtype=float)
            r = int(np.linalg.norm(bc) / 2 / sigma_min) + 1
            axis = np.arange(-r, r + 1)
            ks = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
            coset = bc + 2 * ks @ basis.T
            d2 = np.sum(coset ** 2, axis=1)
            shortest = coset[d2 <= d2.min() + 1e-9]
            if len(shortest) == 2:
                rel.extend(shortest)
    return np.array(rel)


def test_voronoi_minimality_against_enumeration():
    # the hexagonal code, a rectangular code with sigma_max / sigma_min = 7.4
    # and one of the random 2D family with sigma_max / sigma_min = 24.1
    for code in [hexagonal_code(), rectangular_code(2.72),
                 GkpCode(rotation(0.3) @ np.diag([np.e, 1 / np.e]) @ [[1, 1.5], [0, 1]], (2,))]:
        cell = VoronoiCell(code)
        basis = code.dual_basis()
        rng = np.random.default_rng(11)
        for _ in range(300):
            v = rng.normal(size=2) * 2.0
            rem, shift = cell.remainder(v)
            d2, first = _brute_nearest(basis, v)
            assert rem @ rem <= d2 + 1e-10
            assert np.allclose(shift, first, rtol=0, atol=1e-12)
        want = _relevant_by_enumeration(basis)
        got = cell.relevant_vectors()
        assert len(got) == len(want)
        assert all(np.min(np.abs(want - r).max(axis=1)) <= 1e-12 for r in got)


def test_remainder_trivial_cases():
    code = square_code()
    cell = voronoi_box(code)
    v = np.array([0.1, -0.2])
    rem, shift = cell.remainder(v)
    assert np.allclose(rem, v) and np.allclose(shift, 0)
    # v equal to the dual generator mbar_1 reduces to the origin
    rem, shift = cell.remainder(np.array([1 / np.sqrt(2), 0.0]))
    assert np.allclose(rem, 0) and np.allclose(shift, [1 / np.sqrt(2), 0.0])
    assert list(code.dual_coefficients(shift)) == [1, 0]


def test_voronoi_search_radius_is_proven():
    a = ALPHA_STAR / np.sqrt(2)
    b = 1 / (np.sqrt(2) * ALPHA_STAR)
    rng = np.random.default_rng(23)
    for code in [square_code(), hexagonal_code(), rectangular_code(0.8), rectangular_code(2.72),
                 square_code(2, 2), repetition_code(3, ALPHA_STAR)]:
        cell = VoronoiCell(code)
        assert len(cell.relevant_vectors()) > 0
        for _ in range(200):
            v = rng.normal(size=cell.dim) * 3.0
            rem, _ = cell.remainder(v)
            assert cell.contains(rem, tol=1e-9)
    # a deep hole of the repetition code's dual lattice (body-centred cubic in
    # position, simple cubic in momentum) lies 1.005 from every dual vector,
    # beyond what the window of +-1 proves
    code = repetition_code(3, ALPHA_STAR)
    deep_hole = np.array([a, a / 2, 0.0, b / 2, b / 2, b / 2])
    rem, shift = VoronoiCell(code).remainder(deep_hole)
    d2, first = _brute_nearest(code.dual_basis(), deep_hole)
    assert rem @ rem == pytest.approx(d2, abs=1e-12) and np.sqrt(d2) == pytest.approx(1.005, abs=1e-3)
    assert np.allclose(shift, first, rtol=0, atol=1e-12)


def test_voronoi_window_above_the_cap_raises():
    # five modes: the +-1 window holds 3^10 offsets, but the cosets of the
    # relevant-vector search need a wider window than MAX_WINDOW allows
    cell = VoronoiCell(repetition_code(5))
    rem, shift = cell.remainder(np.full(10, 0.01))
    assert np.allclose(rem, 0.01) and not np.any(shift)
    with pytest.raises(ValueError, match=r"\d+ offsets, above MAX_WINDOW"):
        cell.relevant_vectors()
    assert all((2 * r + 1) ** 10 <= MAX_WINDOW for r in cell._windows)


def test_shortest_error_square():
    code = square_code()
    for cell in (voronoi_box(code), VoronoiCell(code)):
        for cls in ("any", "X", "Z"):
            assert shortest_error_length(code, cell, cls) == pytest.approx(1 / (2 * np.sqrt(2)), abs=1e-12)


def test_shortest_error_repetition():
    code = repetition_code(3, ALPHA_STAR)
    cell = VoronoiCell(code)
    dx = shortest_error_length(code, cell, "X")
    dz = shortest_error_length(code, cell, "Z")
    assert dx == pytest.approx(np.sqrt(3) * ALPHA_STAR / (2 * np.sqrt(2)), abs=1e-12)
    assert dz == pytest.approx(1 / (2 * np.sqrt(2) * ALPHA_STAR), abs=1e-12)
    assert abs(dx - dz) < 1e-12  # equal-distance condition at alpha = 3^{-1/4}


def test_symmetric_cell_distance_and_ratio():
    code = repetition_code(3, ALPHA_STAR)
    vor = VoronoiCell(code)
    sym = repetition_symmetric_cell(code)
    dx_v = shortest_error_length(code, vor, "X")
    dx_p = shortest_error_length(code, sym, "X")
    assert dx_p == pytest.approx(ALPHA_STAR / 2, abs=1e-12)
    assert dx_v / dx_p == pytest.approx(np.sqrt(1.5), abs=1e-12)


def test_symmetric_cell_is_primitive():
    code = repetition_code(3, 0.9)
    cell = repetition_symmetric_cell(code)
    rng = np.random.default_rng(17)
    for _ in range(300):
        v = rng.normal(size=6) * 1.5
        rem, shift = cell.remainder(v)
        code.dual_coefficients(shift)
        rem2, shift2 = cell.remainder(rem)
        assert np.allclose(rem2, rem, atol=1e-12)
        assert np.max(np.abs(shift2)) <= 1e-12


def test_cell_invariance_square_gates():
    cell = VoronoiCell(square_code())
    assert is_cell_invariant(rotation(np.pi / 2), cell)          # Hadamard
    assert not is_cell_invariant(np.array([[1.0, 0], [1, 1]]), cell)  # phase shear


def test_cell_invariance_hexagonal_gates():
    hexc = hexagonal_code()
    cell = VoronoiCell(hexc)
    s = hexc.sigma
    s_inv = np.linalg.inv(s)
    assert is_cell_invariant(rotation(np.pi / 3), cell)          # R = H S^dag
    assert not is_cell_invariant(s @ rotation(np.pi / 2) @ s_inv, cell)  # Hadamard


def test_cell_invariance_cz_on_two_squares():
    s_cz = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 1, 1, 0], [1, 0, 0, 1]], dtype=float)
    cell = voronoi_box(square_code(2, 2))
    assert not is_cell_invariant(s_cz, cell)


def test_clifford_symplectics_are_their_gates():
    # each gate's unitary in the logical basis, written out
    unitaries = {
        "H": np.array([[1, 1], [1, -1]]) / np.sqrt(2),
        "S": np.diag([1, 1j]),
        "R": np.array([[1, -1j], [1, 1j]]) / np.sqrt(2),
        "CZ": np.diag([1, 1, 1, -1]),
        "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
    }
    assert list(CLIFFORD_SYMPLECTICS) == list(unitaries)
    for name, n_a in CLIFFORD_SYMPLECTICS.items():
        u = unitaries[name]
        assert np.issubdtype(n_a.dtype, np.integer) and check_symplectic(n_a), name
        dims = (2,) * (len(n_a) // 2)
        for e in np.eye(len(n_a), dtype=int):
            # U P(e_j) U^dag is P(N_A e_j), with the phase convention of pauli_matrix
            got = u @ pauli_matrix(dims, e) @ u.conj().T
            assert np.max(np.abs(got - pauli_matrix(dims, n_a @ e))) <= 1e-12, (name, e)


def test_box_cell_half_open_convention():
    cell = BoxCell.centered([1.0, 1.0])
    rem, _ = cell.remainder(np.array([0.5, -0.5]))
    assert np.allclose(rem, [0.5, 0.5])  # (-1/2, 1/2] keeps +1/2 and folds -1/2 up


def test_config_loading(tmp_path):
    code, cell = code_from_config({"name": "square", "cell": {"voronoi": {}}})
    assert code.dims == (2,)
    assert isinstance(cell, VoronoiCell)
    code, cell = code_from_config({"name": "rectangular", "params": {"alpha": 0.8},
                                   "cell": {"box": [[-0.2, 0.2], [-0.4, 0.4]]}})
    assert isinstance(cell, BoxCell)
    cfg = {"sigma": np.eye(2).tolist(), "dims": [2], "cell": {"voronoi": {}}}
    path = tmp_path / "code.json"
    path.write_text(json.dumps(cfg))
    code, _ = code_from_config(str(path))
    assert code.dims == (2,)
    with pytest.raises(ValueError):
        code_from_config({"name": "dodecahedral"})
    code, cell = code_from_config({"name": "repetition", "params": {"n": 3, "alpha": ALPHA_STAR},
                                   "cell": {"voronoi": {}}})
    assert code.dims == (2, 1, 1) and isinstance(cell, VoronoiCell)
    _, cell = code_from_config({"name": "repetition", "cell": {"symmetric": {}}})
    assert isinstance(cell, ShiftedUnionCell)
    # a key that is not read is an error that names the key
    for cfg, key in [
        ({"name": "square", "cell": {"voronoi": {"tie_tol": 1e-9}}}, "tie_tol"),
        ({"name": "square", "cell": {"voronoi": {"radius": 2}}}, "radius"),
        ({"name": "square", "params": {"dd": 3}}, "dd"),
        ({"name": "square", "cel": {"voronoi": {}}}, "cel"),
        ({"name": "hexagonal", "params": {"n": 2}}, "n"),
        ({"name": "rectangular", "params": {"d": 2}}, "alpha"),
        ({"name": "repetition", "params": {"d": 2}}, "d"),
        ({"sigma": np.eye(2).tolist(), "dims": [2], "params": {}}, "params"),
        ({"sigma": np.eye(2).tolist()}, "dims"),
        ({"name": "square", "cell": {"box": [[-0.5, 0.5], [-0.5, 0.5]], "voronoi": {}}}, "voronoi"),
        ({"name": "repetition", "cell": {"symmetric": {"radius": 2}}}, "radius"),
        # a bool or a non-integral number is not silently truncated
        ({"name": "square", "params": {"d": 2.7}}, "d"),
        ({"name": "square", "params": {"n": True}}, "n"),
        ({"name": "hexagonal", "params": {"d": "2"}}, "d"),
        ({"name": "rectangular", "params": {"alpha": True}}, "alpha"),
        ({"name": "repetition", "params": {"n": 3.5}}, "n"),
        ({"sigma": np.eye(2).tolist(), "dims": [2.9]}, "dims"),
        ({"sigma": np.eye(2).tolist(), "dims": [True]}, "dims"),
    ]:
        with pytest.raises(ValueError, match=key):
            code_from_config(cfg)
    code, _ = code_from_config({"name": "square", "params": {"d": 3.0, "n": 2}})
    assert code.dims == (3, 3) and all(type(d) is int for d in code.dims)


def test_pauli_class_labels():
    code = square_code()
    assert code.pauli_class([1, 0]) == "X"
    assert code.pauli_class([0, 1]) == "Z"
    assert code.pauli_class([1, 1]) == "Y"
    assert code.pauli_class([2, 0]) == "I"
    rep = repetition_code(3, ALPHA_STAR)
    # body-center dual vector a(1,1,1) in the position sector is a logical X
    a = ALPHA_STAR / np.sqrt(2)
    s = rep.dual_coefficients(np.array([a, a, a, 0, 0, 0]))
    assert rep.pauli_class(s) == "X"
