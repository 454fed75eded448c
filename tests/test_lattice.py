import json

import numpy as np
import pytest

from gkpsim.lattice import (
    BoxCell,
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
from gkpsim.symplectic import omega, rotation

ALPHA_STAR = 3 ** -0.25


def test_code_lattice_integrality():
    for code in (square_code(), hexagonal_code(), rectangular_code(0.8),
                 repetition_code(3, ALPHA_STAR), square_code(3)):
        assert code.check_lattice()


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


def test_voronoi_minimality_against_enumeration():
    code = hexagonal_code()
    cell = VoronoiCell(code)
    basis = code.dual_basis()
    grid = np.array([[i, j] for i in range(-7, 8) for j in range(-7, 8)], dtype=float)
    pts = grid @ basis.T
    rng = np.random.default_rng(11)
    for _ in range(300):
        v = rng.normal(size=2) * 2.0
        rem, _ = cell.remainder(v)
        d2 = np.sum((v - pts) ** 2, axis=1)
        assert rem @ rem <= d2.min() + 1e-10


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


def test_voronoi_radius_growth_changes_nothing():
    code = hexagonal_code()
    c3 = VoronoiCell(code, radius=3)
    c4 = VoronoiCell(code, radius=4)
    rng = np.random.default_rng(5)
    for _ in range(100):
        v = rng.normal(size=2) * 3.0
        r3, _ = c3.remainder(v)
        r4, _ = c4.remainder(v)
        assert np.allclose(r3, r4, atol=1e-12)


def test_voronoi_search_radius_is_proven():
    a = ALPHA_STAR / np.sqrt(2)
    b = 1 / (np.sqrt(2) * ALPHA_STAR)
    rng = np.random.default_rng(23)
    for code, radius in [(square_code(), 3), (hexagonal_code(), 3), (rectangular_code(0.8), 3),
                         (square_code(2, 2), 3), (repetition_code(3, ALPHA_STAR), 2)]:
        cell = VoronoiCell(code, radius=radius)
        assert len(cell.relevant_vectors()) > 0
        for _ in range(200):
            v = rng.normal(size=cell.dim) * 3.0
            rem, _ = cell.remainder(v)
            assert cell.contains(rem, tol=1e-9)
    # a deep hole of the repetition code's dual lattice (body-centred cubic in
    # position, simple cubic in momentum) lies 1.005 from every dual vector
    deep_hole = np.array([a, a / 2, 0.0, b / 2, b / 2, b / 2])
    VoronoiCell(repetition_code(3, ALPHA_STAR), radius=2).remainder(deep_hole)
    too_small = VoronoiCell(repetition_code(3, ALPHA_STAR), radius=1)
    with pytest.raises(RuntimeError, match="radius 1"):
        too_small.relevant_vectors()
    with pytest.raises(RuntimeError, match="radius 1"):
        too_small.remainder(deep_hole)


def test_shortest_error_square():
    code = square_code()
    for cell in (voronoi_box(code), VoronoiCell(code)):
        for cls in ("any", "X", "Z"):
            assert shortest_error_length(code, cell, cls) == pytest.approx(1 / (2 * np.sqrt(2)), abs=1e-12)


def test_shortest_error_repetition():
    code = repetition_code(3, ALPHA_STAR)
    cell = VoronoiCell(code, radius=2)
    dx = shortest_error_length(code, cell, "X")
    dz = shortest_error_length(code, cell, "Z")
    assert dx == pytest.approx(np.sqrt(3) * ALPHA_STAR / (2 * np.sqrt(2)), abs=1e-12)
    assert dz == pytest.approx(1 / (2 * np.sqrt(2) * ALPHA_STAR), abs=1e-12)
    assert abs(dx - dz) < 1e-12  # equal-distance condition at alpha = 3^{-1/4}


def test_symmetric_cell_distance_and_ratio():
    code = repetition_code(3, ALPHA_STAR)
    vor = VoronoiCell(code, radius=2)
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
                                   "cell": {"voronoi": {"radius": 2}}})
    assert code.dims == (2, 1, 1) and cell.radius == 2
    _, cell = code_from_config({"name": "repetition", "cell": {"symmetric": {}}})
    assert isinstance(cell, ShiftedUnionCell)
    # a key that is not read is an error that names the key
    for cfg, key in [
        ({"name": "square", "cell": {"voronoi": {"tie_tol": 1e-9}}}, "tie_tol"),
        ({"name": "square", "cell": {"voronoi": {"radius": "x"}}}, "radius"),
        ({"name": "square", "cell": {"voronoi": {"radius": 0}}}, "radius"),
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
