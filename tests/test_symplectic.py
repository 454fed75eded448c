import numpy as np
import pytest

from gkpsim.symplectic import (
    check_symplectic,
    omega,
    rotation,
    standard_form,
)


def test_check_symplectic_identity():
    assert check_symplectic(np.eye(2))
    assert check_symplectic(np.eye(6))


def test_check_symplectic_omega():
    # Omega^T Omega Omega = Omega because Omega^2 = -I
    assert check_symplectic(omega(1))
    assert check_symplectic(omega(3))


def test_check_symplectic_hexagonal():
    sigma_hex = np.array([[(4 / 3) ** 0.25, -(12 ** -0.25)], [0, (3 / 4) ** 0.25]])
    assert check_symplectic(sigma_hex)


def test_check_symplectic_rejects():
    assert not check_symplectic(2 * np.eye(2))
    with pytest.raises(ValueError):
        check_symplectic(np.eye(3))
    with pytest.raises(ValueError):
        check_symplectic(np.ones((2, 4)))


def _lattices_equal(m1, m2, tol=1e-8):
    c1 = np.linalg.solve(m1.T, m2.T)
    c2 = np.linalg.solve(m2.T, m1.T)
    return (np.max(np.abs(c1 - np.round(c1))) < tol
            and np.max(np.abs(c2 - np.round(c2))) < tol)


def test_standard_form_square_qubit():
    sigma, dims = standard_form(np.sqrt(2) * np.eye(2))
    assert np.allclose(sigma, np.eye(2))
    assert list(dims) == [2]


def test_standard_form_qunaught():
    sigma, dims = standard_form(np.eye(2))
    assert np.allclose(sigma, np.eye(2))
    assert list(dims) == [1]


def _repetition_generators(alpha=3 ** -0.25):
    sq = alpha * np.array([[1, 0, 0], [1, np.sqrt(2), 0], [1, 0, np.sqrt(2)]])
    sp = (1 / alpha) * np.array(
        [[1, -1 / np.sqrt(2), -1 / np.sqrt(2)], [0, 1 / np.sqrt(2), 0], [0, 0, 1 / np.sqrt(2)]])
    sigma = np.block([[sq, np.zeros((3, 3))], [np.zeros((3, 3)), sp]])
    d = np.array([2, 1, 1, 2, 1, 1], dtype=float)
    return (sigma * np.sqrt(d)).T


def test_standard_form_repetition():
    m = _repetition_generators()
    sigma, dims = standard_form(m)
    assert list(dims) == [2, 1, 1]
    assert check_symplectic(sigma, 1e-9)
    m_out = (sigma * np.sqrt(np.concatenate([dims, dims]))).T
    assert _lattices_equal(m, m_out)


def test_standard_form_scrambled_generators():
    rng = np.random.default_rng(7)
    m = _repetition_generators()
    n = np.eye(6, dtype=np.int64)
    for _ in range(40):
        i, j = rng.integers(0, 6, 2)
        if i != j:
            n[i] += rng.integers(-2, 3) * n[j]
    sigma, dims = standard_form(n @ m)
    assert list(dims) == [2, 1, 1]
    m_out = (sigma * np.sqrt(np.concatenate([dims, dims]))).T
    assert _lattices_equal(m, m_out, tol=1e-7)


def test_standard_form_rejects_nonsymplectic():
    with pytest.raises(ValueError):
        standard_form(np.array([[1.3, 0.0], [0.0, 1.0]]))


def test_rotation_is_symplectic():
    for theta in (0.3, np.pi / 2, 2.0):
        assert check_symplectic(rotation(theta))
