"""Code-state facts of the stabilizer subsystem decomposition.

A basis state |mu, k> of the decomposition is a logical label mu and a
remainder k in a primitive cell.  These tests check how (mu, k) moves when
k leaves the cell (a logical Pauli, read off the dual-lattice shift), under
the logical Cliffords' symplectic maps, and what the square code's Zak
overlaps <mu, k|n> and the ideal decoder built on them give for states.
"""

import numpy as np
import pytest

from gkpsim.fock import build_approx_codeword, ideal_decode_batch, zak_fock_overlap_table
from gkpsim.lattice import (
    CLIFFORD_SYMPLECTICS,
    BoxCell,
    VoronoiCell,
    hexagonal_code,
    square_code,
    voronoi_box,
)
from gkpsim.logical import pauli_matrix
from gkpsim.symplectic import omega, rotation

SQ = square_code()
CELL = voronoi_box(SQ)
HALF = 2 ** -1.5


def _interior_points(cell, rng, count):
    return [0.999 * cell.remainder(rng.normal(size=2))[0] for _ in range(count)]


# ---------------------------------------------------------------------------
# Zak overlaps


def test_zak_quasi_periodicity():
    # <0, k1 + sqrt2, k2 | n> = e^{i pi sqrt2 k2} <0, k1, k2 | n>
    a, k1, k2 = np.sqrt(2), 0.17, -0.23
    tab = zak_fock_overlap_table(SQ, [k1, k1 + a], [k2], 20)[0, :, 0, :]
    assert np.max(np.abs(tab[0])) > 0.1
    assert np.max(np.abs(tab[1] - np.exp(1j * np.pi * a * k2) * tab[0])) < 1e-12


# ---------------------------------------------------------------------------
# decoding states


def test_decompose_vacuum_is_normalized():
    # the |mu, k> over the cell resolve the identity: the vacuum keeps unit trace
    rho = np.zeros((30, 30), dtype=complex)
    rho[0, 0] = 1.0
    [decoded], [defect] = ideal_decode_batch([rho], SQ, grid=48)
    assert defect < 1e-10
    assert np.max(np.abs(decoded - decoded.conj().T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(decoded)) > 0


def test_decompose_ideal_codeword_concentrates():
    c1 = build_approx_codeword(1, 10 ** (-10 / 20), 160)
    [decoded], _ = ideal_decode_batch([np.outer(c1, c1.conj())], SQ, grid=48)
    assert np.real(decoded[1, 1]) > 0.999
    # the amplitude <mu, k|1_Delta> peaks at label 1 and k near 0
    x, _ = np.polynomial.legendre.leggauss(24)
    amps = np.abs(zak_fock_overlap_table(SQ, HALF * x, HALF * x, 159) @ c1)
    mu, i, j = np.unravel_index(np.argmax(amps), amps.shape)
    assert mu == 1
    assert np.hypot(HALF * x[i], HALF * x[j]) < 0.1


# ---------------------------------------------------------------------------
# cell reduction


def test_cell_transform_identity():
    rng = np.random.default_rng(2)
    for k in _interior_points(CELL, rng, 30):
        rem, shift = CELL.remainder(k)
        assert np.array_equal(rem, k)
        assert not np.any(shift)


def test_cell_transform_shifted_square_picks_up_x():
    # shifting the cell by mbar_1/2: remainders with k1 <= 0 leave through the
    # X face, so the label picks up a logical X
    shift = 1 / (2 * np.sqrt(2))
    new_cell = BoxCell([(-HALF + shift, HALF + shift), (-HALF, HALF)])
    mbar1 = SQ.mbar(0)
    for k in ([0.1, 0.2], [-0.1, -0.3], [0.3, 0.0]):
        k = np.array(k)
        rem, s = new_cell.remainder(k)
        if k[0] > 0:
            assert not np.any(s)
        else:
            assert list(SQ.dual_coefficients(s)) == [-1, 0]
            assert SQ.pauli_class(SQ.dual_coefficients(s)) == "X"
            assert np.allclose(rem, k + mbar1, atol=1e-15)


def test_cell_transform_boundary_pauli_phase_is_exact():
    # k2 = 0.4 lies beyond the Z face, so the term crosses back by mbar_2 with
    # k^T Omega shift = 0: the amplitude is Z's eigenvalue on |1>, exactly -1
    k = np.array([0.0, 0.4])
    rem, shift = CELL.remainder(k)
    s = SQ.dual_coefficients(shift)
    assert list(s) == [0, 1] and SQ.pauli_class(s) == "Z"
    assert k @ omega(1) @ shift == 0
    assert pauli_matrix(SQ.dims, s)[1, 1] == -1
    assert np.allclose(rem, [0.0, 0.4 - 1 / np.sqrt(2)], atol=1e-15)


def test_cell_transform_round_trip():
    rng = np.random.default_rng(3)
    shifted = BoxCell([(-HALF + 0.2, HALF + 0.2), (-HALF - 0.1, HALF - 0.1)])
    for k in _interior_points(CELL, rng, 30):
        rem1, s1 = shifted.remainder(k)
        rem2, s2 = CELL.remainder(rem1)
        assert np.allclose(rem2, k, atol=1e-12)
        assert np.allclose(s1 + s2, 0, atol=1e-12)


# ---------------------------------------------------------------------------
# stabilizers and logical Paulis


def test_stabilizer_eigenvalue_law():
    # the stabilizer phase of a basis term is e^{2 i pi k^T Omega m_J}; a
    # dual-lattice shift of k leaves it invariant and reduces back to k
    rng = np.random.default_rng(9)
    om = omega(1)
    for code in (SQ, hexagonal_code()):
        cell = voronoi_box(code) if code is SQ else VoronoiCell(code)
        for k in _interior_points(cell, rng, 20):
            lbar = code.dual_vector(rng.integers(-3, 4, size=2))
            rem, shift = cell.remainder(k + lbar)
            assert np.allclose(rem, k, atol=1e-12) and np.allclose(shift, lbar, atol=1e-12)
            for j in range(2):
                phase = np.exp(2j * np.pi * (k @ om @ code.m(j)))
                phase2 = np.exp(2j * np.pi * ((k + lbar) @ om @ code.m(j)))
                assert abs(phase) == pytest.approx(1.0)
                assert phase2 == pytest.approx(phase, abs=1e-9)


def test_pauli_displacement_is_tensor_action():
    # displacing by mbar_1 is logical X: k reduces back to itself, and
    # <0, k + mbar_1|n> = e^{-i pi k^T Omega mbar_1} <1, k|n>, so |amp| keeps
    rng = np.random.default_rng(10)
    mbar1 = SQ.mbar(0)
    for k in _interior_points(CELL, rng, 20):
        rem, shift = CELL.remainder(k + mbar1)
        assert np.allclose(rem, k, atol=1e-12)
        assert SQ.pauli_class(SQ.dual_coefficients(shift)) == "X"
        tab = zak_fock_overlap_table(SQ, [k[0], k[0] + mbar1[0]], [k[1]], 20)[:, :, 0, :]
        phase = np.exp(-1j * np.pi * (k @ omega(1) @ mbar1))
        assert np.max(np.abs(tab[0, 1] - phase * tab[1, 0])) < 1e-12


# ---------------------------------------------------------------------------
# logical Cliffords


def test_hadamard_square_tensor_action():
    # pure tensor action: N_H maps V_sq onto itself, so no boundary Paulis
    n_a = CLIFFORD_SYMPLECTICS["H"]
    rng = np.random.default_rng(11)
    for k in _interior_points(CELL, rng, 50):
        rem, shift = CELL.remainder(n_a @ k)
        assert not np.any(shift)
        assert np.allclose(rem, n_a @ k, atol=1e-12)


def test_phase_gate_square_action():
    # S maps k = (k1, k2) to (k1, k1 + k2), with a Z error iff k1 + k2
    # leaves (-2^{-3/2}, 2^{-3/2}]
    n_a = CLIFFORD_SYMPLECTICS["S"]
    rem, shift = CELL.remainder(n_a @ np.array([0.1, 0.1]))
    assert np.allclose(rem, [0.1, 0.2]) and not np.any(shift)
    rem, shift = CELL.remainder(n_a @ np.array([0.3, 0.2]))
    assert np.allclose(rem, [0.3, 0.5 - 1 / np.sqrt(2)])
    assert SQ.pauli_class(SQ.dual_coefficients(shift)) == "Z"


def test_hexagonal_r_gate_tensor_action():
    hexc = hexagonal_code()
    cell = VoronoiCell(hexc)
    n_a = CLIFFORD_SYMPLECTICS["R"]
    s_a = hexc.sigma @ n_a @ np.linalg.inv(hexc.sigma)
    assert np.allclose(s_a, rotation(np.pi / 3), atol=1e-12)
    rng = np.random.default_rng(12)
    for k in _interior_points(cell, rng, 50):
        rem, shift = cell.remainder(s_a @ k)
        assert np.allclose(rem, s_a @ k, atol=1e-9)  # never wraps
        assert not np.any(shift)
