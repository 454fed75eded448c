import numpy as np
import pytest

from gkpsim.fock import (
    apply_dephasing,
    apply_loss,
    build_approx_codeword,
    codeword_gram,
    hermite_function,
    hermite_functions_upto,
    ideal_decode_batch,
    orthonormalized_codewords,
    zak_fock_overlap_table,
)
from gkpsim.lattice import square_code
from gkpsim.metrics import ortho_matrix_from_gram

SQ = square_code()


def test_hermite_values_at_origin():
    assert hermite_function(0, 0.0) == pytest.approx(np.pi ** -0.25)
    assert hermite_function(1, 0.0) == 0.0  # odd parity


def test_hermite_normalization_by_quadrature():
    x, w = np.polynomial.legendre.leggauss(900)
    xs, ws = 14 * x, 14 * w
    for n in (5, 20, 60):
        norm = hermite_function(n, xs) ** 2 @ ws
        assert norm == pytest.approx(1.0, abs=1e-10)


def test_hermite_orthogonality():
    x, w = np.polynomial.legendre.leggauss(400)
    xs, ws = 12 * x, 12 * w
    table = hermite_functions_upto(10, xs)
    gram = (table * ws) @ table.T
    assert np.max(np.abs(gram - np.eye(11))) < 1e-10


def test_codeword_parity():
    # both combs are symmetric under x -> -x, so both codewords live on even
    # photon numbers only
    c0 = build_approx_codeword(0, 0.4, 120)
    assert np.max(np.abs(c0[1::2])) < 1e-14
    c1 = build_approx_codeword(1, 0.4, 120)
    assert np.max(np.abs(c1[1::2])) < 1e-14
    assert np.max(np.abs(c1[0::2])) > 0.1


def test_codeword_mean_photon_number():
    # code-averaged nbar tracks 1/(2 Delta^2) - 1/2; the formula is asymptotic
    # and sits 5.6% off at exactly 6 dB, tightening quickly above
    for db, tol in ((6, 0.06), (8, 0.02), (10, 0.005), (12, 0.002)):
        delta = 10 ** (-db / 20)
        ns = np.arange(250)
        nbar = 0.5 * sum(ns @ np.abs(build_approx_codeword(mu, delta, 250)) ** 2
                         for mu in (0, 1))
        approx = 1 / (2 * delta ** 2) - 0.5
        assert abs(nbar - approx) / approx < tol


def test_codeword_vacuum_limit():
    c = build_approx_codeword(0, 3.0, 50)
    assert abs(c[0]) ** 2 > 0.9999


def test_codeword_cutoff_guard():
    with pytest.raises(ValueError, match="tail"):
        build_approx_codeword(0, 0.05, 40)


def test_loss_identity_and_fixed_point():
    rho = np.zeros((6, 6), dtype=complex)
    rho[0, 0] = 1.0
    assert np.allclose(apply_loss(rho, 0.0), rho)
    assert np.allclose(apply_loss(rho, 0.3), rho, atol=1e-14)  # vacuum fixed point


def test_loss_single_photon():
    rho = np.zeros((6, 6), dtype=complex)
    rho[1, 1] = 1.0
    out = apply_loss(rho, 0.3)
    assert out[0, 0] == pytest.approx(0.3, abs=1e-14)
    assert out[1, 1] == pytest.approx(0.7, abs=1e-14)


def test_loss_trace_guard():
    # |59><59| at gamma 0.9 loses about 53 photons, beyond the LOSS_KRAUS_MAX Kraus terms
    rho = np.zeros((60, 60), dtype=complex)
    rho[59, 59] = 1.0
    with pytest.raises(ValueError, match="converged"):
        apply_loss(rho, 0.9)


def test_dephasing_diagonal_phases():
    sigma = 0.05
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 1] = rho[1, 0] = 0.5
    rho[0, 0] = rho[1, 1] = 0.5
    out = apply_dephasing(rho, sigma)
    assert out[0, 1] == pytest.approx(0.5 * np.exp(-sigma ** 2 / 2), rel=1e-10)
    assert out[0, 0] == pytest.approx(0.5)


def test_zak_overlap_completeness():
    # sum_mu int_V |<mu,k|n>|^2 dk = 1 per Fock level
    x, w = np.polynomial.legendre.leggauss(48)
    half = 2 ** -1.5
    tab = zak_fock_overlap_table(SQ, half * x, half * x, 30)
    wk = half * w
    comp = np.einsum("akln,k,l->n", np.abs(tab) ** 2, wk, wk)
    assert np.max(np.abs(comp - 1)) < 1e-8


def test_zak_overlap_requires_square_qubit():
    from gkpsim.lattice import hexagonal_code

    with pytest.raises(ValueError):
        zak_fock_overlap_table(hexagonal_code(), [0.0], [0.0], 5)


def test_decode_good_codeword():
    delta = 10 ** (-10 / 20)
    c0 = build_approx_codeword(0, delta, 160)
    rho = np.outer(c0, c0.conj())
    [decoded], [defect] = ideal_decode_batch([rho], SQ, grid=48)
    assert np.real(decoded[0, 0]) > 0.9999
    assert defect < 1e-10


def test_decode_batch_matches_single():
    delta = 10 ** (-8 / 20)
    c0 = build_approx_codeword(0, delta, 120)
    c1 = build_approx_codeword(1, delta, 120)
    rhos = [np.outer(c, c.conj()) for c in (c0, c1)]
    batch, _ = ideal_decode_batch(rhos, SQ, grid=40)
    for rho, out in zip(rhos, batch):
        [single], _ = ideal_decode_batch([rho], SQ, grid=40)  # decoded alone
        assert np.max(np.abs(single - out)) < 1e-13


def test_decode_matches_einsum_of_its_integral():
    # rho_L[a, b] = sum_{k,l,m,n} t[a,k,l,n] rho[n,m] conj(t[b,k,l,m]) w_k w_l
    # summed by einsum on the refined grid that the decode returns
    delta = 10 ** (-8 / 20)
    psi = build_approx_codeword(0, delta, 120) + 1j * build_approx_codeword(1, delta, 120)
    rho = apply_loss(np.outer(psi, psi.conj()) / np.vdot(psi, psi), 0.01)
    [got], _ = ideal_decode_batch([rho], SQ, grid=40)
    x, w = np.polynomial.legendre.leggauss(60)
    half = 2 ** -1.5
    t = zak_fock_overlap_table(SQ, half * x, half * x, rho.shape[0] - 1)
    raw = np.einsum("akln,nm,bklm,k,l->ab", t, rho, t.conj(), half * w, half * w, optimize=True)
    assert np.max(np.abs(got - raw / np.real(np.trace(raw)))) < 1e-12


def test_decode_grid_convergence_guard():
    rho = np.zeros((80, 80), dtype=complex)
    rho[79, 79] = 1.0  # highly oscillatory state needs a fine grid
    with pytest.raises(ValueError, match="not converged"):
        ideal_decode_batch([rho], SQ, grid=8)


def test_orthonormalized_codewords_are_orthonormal():
    vecs, c = orthonormalized_codewords(0.45, 160)
    gram = vecs.conj() @ vecs.T
    assert np.max(np.abs(gram - np.eye(2))) < 1e-10
    assert np.array_equal(c, ortho_matrix_from_gram(codeword_gram(0.45, 160)))


def test_codeword_gram_matches_theta_expectation():
    # cross-check the Fock-space Gram against the position-space theta sums
    delta = 0.5
    g = codeword_gram(delta, 200)
    q = np.exp(-2 * delta ** 2)
    ss = np.arange(-12, 13)
    expect = np.zeros((2, 2))
    for mu in (0, 1):
        for nu in (0, 1):
            xs = np.sqrt(np.pi) * (2 * ss + mu)
            ys = np.sqrt(np.pi) * (2 * ss + nu)
            xx, yy = np.meshgrid(xs, ys, indexing="ij")
            vals = np.exp((4 * xx * yy * q - (1 + q * q) * (xx ** 2 + yy ** 2))
                          / (2 * (1 - q * q))) / np.sqrt(np.pi * (1 - q * q))
            expect[mu, nu] = vals.sum()
    assert np.max(np.abs(np.real(g) - expect)) < 1e-10 * np.max(expect)
