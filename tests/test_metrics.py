import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gkpsim.charfun import compose, envelope_charfun, loss_charfun, random_displacement_charfun
from gkpsim.fock import build_approx_codeword, codeword_gram
from gkpsim.lattice import square_code, voronoi_box
from gkpsim.logical import LogicalSuperop, TruncationSpec, logical_channel
from gkpsim.metrics import (
    average_gate_fidelity,
    average_gate_infidelity,
    bloch_and_octahedron,
    cptp_diagnostics,
    fock_qubit_baseline,
    gram_from_channel,
    lowdin_orthonormalize,
    ortho_matrix_from_gram,
)

SQ = square_code()
CELL = voronoi_box(SQ)


def _theta_sum_gram(delta, window=12):
    """Independent Gram oracle: <mu| e^{-2 Delta^2 n} |nu> from position-space
    Gaussian overlaps of the envelope-damped combs (Mehler kernel at
    q = e^{-2 Delta^2}), summed over a +-window peak range."""
    q = np.exp(-2 * delta ** 2)
    ss = np.arange(-window, window + 1)
    g = np.zeros((2, 2), dtype=complex)
    for mu in (0, 1):
        for nu in (0, 1):
            xs = np.sqrt(np.pi) * (2 * ss + mu)
            ys = np.sqrt(np.pi) * (2 * ss + nu)
            xx, yy = np.meshgrid(xs, ys, indexing="ij")
            vals = np.exp((4 * xx * yy * q - (1 + q * q) * (xx ** 2 + yy ** 2))
                          / (2 * (1 - q * q))) / np.sqrt(np.pi * (1 - q * q))
            g[mu, nu] = vals.sum()
    return g


# ---------------------------------------------------------------------------
# orthonormalization


def test_orthonormal_input_gives_identity():
    c = ortho_matrix_from_gram(np.eye(2, dtype=complex))
    assert np.allclose(c, np.eye(2))
    assert c[0, 1] == c[1, 0] == 0  # a zero overlap mixes nothing in


def test_gram_matches_theta_sum_oracle():
    # ideal codewords are non-normalizable, so the two conventions agree up
    # to one overall scale (here 2 sqrt(pi), the squared Zak prefactor);
    # everything downstream is scale invariant
    delta = 0.5
    ch = logical_channel(SQ, CELL, envelope_charfun(delta), TruncationSpec(6))
    g_pipe = gram_from_channel(ch)
    g_theta = _theta_sum_gram(delta)
    ratio = np.real(g_pipe) / np.real(g_theta)
    assert np.max(np.abs(ratio - ratio[0, 0])) < 1e-10 * ratio[0, 0]
    assert ratio[0, 0] == pytest.approx(2 * np.sqrt(np.pi), rel=1e-10)


def test_c_matrix_matches_theta_sum_oracle():
    delta = 0.5
    ch = logical_channel(SQ, CELL, envelope_charfun(delta), TruncationSpec(6))
    g_pipe = gram_from_channel(ch)
    g_theta = _theta_sum_gram(delta)
    c_pipe = ortho_matrix_from_gram(g_pipe / np.real(g_pipe[0, 0]))
    c_theta = ortho_matrix_from_gram(g_theta / np.real(g_theta[0, 0]))
    assert np.max(np.abs(c_pipe - c_theta)) < 1e-9 * np.max(np.abs(c_theta))


def test_square_code_gram_off_diagonal_is_real():
    for delta in (0.4, 0.6):
        ch = logical_channel(SQ, CELL, envelope_charfun(delta), TruncationSpec(2))
        g = gram_from_channel(ch)
        assert abs(g[0, 1].imag) < 1e-12 * abs(g[0, 1].real)
        c = ortho_matrix_from_gram(g)  # a real overlap has phase 1, so C is real
        assert np.max(np.abs(c.imag)) < 1e-12 * np.max(np.abs(c))


def test_orthonormality_identity():
    # conj(C) G C^T = I for the unnormalized Gram
    delta = 0.5
    g = _theta_sum_gram(delta)
    c = ortho_matrix_from_gram(g)
    assert np.max(np.abs(np.conj(c) @ g @ c.T - np.eye(2))) < 1e-10
    # complex Gram keeps the identity through the phase factor
    g = np.array([[2.0, 0.3 * np.exp(0.4j)], [0.3 * np.exp(-0.4j), 1.1]])
    c = ortho_matrix_from_gram(g)
    assert np.max(np.abs(np.conj(c) @ g @ c.T - np.eye(2))) < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0, 0.99), st.floats(-np.pi, np.pi))
@example(0.0, 0.0, 5e-324, 0.0)  # a subnormal overlap once made the phase inf + nan j
def test_lowdin_matrix_of_hermitian_positive_definite_grams(log_s0, log_s1, r, angle):
    # G = D G_hat D with diagonal scales D and a unit-diagonal normalized Gram
    # G_hat of overlap r e^{i angle}; C is G_hat^{-1/2} in the normalized basis
    scales = np.exp([log_s0, log_s1])
    g_hat = np.array([[1, r * np.exp(1j * angle)], [r * np.exp(-1j * angle), 1]])
    g = scales[:, None] * g_hat * scales[None, :]
    c = ortho_matrix_from_gram(g)
    assert np.max(np.abs(np.conj(c) @ g @ c.T - np.eye(2))) < 1e-12
    w, v = np.linalg.eigh(g_hat)
    inv_sqrt = v @ np.diag(w ** -0.5) @ v.conj().T
    assert np.max(np.abs(c @ np.diag(np.sqrt(np.diag(g).real)) - inv_sqrt.T)) < 1e-12


def test_lowdin_relabeling_equivariance():
    # swapping the codeword labels conjugates C by the swap: the construction
    # treats the two codewords symmetrically
    g = _theta_sum_gram(0.5)
    x = np.array([[0, 1], [1, 0]])
    c = ortho_matrix_from_gram(g)
    c_swapped = ortho_matrix_from_gram(x @ g @ x)
    assert np.max(np.abs(c_swapped - x @ c @ x)) < 1e-12


def test_lowdin_composed_channel_is_tp():
    cf = compose(loss_charfun(0.05), envelope_charfun(0.7))
    ch = logical_channel(SQ, CELL, cf, TruncationSpec(1))
    _, och = lowdin_orthonormalize(ch)
    tp, choi_min = cptp_diagnostics(och)
    assert tp < 1e-12
    assert choi_min > -1e-12


def test_degenerate_gram_raises():
    with pytest.raises(ValueError, match="degenerate"):
        ortho_matrix_from_gram(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_orthonormalization_negligible_at_moderate_photon_number():
    # state infidelity difference between orthonormalized and merely
    # normalized decoding < 1e-3 once nbar > 1.5; nbar(6 dB) = 1.49 sits just
    # below that threshold (diff 1.7e-3 there), so probe 7 dB (nbar = 2.0) up
    for db in (7.0, 8.0):
        delta = 10 ** (-db / 20)
        ch = logical_channel(SQ, CELL, envelope_charfun(delta), TruncationSpec(2))
        _, och = lowdin_orthonormalize(ch)
        for psi in (np.array([1, 0], complex), np.array([0, 1], complex)):
            rho_in = np.outer(psi, psi.conj())
            rho_norm = ch.apply(rho_in)
            rho_norm = rho_norm / np.trace(rho_norm)
            rho_orth = och.apply(rho_in)
            f_norm = np.real(psi.conj() @ rho_norm @ psi)
            f_orth = np.real(psi.conj() @ rho_orth @ psi)
            assert abs(f_orth - f_norm) < 1e-3


# ---------------------------------------------------------------------------
# average gate fidelity


def test_fidelity_identity():
    ident = LogicalSuperop.from_pauli_pairs((2,), {((0, 0), (0, 0)): 1.0 + 0j})
    assert average_gate_fidelity(ident) == pytest.approx(1.0)


def test_fidelity_depolarizing():
    p = 0.34
    dep = LogicalSuperop.from_pauli_pairs((2,), {
        ((0, 0), (0, 0)): 1 - 3 * p / 4,
        ((1, 0), (1, 0)): p / 4,
        ((0, 1), (0, 1)): p / 4,
        ((1, 1), (1, 1)): p / 4,
    })
    assert average_gate_fidelity(dep) == pytest.approx(1 - p / 2, abs=1e-12)
    assert average_gate_infidelity(dep) == pytest.approx(p / 2, rel=1e-14)


def test_fidelity_x_channel():
    xch = LogicalSuperop.from_pauli_pairs((2,), {((1, 0), (1, 0)): 1.0 + 0j})
    assert average_gate_fidelity(xch) == pytest.approx(1 / 3, abs=1e-12)
    assert average_gate_infidelity(xch) == pytest.approx(2 / 3, rel=1e-14)


def test_fidelity_affine_in_channel():
    rng = np.random.default_rng(4)
    for _ in range(5):
        p1, p2 = rng.uniform(0, 1, 2)
        lam = rng.uniform(0, 1)

        def depol(p):
            return {((0, 0), (0, 0)): 1 - 3 * p / 4, ((1, 0), (1, 0)): p / 4,
                    ((0, 1), (0, 1)): p / 4, ((1, 1), (1, 1)): p / 4}

        e1, e2 = depol(p1), depol(p2)
        mix = {k: lam * e1.get(k, 0) + (1 - lam) * e2.get(k, 0) for k in set(e1) | set(e2)}
        f_mix = average_gate_fidelity(LogicalSuperop.from_pauli_pairs((2,), mix))
        f1 = average_gate_fidelity(LogicalSuperop.from_pauli_pairs((2,), e1))
        f2 = average_gate_fidelity(LogicalSuperop.from_pauli_pairs((2,), e2))
        assert f_mix == pytest.approx(lam * f1 + (1 - lam) * f2, abs=1e-12)


@pytest.mark.parametrize("noise", ["envelope", "loss", "displacement"])
@settings(derandomize=True, deadline=None, max_examples=5)
@given(st.floats(6, 14))
def test_diagonal_sum_is_one_minus_chi00(noise, delta_db):
    # for a trace-preserving chi, sum_{a != I} chi[a, a] = 1 - chi[0, 0]
    env = envelope_charfun(10 ** (-delta_db / 20))
    cf = {"envelope": env, "loss": compose(loss_charfun(0.01), env),
          "displacement": compose(random_displacement_charfun(0.1), env)}[noise]
    _, och = lowdin_orthonormalize(logical_channel(SQ, CELL, cf, TruncationSpec(1)))
    d = och.d_total
    diagonal_sum = (d + 1) / d * average_gate_infidelity(och)
    assert abs(diagonal_sum - (1 - och.chi[0, 0].real)) < 1e-13
    assert abs(average_gate_infidelity(och) - (1 - average_gate_fidelity(och))) < 1e-13


def test_cptp_diagnostics_identity():
    ident = LogicalSuperop.from_pauli_pairs((2,), {((0, 0), (0, 0)): 1.0 + 0j})
    tp, choi_min = cptp_diagnostics(ident)
    assert tp < 1e-14
    assert abs(choi_min) < 1e-14


def test_cptp_diagnostics_flags_raw_truncated_channel():
    # s_max = 0 envelope channel: a bare rank-one term, far from TP
    ch = logical_channel(SQ, CELL, envelope_charfun(0.5), TruncationSpec(0))
    tp, _ = cptp_diagnostics(ch)
    assert tp > 0.1


# ---------------------------------------------------------------------------
# Fock baselines


def test_loss_baseline_identity_at_zero():
    ch = fock_qubit_baseline("loss", 0.0)
    assert np.max(np.abs(ch.matrix() - np.eye(4))) < 1e-14


def test_loss_baseline_against_fock_oracle():
    # amplitude-damping fidelity vs an explicit truncated-Fock computation
    gamma = 0.01
    ch = fock_qubit_baseline("loss", gamma)
    got = average_gate_fidelity(ch)
    # oracle: Kraus on span{|0>,|1>} embedded in a Fock cutoff, entanglement
    # fidelity summed as |tr K|^2 / d^2
    from gkpsim.fock import apply_loss

    fe = 0.0
    for i, j in [(i, j) for i in range(2) for j in range(2)]:
        rho = np.zeros((12, 12), dtype=complex)
        rho[i, j] = 1.0
        out = apply_loss(rho, gamma)
        fe += out[i, j]
    fe = np.real(fe) / 4
    oracle = (2 * fe + 1) / 3
    assert got == pytest.approx(oracle, abs=1e-12)
    assert got == pytest.approx((4 + 2 * np.sqrt(1 - gamma) - gamma) / 6, abs=1e-12)


def test_dephasing_baseline_coherence_factor():
    sigma_sq = 1e-3
    ch = fock_qubit_baseline("dephasing", sigma_sq)
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    out = ch.apply(rho)
    assert out[0, 1] == pytest.approx(0.5 * np.exp(-sigma_sq / 2), rel=1e-12)
    assert average_gate_fidelity(ch) == pytest.approx((2 + np.exp(-sigma_sq / 2)) / 3, abs=1e-12)


def test_baseline_rejects_unknown():
    with pytest.raises(ValueError):
        fock_qubit_baseline("thermal", 0.1)


# ---------------------------------------------------------------------------
# Bloch / octahedron


def test_bloch_maximally_mixed():
    r, inside = bloch_and_octahedron(np.eye(2) / 2)
    assert np.allclose(r, 0)
    assert inside


def test_bloch_decoded_phi_plus():
    rho = 0.5 * np.eye(2) + (1 / np.pi) * np.array([[0, 1], [1, 0]])
    r, inside = bloch_and_octahedron(rho)
    assert np.allclose(r, [2 / np.pi, 0, 0], atol=1e-12)
    assert inside


def test_bloch_decoded_vacuum_outside_octahedron():
    from gkpsim.fock import ideal_decode_batch

    rho = np.zeros((60, 60), dtype=complex)
    rho[0, 0] = 1.0
    [decoded], _ = ideal_decode_batch([rho], SQ, grid=48)
    r, inside = bloch_and_octahedron(decoded)
    assert not inside
    assert np.sum(np.abs(r)) > 1.1


def test_bloch_trace_check():
    with pytest.raises(ValueError):
        bloch_and_octahedron(np.eye(2))
