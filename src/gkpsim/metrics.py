"""Codeword orthonormalization, channel fidelity metrics, CPTP diagnostics,
Bloch-sphere analysis, and the trivial Fock-encoding baselines.

The channel metrics read chi with numpy operations that hold both for a
complex chi and for an object chi of mpmath numbers; only the Hermitian
eigensolver depends on the precision, and _eigvalsh picks it from the dtype.
"""

from __future__ import annotations

import warnings

import numpy as np

from .logical import LogicalSuperop, _pauli_basis, _pauli_components, pauli_matrix


def _eigvalsh(h: np.ndarray):
    """Eigenvalues of a Hermitian matrix, at the precision of its entries."""
    if h.dtype != object:
        return np.linalg.eigvalsh(h)
    ctx = h[0, 0].context
    return list(ctx.eighe(ctx.matrix(h.tolist()), eigvals_only=True))


def gram_from_channel(channel: LogicalSuperop) -> np.ndarray:
    """Codeword Gram matrix G[mu, nu] = tr(E(|nu><mu|)) = sum_ab chi[a, b] <mu|P(b)^dag P(a)|nu>,
    extracted from a raw (non-trace-preserving) logical envelope channel."""
    basis = _pauli_basis(channel.dims)
    m, d, _ = basis.shape
    weighted = channel.chi.T @ basis.reshape(m, d * d)  # row b: sum_a chi[a, b] P(a)
    return basis.conj().reshape(m * d, d).T @ weighted.reshape(m * d, d)


def ortho_matrix_from_gram(g: np.ndarray) -> np.ndarray:
    """Symmetric (Loewdin) orthonormalization matrix C of two nearly orthogonal codewords.

    Normalizes each codeword, then applies the inverse square root of the
    normalized Gram: row mu of C expresses orthonormalized codeword mu in
    terms of the unnormalized ones, so conj(C) G C^T = I.  The phase of the
    cross overlap is overlap / |overlap|, and 1 when the overlap vanishes.
    Works on float and mpmath Grams.
    """
    if g.shape != (2, 2):
        raise ValueError("orthonormalization is defined for qubit codes")
    g00, g11 = g[0, 0].real, g[1, 1].real
    if not (0 < g00 < np.inf and 0 < g11 < np.inf):
        raise ValueError("degenerate codewords: Gram matrix is not positive definite")
    n0, n1 = g00 ** 0.5, g11 ** 0.5
    overlap = g[0, 1]
    r = abs(overlap) / (n0 * n1)
    if r >= 1:
        raise ValueError("degenerate codewords: normalized overlap >= 1")
    if abs(overlap) < 2.0 ** -1000:  # numpy's complex division overflows on a subnormal |overlap|
        overlap = overlap * 2.0 ** 600  # exact
    phase = overlap / abs(overlap) if r > 0 else 1
    r_plus = (1 + r) ** -0.5 + (1 - r) ** -0.5
    r_minus = (1 + r) ** -0.5 - (1 - r) ** -0.5
    return np.array([
        [r_plus / (2 * n0), phase.conjugate() * r_minus / (2 * n1)],
        [phase * r_minus / (2 * n0), r_plus / (2 * n1)],
    ])


def lowdin_orthonormalize(channel: LogicalSuperop):
    """Orthonormalize the codewords of a raw logical channel.

    The Loewdin matrix C comes from the channel's own codeword Gram.  For a
    channel N o E with N trace preserving, that Gram is the Gram of the
    envelope channel E, so the same C serves noisy and noiseless channels.
    Returns (C, composed trace-preserving channel), where the composed
    channel feeds C^T |mu> into the raw one.
    """
    c = ortho_matrix_from_gram(gram_from_channel(channel))
    return c, channel.conjugate_input(c.T)


def _tp_defect(channel: LogicalSuperop):
    """max |tr E(|i><j|) - delta_ij|."""
    return np.max(np.abs(gram_from_channel(channel) - np.eye(channel.d_total)))


def average_gate_fidelity(channel: LogicalSuperop, warn: bool = True):
    """Average gate fidelity F = (d F_e + 1)/(d + 1), with the entanglement
    fidelity F_e = chi[0, 0] (the identity's entry).

    Warns (and still reports the raw value) if the channel is not trace
    preserving to 1e-6.  1 - F cancels every digit of a small infidelity
    (below about 1e-16 in double precision); average_gate_infidelity does not.
    """
    d = channel.d_total
    if warn:
        defect = _tp_defect(channel)
        if defect > 1e-6:
            warnings.warn(f"channel is not TP (defect {float(defect):.2e}); fidelity is raw")
    return ((d * channel.chi[0, 0] + 1) / (d + 1)).real


def average_gate_infidelity(channel: LogicalSuperop):
    """1 - F of a trace-preserving channel, computed without cancellation.

    For a TP chi, 1 - F_e = sum_{a != I} chi[a, a] (Nielsen & Chuang, section
    8.4.2), a sum of diagonal entries of a positive semidefinite matrix, and
    1 - F = d/(d + 1) (1 - F_e) (Nielsen, arXiv:quant-ph/0205035).  Each
    term keeps its own relative precision, so a double-precision chi gives
    the infidelity to about 1e-13 relative while its entries stay normal
    numbers.
    """
    d = channel.d_total
    return d * sum(c.real for c in np.diagonal(channel.chi)[1:]) / (d + 1)


def choi_matrix(channel: LogicalSuperop) -> np.ndarray:
    """J = sum_ij |i><j| (x) E(|i><j|) = V chi V^dag, where column a of V is
    sum_i |i> (x) P(a)|i>."""
    d = channel.d_total
    v = _pauli_basis(channel.dims).transpose(0, 2, 1).reshape(-1, d * d).T
    return v @ channel.chi @ v.conj().T


def cptp_diagnostics(channel: LogicalSuperop):
    """(tp_defect, min_choi_eigenvalue)."""
    j_mat = choi_matrix(channel)
    return _tp_defect(channel), min(_eigvalsh((j_mat + j_mat.conj().T) / 2))


# ---------------------------------------------------------------------------
# trivial Fock-encoding baselines (closed form)


def _kraus_to_superop(kraus) -> LogicalSuperop:
    """chi[a, b] = sum_k g_k[a] conj(g_k[b]) for Kraus operators K_k = sum_a g_k[a] P(a)."""
    g = _pauli_components((2,), np.array(kraus))
    return LogicalSuperop((2,), g.T @ g.conj())


def fock_qubit_baseline(noise: str, param: float) -> LogicalSuperop:
    """Logical channel of the trivial {|0>, |1>} Fock encoding under loss or dephasing.

    noise='loss': amplitude damping with rate gamma = param.
    noise='dephasing': phase damping with coherence factor e^{-sigma^2/2},
    sigma^2 = param (the Gaussian average of e^{i phi}).
    """
    if noise == "loss":
        gamma = param
        if not 0 <= gamma <= 1:
            raise ValueError("loss rate must lie in [0, 1]")
        k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
        k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
        return _kraus_to_superop([k0, k1])
    if noise == "dephasing":
        sigma_sq = param
        if sigma_sq < 0:
            raise ValueError("dephasing variance must be nonnegative")
        lam = np.exp(-sigma_sq / 2)
        k0 = np.sqrt((1 + lam) / 2) * np.eye(2, dtype=complex)
        k1 = np.sqrt((1 - lam) / 2) * pauli_matrix((2,), (0, 1))  # Z
        return _kraus_to_superop([k0, k1])
    raise ValueError(f"no Fock baseline for noise {noise!r}; the families with one are loss and dephasing")


# ---------------------------------------------------------------------------
# Bloch sphere


def bloch_and_octahedron(rho: np.ndarray):
    """Bloch vector (r_x, r_y, r_z) of a qubit state and stabilizer-octahedron
    membership |r_x| + |r_y| + |r_z| <= 1; rho must have unit trace to 1e-9."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError("expected a 2x2 density matrix")
    if abs(np.trace(rho) - 1) > 1e-9:
        raise ValueError(f"density matrix must have unit trace, got {np.trace(rho)}")
    r = np.array([np.real(np.trace(rho @ p)) for p in _pauli_basis((2,))[[2, 3, 1]]])  # X, Y, Z
    inside = bool(np.sum(np.abs(r)) <= 1 + 1e-12)
    return r, inside
