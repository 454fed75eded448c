"""Kernel-algebra checks of gkpsim.charfun that only the tests use: the
characteristic functions of Gaussian unitaries and of quantum-limited
amplification, the Hermiticity and trace-preservation defects of a channel
kernel, and a Gaussian state pushed through a channel.
"""

import numpy as np

from gkpsim.charfun import (
    DIAG_DELTA,
    FULL,
    OPERATOR,
    POINT,
    ChannelCharFn,
    GaussianKernel,
    _integrate_out,
    gaussian_channel_charfun,
)
from gkpsim.symplectic import assert_symplectic, omega


def gaussian_unitary_charfun(s_matrix) -> GaussianKernel:
    """Characteristic function c_S(v) of a Gaussian unitary, as a kernel in v only.

    c_S(v) = exp(i pi v^T M v) / sqrt(|det(S - I)|),
    M = Omega (S + I) (S - I)^{-1} / 2, for the representative with
    Arg(tr U_S) = 0.  Raises if S - I is singular; factor S = S1 S2 and
    compose in that case.
    """
    s = np.asarray(s_matrix, dtype=float)
    assert_symplectic(s)
    n = s.shape[0] // 2
    si = s - np.eye(2 * n)
    if abs(np.linalg.det(si)) < 1e-10:
        raise ValueError(
            "S - I is singular: factor S = S1 S2 with both factors regular and compose"
        )
    m = 0.5 * omega(n) @ (s + np.eye(2 * n)) @ np.linalg.inv(si)
    if np.max(np.abs(m - m.T)) > 1e-12 * max(1.0, np.max(np.abs(m))):
        raise RuntimeError("M is not symmetric; S is not symplectic enough")
    m = (m + m.T) / 2
    amp = 1.0 / np.sqrt(abs(np.linalg.det(si)))
    return GaussianKernel(n, amp, 1j * np.pi * m, np.zeros(2 * n), kind=OPERATOR)


def amplification_charfun(g: float) -> ChannelCharFn:
    """Single-mode quantum-limited amplification, g = e^{kappa t} > 1."""
    if g <= 1:
        raise ValueError(f"gain must exceed 1, got {g}")
    return ChannelCharFn.single(
        gaussian_channel_charfun(np.sqrt(g) * np.eye(2), ((g - 1) / 2) * np.eye(2))
    )


def hermitian_defect(cf: ChannelCharFn, n_samples: int) -> float:
    """max |c(u,v) - c(v,u)^*| over seeded normal points of standard deviation
    0.7 (0 for valid channel kernels).

    Delta-constrained kernels are supported only on u = v, so channels
    containing them are sampled on the diagonal (where Hermitivity requires
    the density to be real).
    """
    rng = np.random.default_rng(1)
    diagonal_only = any(k.kind != FULL for _, k in cf.terms)
    worst = 0.0
    for _ in range(n_samples):
        u = rng.normal(size=2 * cf.n_modes) * 0.7
        v = u if diagonal_only else rng.normal(size=2 * cf.n_modes) * 0.7
        worst = max(worst, abs(cf.evaluate(u, v) - np.conj(cf.evaluate(v, u))))
    return worst


def trace_preservation_defect(cf: ChannelCharFn) -> float:
    """Residual of the regularized TP condition at the u = 0 slice.

    The TP identity integral c(u+v, v) e^{-i pi u^T Om v} dv = delta(u)
    reduces, for a single Gaussian kernel, to three closed-form conditions:
    the diagonal-restricted quadratic form vanishes, the delta's argument is a
    real linear map B u, and amp (2 pi)^{2n} / |det B| = 1.  Returns the max
    violation; raises for multi-term quadrature families (not spot-checkable).
    """
    if len(cf) != 1:
        raise ValueError("TP spot-check applies to single-kernel channels only")
    k = cf.terms[0][1]
    w = cf.terms[0][0]
    n = cf.n_modes
    n2 = 2 * n
    if k.kind == POINT:
        return abs(w * k.amp - 1.0)
    if k.kind == DIAG_DELTA:
        # total probability of the classical displacement density
        total = _integrate_out(k, w * k.amp, k.q_matrix, np.zeros((n2, n2)), k.linear, DIAG_DELTA).amp
        return abs(total - 1.0)
    om = omega(n)
    j = np.vstack([np.eye(n2), np.eye(n2)])
    e_u = np.vstack([np.eye(n2), np.zeros((n2, n2))])
    q_diag = j.T @ k.q_matrix @ j
    lin_diag = j.T @ k.linear
    b_of_u = 2 * j.T @ k.q_matrix @ e_u - 1j * np.pi * om.T
    b_real = -1j * b_of_u
    defect = float(np.max(np.abs(q_diag)))
    defect = max(defect, float(np.max(np.abs(lin_diag))))
    defect = max(defect, float(np.max(np.abs(b_real.imag))))
    density = w * k.amp * (2 * np.pi) ** n2 / abs(np.linalg.det(b_real.real))
    defect = max(defect, abs(density - 1.0))
    return defect


def transform_gaussian_state(cf: ChannelCharFn, mu, v_cov):
    """Push a Gaussian state (mean mu, covariance V) through the channel.

    Evaluates the closed-form integral of the state characteristic function
    against the channel kernel and reads the output moments back off.  Used
    to validate kernels against the moment update V -> T V T^T + N.
    """
    mu = np.asarray(mu, dtype=float)
    v_cov = np.asarray(v_cov, dtype=float)
    n = cf.n_modes
    n2 = 2 * n
    om = omega(n)
    # state kernel: c_rho(y) = exp(-pi y^T (Om V Om^T) y - i pi (Om mu)^T y)
    rho = GaussianKernel(n, 1.0, -np.pi * om @ v_cov @ om.T, -1j * np.pi * om @ mu, kind=OPERATOR)
    outs = []
    for w, k in cf.terms:
        if k.kind == POINT:
            outs.append(GaussianKernel(n, w * k.amp, rho.q_matrix, rho.linear, kind=OPERATOR))
        elif k.kind == DIAG_DELTA:
            # classical displacement noise multiplies c_rho by the Fourier
            # transform of the displacement density f:
            # c_out(x) = c_rho(x) * int dy f(y) e^{-2 i pi y^T Om x}
            outs.append(_integrate_out(rho, w * k.amp, k.q_matrix, -2j * np.pi * om, k.linear, OPERATOR))
        else:
            # c_out(x) = int du dv c(u,v) e^{i pi x^T Om v} e^{i pi (x+v)^T Om u} c_rho(x + v - u):
            # Gaussian integral over z = (u, v) with c_rho argument x + G z, G = [-I, I]
            g = np.hstack([-np.eye(n2), np.eye(n2)])
            cross = np.block([[np.zeros((n2, n2)), 0.5j * np.pi * om.T],
                              [0.5j * np.pi * om, np.zeros((n2, n2))]])  # i pi v^T Om u
            b_x = 2 * g.T @ rho.q_matrix + np.vstack([1j * np.pi * om.T, 1j * np.pi * om.T])
            outs.append(_integrate_out(rho, w * k.amp, k.q_matrix + g.T @ rho.q_matrix @ g + cross,
                                       b_x, k.linear + g.T @ rho.linear, OPERATOR))
    q_acc, l_acc = outs[0].q_matrix, outs[0].linear
    for out in outs[1:]:
        if np.max(np.abs(out.q_matrix - q_acc)) > 1e-9 or np.max(np.abs(out.linear - l_acc)) > 1e-9:
            raise ValueError("multi-term channel is not Gaussian; cannot extract moments")
    v_out = np.real(-om.T @ q_acc @ om / np.pi)
    mu_out = np.real(1j * (om.T @ l_acc) / np.pi)
    return mu_out, v_out, sum(out.amp for out in outs)
