"""Characteristic functions of Gaussian channels.

A channel N acts as N(rho) = integral du dv c(u,v) W(u) rho W(v)^dag with
W(v) = exp(sqrt(2 pi) i xi^T Omega v).  Kernels here are Gaussians in the
stacked variable w = (u, v), optionally constrained by delta^{2n}(u - v)
(classical displacement noise) or concentrated at the origin (identity).

Composition of two kernels is evaluated in closed form by completing the
square; no numerical integration is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symplectic import omega

FULL = "full"
DIAG_DELTA = "diag_delta"   # f(u) * delta^{2n}(u - v)
POINT = "point"             # amp * delta^{2n}(u) delta^{2n}(v)
OPERATOR = "operator"       # kernel in a single argument: c(v) of an operator


def sqrt_det_rhp(m: np.ndarray) -> complex:
    """sqrt(det m) for a matrix whose eigenvalues lie in the right half-plane.

    The branch is the analytic continuation from positive-definite matrices,
    which equals the product of principal square roots of the eigenvalues.
    """
    lam = np.linalg.eigvals(m)
    if np.any(lam.real <= 0):
        raise ValueError("matrix has eigenvalues outside the right half-plane")
    return complex(np.prod(np.sqrt(lam)))


@dataclass
class GaussianKernel:
    """amp * exp(w^T Q w + L^T w) on w = (u, v), or a delta-constrained variant.

    For kind == DIAG_DELTA, Q and L have dimension 2n and parameterize the
    density f(u) multiplying delta^{2n}(u - v).  For kind == POINT only amp
    is meaningful.
    """

    n_modes: int
    amp: complex
    q_matrix: np.ndarray
    linear: np.ndarray = None
    kind: str = FULL
    channel_tn: tuple = None   # optional (T, N) metadata for Gaussian channels

    def __post_init__(self):
        dim = 4 * self.n_modes if self.kind == FULL else 2 * self.n_modes
        if self.kind == POINT:
            self.q_matrix = np.zeros((0, 0), dtype=complex)
            self.linear = np.zeros(0, dtype=complex)
            return
        self.q_matrix = np.asarray(self.q_matrix, dtype=complex)
        if self.q_matrix.shape != (dim, dim):
            raise ValueError(f"Q must be {dim}x{dim}, got {self.q_matrix.shape}")
        if np.max(np.abs(self.q_matrix - self.q_matrix.T)) > 1e-12 * max(1.0, np.max(np.abs(self.q_matrix))):
            raise ValueError("Q must be symmetric")
        if self.linear is None:
            self.linear = np.zeros(dim, dtype=complex)
        else:
            self.linear = np.asarray(self.linear, dtype=complex)

    def evaluate(self, u, v) -> complex:
        """Kernel value at (u, v).

        Delta-constrained kernels return the density against the delta factor:
        the smooth prefactor f(u) for DIAG_DELTA (meaningful on u == v), and
        amp for POINT (meaningful at the origin).
        """
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if self.kind == FULL:
            w = np.concatenate([u, v])
            return self.amp * np.exp(w @ self.q_matrix @ w + self.linear @ w)
        if self.kind in (DIAG_DELTA, OPERATOR):
            return self.amp * np.exp(u @ self.q_matrix @ u + self.linear @ u)
        return self.amp


@dataclass
class ChannelCharFn:
    """Weighted sum of Gaussian kernels."""

    n_modes: int
    terms: list  # of (weight: complex, GaussianKernel)

    def evaluate(self, u, v) -> complex:
        return sum(w * k.evaluate(u, v) for w, k in self.terms)

    def __len__(self):
        return len(self.terms)

    @classmethod
    def single(cls, kernel: GaussianKernel) -> "ChannelCharFn":
        return cls(kernel.n_modes, [(1.0 + 0j, kernel)])


# ---------------------------------------------------------------------------
# constructors


def kraus_pair_kernel(op_kernel: "GaussianKernel") -> GaussianKernel:
    """Channel kernel c(u, v) = c_E(u) c_E(v)^* from an operator kernel c_E."""
    if op_kernel.kind != OPERATOR:
        raise ValueError("expected an operator kernel")
    n = op_kernel.n_modes
    n2 = 2 * n
    q = np.zeros((2 * n2, 2 * n2), dtype=complex)
    q[:n2, :n2] = op_kernel.q_matrix
    q[n2:, n2:] = np.conj(op_kernel.q_matrix)
    lin = np.concatenate([op_kernel.linear, np.conj(op_kernel.linear)])
    amp = op_kernel.amp * np.conj(op_kernel.amp)
    return GaussianKernel(n, amp, q, lin, FULL)


def gaussian_channel_charfun(t_matrix, n_matrix, check_cptp: bool = False) -> GaussianKernel:
    """Kernel of the Gaussian channel (T, N): V -> T V T^T + N.

    Requires det(T - I) != 0; T = I channels are delta-constrained, use
    displacement_noise_charfun.
    """
    t = np.asarray(t_matrix, dtype=float)
    nn = np.asarray(n_matrix, dtype=float)
    two_n = t.shape[0]
    n = two_n // 2
    om = omega(n)
    ti = t - np.eye(two_n)
    if abs(np.linalg.det(ti)) < 1e-10:
        raise ValueError("T - I is singular; use a delta-kernel constructor")
    if check_cptp:
        herm = nn + 0.5j * om - 0.5j * t @ om @ t.T
        ev = np.linalg.eigvalsh((herm + herm.conj().T) / 2)
        if ev.min() < -1e-10:
            raise ValueError("(T, N) is not a valid CPTP Gaussian channel")
    ti_inv = np.linalg.inv(ti)
    l_mat = om @ ti_inv @ nn @ ti_inv.T @ om.T
    m = 0.5 * om @ (t + np.eye(two_n)) @ ti_inv
    ms = (m + m.T) / 2
    ma = (m - m.T) / 2
    quu = 1j * np.pi * ms - np.pi * l_mat
    qvv = -1j * np.pi * ms - np.pi * l_mat
    quv = 1j * np.pi * ma + np.pi * l_mat
    q = np.block([[quu, quv], [quv.T, qvv]])
    amp = 1.0 / abs(np.linalg.det(ti))
    return GaussianKernel(n, amp, q, kind=FULL, channel_tn=(t, nn))


def loss_charfun(gamma: float) -> ChannelCharFn:
    """Single-mode pure loss, gamma = 1 - e^{-kappa t}."""
    if not 0 < gamma < 1:
        raise ValueError(f"loss rate must lie in (0, 1), got {gamma}")
    tau = np.sqrt(1 - gamma)
    return ChannelCharFn.single(gaussian_channel_charfun(tau * np.eye(2), (gamma / 2) * np.eye(2)))


def random_displacement_charfun(sigma: float) -> ChannelCharFn:
    """Gaussian random displacement noise: c(u,v) = sigma^-2 e^{-pi|u|^2/sigma^2} delta^2(u-v)."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    k = GaussianKernel(1, sigma ** -2.0, (-np.pi / sigma ** 2) * np.eye(2), kind=DIAG_DELTA,
                       channel_tn=(np.eye(2), sigma ** 2 * np.eye(2)))
    return ChannelCharFn.single(k)


def displacement_noise_from_n(n_matrix) -> ChannelCharFn:
    """Classical displacement noise with covariance update V -> V + N (T = I)."""
    nn = np.asarray(n_matrix, dtype=float)
    two_n = nn.shape[0]
    n = two_n // 2
    amp = 1.0 / np.sqrt(np.linalg.det(nn))
    k = GaussianKernel(n, amp, -np.pi * np.linalg.inv(nn), kind=DIAG_DELTA,
                       channel_tn=(np.eye(two_n), nn))
    return ChannelCharFn.single(k)


def identity_charfun(n: int = 1) -> ChannelCharFn:
    return ChannelCharFn(n, [(1.0 + 0j, GaussianKernel(n, 1.0 + 0j, None, kind=POINT))])


def _envelope_operator_kernel(z: complex) -> GaussianKernel:
    """Operator kernel of e^{-z a^dag a} (single mode), z with positive real part.

    c(v) = exp(-(pi/2) coth(z/2) |v|^2) / (1 - e^{-z}).
    """
    coth = 1.0 / np.tanh(z / 2.0)
    amp = 1.0 / (1.0 - np.exp(-z))
    return GaussianKernel(1, amp, (-np.pi / 2) * coth * np.eye(2), np.zeros(2), kind=OPERATOR)


def envelope_charfun(delta: float) -> ChannelCharFn:
    """Kraus-form kernel of the (non-TP) envelope map rho -> E rho E^dag, E = e^{-Delta^2 n}."""
    if delta <= 0:
        raise ValueError(f"Delta must be positive, got {delta}")
    return ChannelCharFn.single(kraus_pair_kernel(_envelope_operator_kernel(delta ** 2)))


def dephased_envelope_charfun(sigma: float, delta: float, nodes: int = 64) -> ChannelCharFn:
    """White-noise dephasing composed with the envelope, D^sigma o E^Delta.

    Each Gauss-Hermite node phi contributes the Kraus pair of the complex
    envelope e^{-(Delta^2 - i phi) n}; the raw dephasing kernel is never
    formed standalone (its phi -> 0 prefactor is non-integrable).
    """
    if delta <= 0:
        raise ValueError(f"Delta must be positive, got {delta}")
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    if sigma == 0:
        return envelope_charfun(delta)
    if nodes < 8:
        raise ValueError("need at least 8 quadrature nodes")
    xs, ws = np.polynomial.hermite.hermgauss(nodes)
    terms = []
    phis = np.sqrt(2.0) * sigma * xs
    for x, w, phi in zip(xs, ws, phis):
        kern = kraus_pair_kernel(_envelope_operator_kernel(delta ** 2 - 1j * phi))
        terms.append((w / np.sqrt(np.pi) + 0j, kern))
    return ChannelCharFn(1, terms)


# ---------------------------------------------------------------------------
# composition


def _integrate_out(base: GaussianKernel, amp, a, b_mat, b0, kind) -> GaussianKernel:
    """amp * base(w) * int dx exp(x^T a x + x^T (b_mat w + b0)), in closed form.

    The integral is pi^{k/2} / sqrt(det(-a)) exp(-(b_mat w + b0)^T a^{-1} (b_mat w + b0) / 4)
    for k = dim x; its exponent is folded into base's quadratic form in w.
    """
    a_inv = np.linalg.inv(a)
    q = base.q_matrix - 0.25 * b_mat.T @ a_inv @ b_mat
    lin = base.linear - 0.5 * b_mat.T @ a_inv @ b0
    amp = amp * np.pi ** (a.shape[0] / 2) / sqrt_det_rhp(-a) * np.exp(-0.25 * b0 @ a_inv @ b0)
    return GaussianKernel(base.n_modes, amp, (q + q.T) / 2, lin, kind)


def _compose_kernels(outer: GaussianKernel, inner: GaussianKernel) -> GaussianKernel:
    """Closed-form Gaussian convolution
    c(u,v) = int du~ dv~ e^{i pi (u^T Om u~ - v^T Om v~)} c_in(u-u~, v-v~) c_out(u~, v~).
    """
    n = inner.n_modes
    n2 = 2 * n
    om = omega(n)
    z = np.zeros((n2, n2))
    j = np.vstack([np.eye(n2), np.eye(n2)])  # w = (u, u) on a delta support
    duv = np.hstack([np.eye(n2), -np.eye(n2)])

    if outer.kind == POINT:
        return GaussianKernel(n, outer.amp * inner.amp, inner.q_matrix, inner.linear, inner.kind,
                              inner.channel_tn)
    if inner.kind == POINT:
        # c(u, v) = amp_in * e^{i pi (u^T Om u - v^T Om v)} c_out(u, v) = amp_in * c_out(u, v)
        return GaussianKernel(n, outer.amp * inner.amp, outer.q_matrix, outer.linear, outer.kind,
                              outer.channel_tn)

    if outer.kind == FULL and inner.kind == FULL:
        p = 1j * np.pi * np.block([[om, z], [z, -om]])  # phase = w^T P x, x = (u~, v~)
        return _integrate_out(inner, inner.amp * outer.amp, inner.q_matrix + outer.q_matrix,
                              p.T - 2 * inner.q_matrix, outer.linear - inner.linear, FULL)

    if outer.kind == DIAG_DELTA and inner.kind == FULL:
        # integrate over u~ only, v~ = u~ + (v - u) on the delta support => w_in = w0 - J u~
        return _integrate_out(inner, inner.amp * outer.amp, outer.q_matrix + j.T @ inner.q_matrix @ j,
                              -2 * j.T @ inner.q_matrix + 1j * np.pi * om.T @ duv,
                              outer.linear - j.T @ inner.linear, FULL)

    if outer.kind == FULL and inner.kind == DIAG_DELTA:
        # inner delta sets u - u~ = v - v~ = y; integrate over y:
        # c(u,v) = int dy f_in(y) e^{i pi (u^T Om (u-y) - v^T Om (v-y))} c_out(u-y, v-y)
        # expansion in y around w0=(u,v): c_out at (w0 - J y); phase -i pi (u-v)^T Om y
        return _integrate_out(outer, inner.amp * outer.amp, inner.q_matrix + j.T @ outer.q_matrix @ j,
                              -2 * j.T @ outer.q_matrix - 1j * np.pi * om.T @ duv,
                              inner.linear - j.T @ outer.linear, FULL)

    if outer.kind == DIAG_DELTA and inner.kind == DIAG_DELTA:
        # classical convolution of the two densities
        return _integrate_out(inner, inner.amp * outer.amp, inner.q_matrix + outer.q_matrix,
                              -2 * inner.q_matrix, outer.linear - inner.linear, DIAG_DELTA)

    raise ValueError(f"unsupported kernel kinds {outer.kind} o {inner.kind}")


def compose(outer: ChannelCharFn, inner: ChannelCharFn) -> ChannelCharFn:
    """Characteristic function of outer o inner (inner applied first)."""
    if outer.n_modes != inner.n_modes:
        raise ValueError("mode counts differ")
    # (T, N)-tagged single-kernel channels compose at the (T, N) level, which
    # also covers compositions that degenerate to delta kernels (T2 T1 = I).
    if (len(outer) == 1 and len(inner) == 1
            and outer.terms[0][1].channel_tn is not None
            and inner.terms[0][1].channel_tn is not None):
        w = outer.terms[0][0] * inner.terms[0][0]
        t2, n2m = outer.terms[0][1].channel_tn
        t1, n1m = inner.terms[0][1].channel_tn
        t = t2 @ t1
        nn = t2 @ n1m @ t2.T + n2m
        if abs(np.linalg.det(t - np.eye(t.shape[0]))) < 1e-10:
            if np.max(np.abs(t - np.eye(t.shape[0]))) > 1e-9:
                raise ValueError("composite T - I is singular but T != I; not representable")
            out = displacement_noise_from_n(nn)
        else:
            out = ChannelCharFn.single(gaussian_channel_charfun(t, nn))
        return ChannelCharFn(outer.n_modes, [(w, out.terms[0][1])])
    terms = []
    for w2, k2 in outer.terms:
        for w1, k1 in inner.terms:
            try:
                terms.append((w1 * w2, _compose_kernels(k2, k1)))
            except ValueError as exc:
                raise ValueError(f"divergent composition: {exc}") from exc
    return ChannelCharFn(outer.n_modes, terms)
