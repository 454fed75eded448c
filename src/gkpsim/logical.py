"""Logical noise channels: cell integrals of channel kernels and the resulting
qudit channel N(rho) = sum_{a,b} chi[a, b] P(a) rho P(b)^dag.

window_coefficients integrates the raw coefficients c_{s,t} of
N(rho) = sum_{s,t} c_{s,t} P(s) rho P(t)^dag over a truncated dual-lattice
window: box cells analytically (per-coordinate complex Gaussians via the
complex error function), other bounded cells by tensor/triangle quadrature.
Only b_v and const of the restricted exponent change from one (s, t) pair
to the next, and both are affine in each label, so window_coefficients
computes the rest of each kernel term once: the restricted form Q_v, the box
cell's axis-aligned and decay checks of it, every quadrature rule with
p^T Q_v p on its points, the pieces of b_v and const that depend on one
label only (for every label of the window, as one batch of elementwise
products), and each distinct 1D factor of a box integral (a product of
factors that many pairs share, keyed by their exact arguments).  A pair then
adds up its b_v and const from the pieces of its two labels in a few
scalar operations.  It forgets all of it before the next term and when it
returns; each (pair, term) still makes one box_cell_integral or
numeric_cell_integral call, and such a call on its own computes the pieces
of just its two labels, with the same bits.
P(s + d k) is a sign times P(s), so the window folds exactly into the
d^{2n} x d^{2n} matrix chi (LogicalSuperop.from_pauli_pairs).

Channels are built in double precision.  A 1D factor whose erf arguments
would overflow it is built from endpoint values of the integrand and the
Faddeeva function instead (_endpoint_parts).  An integral whose Gaussian
integrand is nonzero but comes out exactly 0 has underflowed, and
logical_channel counts these in meta["underflowed"]; on quadrature cells
it records an error estimate of the non-identity diagonal in
meta["quad_err"].  Passing a digit count dps is the fallback for an
underflowed channel: the box integrals then run in a private mpmath context
at that precision, whose exponent is unbounded, so a fixed ~30 digits serve
however deep the squeezing; chi is then an object array of mpmath numbers
and the same metrics apply.
"""

from __future__ import annotations

import cmath
import contextvars
import functools
import itertools
import warnings
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np
import scipy.special

from .charfun import DIAG_DELTA, FULL, POINT, ChannelCharFn, GaussianKernel
from .lattice import BoxCell, GkpCode, PrimitiveCell, VoronoiCell
from .symplectic import omega


class DecayViolationError(ValueError):
    """The channel characteristic function does not decay; truncation is meaningless."""


# ---------------------------------------------------------------------------
# complex error function


def _erf_diff(ctx, z1, z2):
    """erf(z2) - erf(z1) without saturation loss for large same-sign real parts,
    in double precision (ctx None, Faddeeva-backed scipy) or in the mpmath
    context ctx."""
    if ctx is None:
        z1, z2 = complex(z1), complex(z2)
        erf, erfc = scipy.special.erf, scipy.special.erfc
    else:
        erf, erfc = ctx.erf, ctx.erfc
    if z1.real > 4 and z2.real > 4:
        return erfc(z1) - erfc(z2)
    if z1.real < -4 and z2.real < -4:
        return erfc(-z2) - erfc(-z1)
    return erf(z2) - erf(z1)


# ---------------------------------------------------------------------------
# truncation window


@dataclass(frozen=True)
class TruncationSpec:
    """Component-wise truncation |s_J|, |t_J| <= s_max."""

    s_max: int = 1

    def __post_init__(self):
        if self.s_max < 0:
            raise ValueError("s_max must be nonnegative")

    def window(self, two_n: int):
        rng = range(-self.s_max, self.s_max + 1)
        return [tuple(s) for s in itertools.product(rng, repeat=two_n)]


# ---------------------------------------------------------------------------
# cell integrals


def _point_value(kernel: GaussianKernel, code: GkpCode, cell: PrimitiveCell, s, t):
    """A POINT kernel contributes amp when -lbar(s) and -lbar(t) both lie in the cell."""
    inside = cell.contains(-code.dual_vector(s)) and cell.contains(-code.dual_vector(t))
    return kernel.amp if inside else 0.0


_IPI = 1j * np.pi


def _each(m, lab):
    """m @ l for every row l of lab, added one column at a time.  Only
    elementwise operations, so a label's bits do not depend on the batch."""
    out = m[:, 0] * lab[:, :1]
    for j in range(1, lab.shape[1]):
        out = out + m[:, j] * lab[:, j:j + 1]
    return out


def _rowdot(x, lab):
    """x_k . l_k for every row pair, added one column at a time."""
    out = x[:, 0] * lab[:, 0]
    for j in range(1, lab.shape[1]):
        out = out + x[:, j] * lab[:, j]
    return out


class _TermWork:
    """What the cell integrals of one kernel term on one code and cell share
    over every (s, t) pair: the restricted quadratic form, its checked box
    diagonal, each quadrature rule with p^T Q_v p on its points, the
    per-label pieces of the exponent and the distinct 1D factors.  The
    pieces of a label are computed the first time a pair needs them, or for
    a whole window at once by prime; everything else the first time a pair
    needs it.

    FULL: with lbar = lbar(s) and J = (1, 1)^T, the exponent of
    c_{s,t}(v, v) = c(v + lbar(s), v + lbar(t)) e^{i pi v^T Om (lbar(s) - lbar(t))}
    is affine in each label, so a pair adds up
      b_v = a(s) + b(t) + J^T L + i pi (Om lbar(s) - Om lbar(t)),
      const = alpha(s) + beta(t) + u(s) . lbar(t),
    from a = (2 J^T Q)_1 lbar, b = (2 J^T Q)_2 lbar, alpha = lbar^T Q_11 lbar + L_1^T lbar,
    beta = lbar^T Q_22 lbar + L_2^T lbar and u = (Q_12 + Q_21^T)^T lbar, where
    the subscripts split the (u, v) arguments.  DIAG_DELTA: the density
    f(v + lbar(s)) has (b_v, const) = (2 Q lbar + L, lbar^T Q lbar + L^T lbar)
    per label, present only for s = t.
    """

    def __init__(self, kernel: GaussianKernel, code: GkpCode, cell: PrimitiveCell):
        self.kernel, self.code, self.cell = kernel, code, cell
        self.pieces = {}  # tuple(s) -> the pieces of lbar(s)
        self.factors = {}  # (q, b, lo, hi) -> _gaussian_1d_parts
        self.rules = {}  # order -> (points, weights, p^T Q_v p)

    @functools.cached_property
    def restricted(self):
        """(Q_v, 2 J^T Q, J^T L as a list, omega(n)), with J = (1, 1)^T the
        restriction to u = v; J is the identity for DIAG_DELTA (omega None)."""
        kernel = self.kernel
        if kernel.kind == DIAG_DELTA:
            q = kernel.q_matrix
            return q, 2 * q, kernel.linear.tolist(), None
        if kernel.kind != FULL:
            raise ValueError(f"cannot cell-integrate a kernel of kind {kernel.kind}")
        n = kernel.n_modes
        j = np.vstack([np.eye(2 * n), np.eye(2 * n)])
        qv = j.T @ kernel.q_matrix @ j
        return qv, 2 * j.T @ kernel.q_matrix, (j.T @ kernel.linear).tolist(), omega(n)

    def prime(self, labels):
        """Compute the pieces of every label not seen yet, as one batch."""
        new = list(dict.fromkeys(s for s in map(tuple, labels) if s not in self.pieces))
        if not new:
            return
        _, two_jq, _, om = self.restricted
        q, lin = self.kernel.q_matrix, self.kernel.linear
        lab = np.array([self.code.dual_vector(s) for s in new])
        if om is None:
            pieces = zip((_each(two_jq, lab) + lin).tolist(), _rowdot(_each(q, lab) + lin, lab).tolist())
        else:
            h = lab.shape[1]
            pieces = zip(_each(two_jq[:, :h], lab).tolist(), _each(two_jq[:, h:], lab).tolist(),
                         _each(om, lab).tolist(),
                         _rowdot(_each(q[:h, :h], lab) + lin[:h], lab).tolist(),
                         _rowdot(_each(q[h:, h:], lab) + lin[h:], lab).tolist(),
                         _each((q[:h, h:] + q[h:, :h].T).T, lab).tolist(), lab.tolist())
        self.pieces.update(zip(new, pieces))

    def form(self, s, t):
        """(b_v, const) of the exponent v^T Q_v v + b_v^T v + const of
        c_{s,t}(v, v), or None where it vanishes; b_v is a list."""
        s, t = tuple(s), tuple(t)
        pieces = self.pieces
        if s not in pieces or t not in pieces:
            self.prime((s, t))
        _, _, jl, om = self.restricted
        if om is None:
            return pieces[s] if s == t else None
        a, _, om_s, alpha, _, u, _ = pieces[s]
        _, b, om_t, _, beta, _, lt = pieces[t]
        # Om lbar is exact, so pairs with one lbar(s) - lbar(t) get one Omega
        # term and share the 1D factors it enters
        bv = [x + y + c + _IPI * (p - r) for x, y, c, p, r in zip(a, b, jl, om_s, om_t)]
        const = alpha + beta
        for x, y in zip(u, lt):
            const += x * y
        return bv, const

    @functools.cached_property
    def box_diag(self):
        """The diagonal of Q_v, which must be all of it and decay on every axis."""
        qv = self.restricted[0]
        scale = max(1.0, float(np.max(np.abs(qv))))
        if np.max(np.abs(qv - np.diag(np.diag(qv)))) > 1e-10 * scale:
            raise ValueError("diagonal-restricted form is not axis-aligned; use numeric_cell_integral")
        diag = np.diag(qv)
        if np.any(diag.real >= 0):
            raise ValueError("diagonal-restricted form is not decaying; cell integral diverges")
        return diag.tolist()

    def rule(self, order: int):
        """(points, weights, p^T Q_v p) of the cell rule of the given order."""
        if order not in self.rules:
            pts, wts = _cell_quadrature_points(self.cell, order)
            qv = self.restricted[0]
            self.rules[order] = pts, wts, np.einsum("ki,ij,kj->k", pts, qv, pts)
        return self.rules[order]


# The _TermWork of the kernel term that window_coefficients is integrating;
# unset outside that call, so nothing outlives it.
_TERM_WORK: contextvars.ContextVar[_TermWork] = contextvars.ContextVar("_TERM_WORK")


def _term_work(kernel: GaussianKernel, code: GkpCode, cell: PrimitiveCell) -> _TermWork:
    """window_coefficients' work for this very kernel, code and cell, or else a
    fresh one that only the calling integral uses."""
    work = _TERM_WORK.get(None)
    if work is not None and work.kernel is kernel and work.code is code and work.cell is cell:
        return work
    return _TermWork(kernel, code, cell)


def _gaussian_1d_parts(ctx, q, b, lo, hi, memo: dict):
    """(exponent, prefactor) with int_lo^hi exp(-q x^2 + b x) dx = prefactor * exp(exponent).

    Split so callers can sum exponents across coordinates before
    exponentiating; the factored form overflows double precision in the
    deeply squeezed regime even though the product is tiny.  A repeated
    (q, b, lo, hi) returns the first result stored in memo.
    """
    key = (q, b, lo, hi)
    if key not in memo:
        m, scalar = (np, complex) if ctx is None else (ctx, ctx.mpc)
        q = scalar(q)
        b = scalar(b)
        sq = m.sqrt(q)
        center = b / (2 * q)
        z1, z2 = sq * (lo - center), sq * (hi - center)
        if ctx is None and max((-z1 * z1).real, (-z2 * z2).real) > ERF_GROWTH_MAX:
            exponent, pref = _endpoint_parts(q, b, sq, z1, z2, lo, hi)
        else:
            exponent, pref = b * b / (4 * q), m.sqrt(m.pi) / (2 * sq) * _erf_diff(ctx, z1, z2)
        memo[key] = exponent, scalar(pref)
    return memo[key]


# |erf(z)| grows like |exp(-z^2)|.  Past exp(100) per factor the split form of
# _gaussian_1d_parts, a huge erf difference times a tiny exp(b^2/4q), can
# overflow double precision in a product of a few coordinates (a 22 dB
# dephasing row has factors near exp(600)), so _endpoint_parts takes over.
# Below it the split form stays: near z = 0 a difference of erf values keeps
# the relative precision that a difference of erfc values, each near 1, loses.
ERF_GROWTH_MAX = 100.0


def _endpoint_parts(q, b, sq, z1, z2, lo, hi):
    """The double-precision (exponent, prefactor) of _gaussian_1d_parts, built
    from the Faddeeva function w(z) = exp(-z^2) erfc(-iz) instead of erf.

    With z = sqrt(q) (x - b/2q) and E(x) = -q x^2 + b x,
    exp(b^2/4q) erfc(z) = exp(E(x)) w(iz), and |w(iz)| <= 1 where Re z >= 0, so
    every term is an endpoint value of the integrand (or, when the Gaussian
    centre lies between the endpoints, its peak exp(b^2/4q)) times a bounded
    factor.  The exponent is the largest real part among the terms.
    """
    wofz = scipy.special.wofz
    e_lo, e_hi = -q * lo * lo + b * lo, -q * hi * hi + b * hi
    if z1.real >= 0:  # erf(z2) - erf(z1) = erfc(z1) - erfc(z2)
        terms = [(e_lo, wofz(1j * z1)), (e_hi, -wofz(1j * z2))]
    elif z2.real <= 0:  # = erfc(-z2) - erfc(-z1)
        terms = [(e_hi, wofz(-1j * z2)), (e_lo, -wofz(-1j * z1))]
    else:  # = 2 - erfc(-z1) - erfc(z2)
        terms = [(b * b / (4 * q), 2.0), (e_lo, -wofz(-1j * z1)), (e_hi, -wofz(1j * z2))]
    top = max(e.real for e, _ in terms)
    pref = np.sqrt(np.pi) / (2 * sq) * sum(c * np.exp(e - top) for e, c in terms)
    return top, pref


def box_cell_integral(kernel: GaussianKernel, code: GkpCode, cell: BoxCell, s, t, ctx=None):
    """Exact integral of c_{s,t}(v, v) over a box cell, in double precision
    (ctx None) or in the mpmath context ctx.

    Requires the diagonal-restricted quadratic form to be axis-diagonal (true
    for every isotropic single-mode kernel family here).  Delta-constrained
    kernels follow their density conventions: DIAG_DELTA contributes only for
    lbar(s) = lbar(t), POINT only when the point falls in the cell.  Inside
    window_coefficients the restricted form, its two checks, the label
    pieces and the 1D factors come from the term's shared work; on its own
    the call does all of it for its two labels, so it stays the per-pair
    oracle.
    """
    exp, scalar = (cmath.exp, complex) if ctx is None else (ctx.exp, ctx.mpc)
    if kernel.kind == POINT:
        return scalar(_point_value(kernel, code, cell, s, t))
    work = _term_work(kernel, code, cell)
    form = work.form(s, t)
    if form is None:
        return scalar(0.0)
    bv, const = form
    exponent = scalar(const)
    pref = scalar(kernel.amp)
    for q, b, (lo, hi) in zip(work.box_diag, bv, cell.intervals):
        ex, pf = _gaussian_1d_parts(ctx, -q, b, lo, hi, work.factors)
        exponent = exponent + ex
        pref = pref * pf
    if ctx is None and exponent.real < -745.0:
        return 0.0 + 0.0j  # value underflows double precision
    return pref * exp(exponent)


def _cell_quadrature_points(cell: PrimitiveCell, order: int):
    """(points, weights) covering the cell exactly (box tensor or triangulated polygon)."""
    x, w = np.polynomial.legendre.leggauss(order)
    if isinstance(cell, BoxCell):
        axes = []
        for lo, hi in cell.intervals:
            axes.append(((hi - lo) / 2 * x + (hi + lo) / 2, (hi - lo) / 2 * w))
        grids = np.meshgrid(*[a for a, _ in axes], indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        wt = axes[0][1]
        for _, ww in axes[1:]:
            wt = np.outer(wt, ww).ravel()
        return pts, wt
    if isinstance(cell, VoronoiCell) and cell.dim == 2:
        # triangles (0, v_i, v_{i+1}) fanned from the lattice point, each the
        # image of the collapsed-square map p = x ((1 - y) v_i + y v_{i+1}),
        # whose Jacobian is x |v_i x v_{i+1}|
        v = cell.vertices_2d()
        vn = np.roll(v, -1, axis=0)
        xi, wi = (x + 1) / 2, w / 2
        xx, yy = xi[:, None, None], xi[None, :, None]
        pts = xx * ((1 - yy) * v[:, None, None, :] + yy * vn[:, None, None, :])
        cross = np.abs(v[:, 0] * vn[:, 1] - v[:, 1] * vn[:, 0])
        wts = cross[:, None, None] * (xi * wi)[:, None] * wi
        return pts.reshape(-1, 2), wts.ravel()
    raise ValueError(f"no quadrature rule for cell type {type(cell).__name__} in dim {cell.dim}")


def _quadrature(amp, form, rule) -> complex:
    """amp * exp(v^T Q v + b^T v + const) integrated by rule = (points, weights, p^T Q p)."""
    bv, const = form
    pts, wts, quad = rule
    return complex(amp * np.exp(quad + pts @ bv + const) @ wts)


def numeric_cell_integral(kernel: GaussianKernel, code: GkpCode, cell: PrimitiveCell, s, t,
                          order: int = 40):
    """Quadrature of c_{s,t}(v, v) over a bounded cell; returns (value, error_estimate).

    The estimate compares two quadrature orders; if it exceeds 1e-9 times
    max(1, |value|) a warning is issued (never silently swallowed).  POINT
    kernels integrate exactly by cell membership.  Inside window_coefficients
    the restricted form, the label pieces and both rules, with p^T Q_v p on
    their points, come from the term's shared work; on its own the call
    builds them, so it stays the per-pair oracle.
    """
    if kernel.kind == POINT:
        return complex(_point_value(kernel, code, cell, s, t)), 0.0
    work = _term_work(kernel, code, cell)
    form = work.form(s, t)
    if form is None:
        return 0j, 0.0
    v1 = _quadrature(kernel.amp, form, work.rule(order))
    v2 = _quadrature(kernel.amp, form, work.rule(order + order // 2))
    err = abs(v1 - v2)
    if err > 1e-9 * max(1.0, abs(v2)):
        warnings.warn(f"cell quadrature not converged: estimate {err:.2e} at order {order}")
    return v2, err


# ---------------------------------------------------------------------------
# logical superoperator


def _phase(m: int, d: int) -> complex:
    """e^{i pi m / d}, exact whenever it is a power of i."""
    q, r = divmod(2 * m, d)
    return 1j ** (q % 4) if r == 0 else np.exp(1j * np.pi * m / d)


def pauli_matrix(dims, s) -> np.ndarray:
    """P_d(s) = prod_j e^{i pi s_j s_{j+n} / d_j} X^{s_j} Z^{s_{j+n}} (integer s, any sign).

    Entries that are powers of i (every qubit Pauli) are exact.
    """
    s = [int(x) for x in s]
    n = len(dims)
    out = np.ones((1, 1), dtype=complex)
    for j, d in enumerate(dims):
        x, z = s[j], s[j + n]
        mat = np.zeros((d, d), dtype=complex)
        for col in range(d):
            # X^x Z^z |col> = e^{2 pi i z col / d} |col + x>
            mat[(col + x) % d, col] = _phase(x * z + 2 * z * col, d)
        out = np.kron(out, mat)
    return out


def _pauli_basis(dims) -> np.ndarray:
    """P(a) for every representative a in Z_{d_1} x ... x Z_{d_n} (x part, then
    z part), stacked along axis 0 in chi index order; the identity comes first."""
    ranges = [range(d) for d in dims] * 2
    return np.stack([pauli_matrix(dims, a) for a in itertools.product(*ranges)])


def _pauli_components(dims, ops) -> np.ndarray:
    """g[..., a] = tr(P(a)^dag op) / d, so that op = sum_a g[a] P(a); ops has shape (..., d, d)."""
    basis = _pauli_basis(dims)
    m, d, _ = basis.shape
    return ops.reshape(ops.shape[:-2] + (d * d,)) @ basis.conj().reshape(m, d * d).T / d


def _fold(dims, s):
    """(chi index of the representative a = s mod d, sign) with P(s) = sign * P(a).

    Per mode, s = a + d k gives P(s) = (-1)^{a_1 k_2 + a_2 k_1 + d k_1 k_2} P(a).
    """
    n = len(dims)
    mods = tuple(dims) * 2
    a = [int(x) % d for x, d in zip(s, mods)]
    k = [(int(x) - r) // d for x, r, d in zip(s, a, mods)]
    odd = sum(a[j] * k[j + n] + a[j + n] * k[j] + dims[j] * k[j] * k[j + n] for j in range(n)) % 2
    return int(np.ravel_multi_index(a, mods)), 1 - 2 * odd


@dataclass
class LogicalSuperop:
    """Qudit channel N(rho) = sum_{a,b} chi[a, b] P(a) rho P(b)^dag (the chi matrix
    of Nielsen & Chuang, section 8.4.2, in the Pauli basis of pauli_matrix).

    a and b run over the representatives of Z_{d_1} x ... x Z_{d_n} for the x
    exponents, then the z exponents, in itertools.product order, so chi[0, 0]
    belongs to the identity.  chi is a complex ndarray on the float path and
    an object ndarray of mpmath numbers on the mpmath path; every method and
    metric works on either.  Raw window coefficients c_{s,t} come from
    window_coefficients and fold in through from_pauli_pairs.  The realized
    matrix acts on column-major vec(rho).
    """

    dims: tuple
    chi: np.ndarray
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_pauli_pairs(cls, dims, coeffs: dict) -> "LogicalSuperop":
        """Fold {(s, t): c_{s,t}} over integer Pauli labels into chi; an mpmath
        coefficient makes chi an object array at that coefficient's precision."""
        dims = tuple(dims)
        m = int(np.prod(dims)) ** 2
        values = list(coeffs.values())
        dtype = object if np.asarray(values).dtype == object else complex
        if dtype is object and max(dims) > 2:
            raise ValueError("mpmath channels need qubit modes, whose Pauli phases are exact")
        chi = np.full((m, m), 0 * values[0], dtype=dtype)
        folds = {s: _fold(dims, s) for s in set(itertools.chain(*coeffs))}
        for (s, t), c in sorted(coeffs.items()):
            i, sign_s = folds[s]
            j, sign_t = folds[t]
            chi[i, j] += sign_s * sign_t * c
        return cls(dims, chi)

    @property
    def d_total(self) -> int:
        return int(np.prod(self.dims))

    def matrix(self) -> np.ndarray:
        """sum_{a,b} chi[a, b] conj(P(b)) (x) P(a)."""
        d = self.d_total
        basis = _pauli_basis(self.dims).reshape(-1, d * d)
        t = (basis.T @ self.chi @ basis.conj()).reshape(d, d, d, d)  # [i2, j2, i1, j1]
        return t.transpose(2, 0, 3, 1).reshape(d * d, d * d)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        d = self.d_total
        return (self.matrix() @ np.asarray(rho).reshape(-1, order="F")).reshape(d, d, order="F")

    def hermitivity_defect(self):
        """max |chi - chi^dag|; zero when the channel maps Hermitian operators to Hermitian ones."""
        return np.max(np.abs(self.chi - self.chi.conj().T))

    def conjugate_input(self, op: np.ndarray) -> "LogicalSuperop":
        """The composition rho -> self(op rho op^dag).

        With P(a) op = sum_c A[a, c] P(c), the composed chi is A^T chi conj(A).
        """
        a = _pauli_components(self.dims, _pauli_basis(self.dims) @ np.asarray(op))
        return LogicalSuperop(self.dims, a.T @ self.chi @ a.conj(), dict(self.meta))


# ---------------------------------------------------------------------------
# channel construction


DECAY_THRESHOLD = 1e-30


def _decay_precheck(cf: ChannelCharFn, code: GkpCode, s_max: int):
    """Reject channels whose kernel does not decay along the dual lattice.

    Probes |c| on a far shell (relative to |c(0,0)|) along each generator
    direction and on the diagonal (u = v), which is where loss acting on an
    ideal codestate stays at constant modulus.  The shell lies at s = 16, or
    at 4 (s_max + 1) when that is farther; a relative modulus above
    DECAY_THRESHOLD there raises.
    """
    r = max(16, 4 * (s_max + 1))
    two_n = 2 * code.n_modes
    zero = np.zeros(two_n)

    def probe(u, v, diagonal):
        # POINT kernels sit at the origin; DIAG_DELTA kernels live on u = v only
        return sum(abs(w * k.evaluate(u, v)) for w, k in cf.terms
                   if k.kind != POINT and (diagonal or k.kind != DIAG_DELTA))

    ref = max(probe(zero, zero, True), probe(zero, zero, False), 1e-300)
    worst = 0.0
    worst_shell = None
    for j in range(two_n):
        for sign in (+1, -1):
            s = np.zeros(two_n, dtype=np.int64)
            s[j] = sign * r
            ls = code.dual_vector(s)
            for val, tag in ((probe(ls, zero, False), "off-diagonal"),
                             (probe(ls, ls, True), "diagonal")):
                rel = val / ref
                if rel > worst:
                    worst, worst_shell = rel, (tuple(s.tolist()), tag)
    if worst > DECAY_THRESHOLD:
        raise DecayViolationError(
            f"characteristic function does not decay: relative modulus {worst:.3e} on the "
            f"{worst_shell[1]} shell s = {worst_shell[0]} exceeds {DECAY_THRESHOLD:.1e}"
        )


def window_coefficients(code: GkpCode, cell: PrimitiveCell, cf: ChannelCharFn,
                        trunc: TruncationSpec = TruncationSpec(1), dps: int | None = None,
                        quad_order: int = 40) -> tuple:
    """Raw Pauli-pair coefficients {(s, t): c_{s,t}} over the truncation window,
    cell integrals of c_{s,t}(v, v) summed over the kernel terms, and a dict
    of how far to trust them: "underflowed", the number of (pair, term)
    integrals that underflowed, and "quad_err", the summed quadrature error
    estimates of the pairs that fold onto the non-identity diagonal of chi
    (0 on box cells), which bounds the error of sum_{a != I} chi_aa.

    Box cells integrate in closed form, in double precision when dps is None
    and otherwise in a private mpmath context at dps digits (the global
    mp.mp is never touched); other cells by quadrature, in double precision
    only.  An integral underflowed when it is exactly 0 although its
    integrand is not: a FULL kernel (a box integral below the -745 exponent
    cutoff, or a quadrature whose every point underflowed), or a DIAG_DELTA
    kernel on s = t.

    Every (pair, term) makes one box_cell_integral or numeric_cell_integral
    call, which gives the same bits as a call on its own.  What does not
    depend on the pair (the restricted form and its box checks, the
    quadrature rules with p^T Q_v p, the per-label pieces of b_v and const,
    primed for the whole window in one batch, and the 1D factors) is
    computed once per kernel term, held in _TERM_WORK for that term only,
    and dropped when the call returns or raises.
    """
    window = trunc.window(2 * code.n_modes)
    use_box = isinstance(cell, BoxCell)
    ctx = None
    if dps is not None:
        if not use_box:
            raise ValueError("mpmath precision integrates box cells only")
        ctx = mp.MPContext()
        ctx.dps = dps
    scalar = complex if ctx is None else ctx.mpc
    coeffs = {(s, t): scalar(0.0) for s in window for t in window}
    fold = {s: _fold(code.dims, s)[0] for s in window}
    underflowed = 0
    quad_err = 0.0
    token = _TERM_WORK.set(None)
    try:
        for w, kern in cf.terms:
            # one term's shared work at a time keeps it small for the 64-term
            # dephasing kernel; each pair still sums its terms in order
            work = _TermWork(kern, code, cell)
            if kern.kind != POINT:
                work.prime(window)
            _TERM_WORK.set(work)
            for s, t in coeffs:
                if use_box:
                    val = box_cell_integral(kern, code, cell, s, t, ctx)
                else:
                    val, err = numeric_cell_integral(kern, code, cell, s, t, order=quad_order)
                    if fold[s] == fold[t] != 0:
                        quad_err += abs(w) * err
                if val == 0 and (kern.kind == FULL or (kern.kind == DIAG_DELTA and s == t)):
                    underflowed += 1
                coeffs[(s, t)] = coeffs[(s, t)] + scalar(w) * val
    finally:
        _TERM_WORK.reset(token)
    return coeffs, {"underflowed": underflowed, "quad_err": quad_err}


def logical_channel(code: GkpCode, cell: PrimitiveCell, cf: ChannelCharFn,
                    trunc: TruncationSpec = TruncationSpec(1), dps: int | None = None,
                    quad_order: int = 40) -> LogicalSuperop:
    """Logical noise channel of cf on the code/cell decoder: decay precheck,
    window coefficients (in double precision, or at dps digits), then the
    fold into chi (fixed, sorted summation order for reproducibility).
    meta records s_max, dps, and the "underflowed" and "quad_err" of
    window_coefficients."""
    _decay_precheck(cf, code, trunc.s_max)
    coeffs, trust = window_coefficients(code, cell, cf, trunc, dps, quad_order)
    ch = LogicalSuperop.from_pauli_pairs(code.dims, coeffs)
    ch.meta = {"s_max": trunc.s_max, "dps": dps, **trust}
    return ch


# ---------------------------------------------------------------------------
# high-precision channel analysis (deep-squeezing regime)


# Kept as the digit rule of the independent references in bench/make_references.py and tests.
def suggest_dps(delta: float) -> int:
    """Working precision that resolves the envelope-channel infidelity at Delta.

    The smallest structural scale is exp(-pi/(4 Delta^2)), i.e. about
    0.341/Delta^2 decimal digits below unity; 60 more digits are kept as margin.
    """
    return int(0.35 / delta ** 2) + 60


# Kept on 1 - F at its given dps, so it stays independent of the sweep's diagonal-sum infidelity.
def highprec_channel_analysis(cf: ChannelCharFn, code: GkpCode, cell: BoxCell,
                              trunc: TruncationSpec = TruncationSpec(1),
                              dps: int = 50) -> dict:
    """Orthonormalized logical-channel metrics computed in arbitrary precision.

    The float pipeline (logical_channel, Loewdin orthonormalization, fidelity
    and CPTP metrics) at dps digits in a private mpmath context.  Returns
    {"infidelity", "tp_defect", "min_choi_eig"} as mpmath numbers, the
    infidelity as 1 - F at dps digits.  Single-mode qubit codes on box cells
    only; kernels are composed in double precision (their parameters are
    O(1/Delta^2) and well conditioned), every erf difference and everything
    after it at dps digits.
    """
    from .metrics import average_gate_fidelity, cptp_diagnostics, lowdin_orthonormalize

    if code.dims != (2,) or not isinstance(cell, BoxCell):
        raise ValueError("high-precision analysis supports single-mode qubit codes on box cells")
    _, och = lowdin_orthonormalize(logical_channel(code, cell, cf, trunc, dps=dps))
    tp_defect, min_eig = cptp_diagnostics(och)
    return {
        "infidelity": 1 - average_gate_fidelity(och, warn=False),
        "tp_defect": tp_defect,
        "min_choi_eig": min_eig,
    }
