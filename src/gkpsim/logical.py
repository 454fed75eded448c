"""Logical noise channels: cell integrals of channel kernels and the resulting
qudit channel N(rho) = sum_{a,b} chi[a, b] P(a) rho P(b)^dag.

window_coefficients integrates the raw coefficients c_{s,t} of
N(rho) = sum_{s,t} c_{s,t} P(s) rho P(t)^dag over a truncated dual-lattice
window.  Both cell types come down to one 1D Gaussian factor, the integral
of exp(-q y^2 + b y) over an interval in closed form (_gaussian_1d): a box
cell's integral is a product of one factor per coordinate, and a 2D Voronoi
cell's a slab rule, Gauss-Legendre in x with one factor in y at each x node
of the polygon's vertical slabs.
Only b_v and const of the restricted exponent change from one (s, t) pair
to the next, and both are affine in each label, so window_coefficients
computes the rest of each kernel term once (_TermWork), and the restricted
forms and box checks of the terms of one kind as stacks (_restricted).
One formula, _pair_forms, sums a pair's (const, b_v) from per-label pieces
for every cell type and precision, and one dedup, _distinct, finds the
distinct arguments of 1D factors by their bits.  On a box cell the square
code's symmetries make many (term, pair) values equal or conjugate: sign
flips of the dual coordinates, with the term map that goes with each
(p -> -p takes the dephasing node phi onto -phi), and the Hermitian swap
c_{t,s} = conj(c_{s,t}).  Where such a map has the bits of a direct
computation (_maps), one representative per orbit is computed (_orbits),
in blocks of terms with one _gaussian_1d call on each distinct (term,
coordinate, b_k) and one exp, and every other value is read as its image
(_BoxTables).  A slab rule's y factors depend on a pair only through
b_1, so each distinct b_1 of the window gets one row of factors over the
nodes, and the integrands of every pair (s, t) with one label s are built
as one batch.  Each (pair, term) still makes one box_cell_integral or
numeric_cell_integral call (a bare table read inside a float box window);
on its own such a call computes its term over its own pair, with no map,
and has the same bits.  P(s + d k) is a sign times P(s), so the window's
array of coefficients folds exactly into the d^{2n} x d^{2n} matrix chi (_chi).

Channels are built in double precision.  An integral whose Gaussian
integrand is nonzero but comes out exactly 0 has underflowed, and
logical_channel counts these in meta["underflowed"]; on quadrature cells
it records an error estimate of the non-identity diagonal in
meta["quad_err"] and the slab rule's order in meta["quad_order"].  Passing
a digit count dps is the fallback for an underflowed channel: the box
integrals then run in a private mpmath context at that precision, whose
exponent is unbounded, so a fixed ~30 digits serve however deep the
squeezing; chi is then an object array of mpmath numbers and the same
metrics apply.
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
# the 1D Gaussian factor


# |erf(z)| grows like |exp(-z^2)|; past exp(100) per factor the closed form
# can overflow a product of a few coordinates (a 22 dB dephasing row: exp(600))
ERF_GROWTH_MAX = 100.0


def _gaussian_1d(q, b, lo, hi):
    """(exponent, prefactor) arrays with int_lo^hi exp(-q y^2 + b y) dy =
    prefactor * exp(exponent) elementwise, for complex q with Re q > 0 and
    arrays b and lo <= hi that broadcast together, by elementwise operations
    only, so an element's bits do not depend on the batch.  q is a number,
    or an array like b (its numpy square root may differ from cmath's).

    With z = sqrt(q) (y - b/2q) the exponent is b^2/4q and the prefactor
    sqrt(pi) / (2 sqrt q) (erf(z_2) - erf(z_1)), a difference of erfc values
    where both real parts pass 1/2 with one sign (a difference of erf values
    near 1 loses relative precision).  Past ERF_GROWTH_MAX it uses
    exp(b^2/4q) erfc(z) = exp(-q y^2 + b y) w(iz) with the Faddeeva function
    w, |w(iz)| <= 1 for Re z >= 0: each term is the integrand at an endpoint
    (or at its peak between them) times a bounded factor, and the exponent
    is the largest real part among the terms.
    """
    sq = cmath.sqrt(q) if np.ndim(q) == 0 else np.sqrt(q)
    center = b / (2 * q)
    z1, z2 = sq * (lo - center), sq * (hi - center)
    exponent = b * b / (4 * q)
    big = np.maximum((-z1 * z1).real, (-z2 * z2).real) > ERF_GROWTH_MAX
    same = ~big & (((z1.real > 0.5) & (z2.real > 0.5)) | ((z1.real < -0.5) & (z2.real < -0.5)))
    mixed = ~(big | same)
    diff = np.empty(z1.shape, complex)
    sign = np.sign(z1.real[same])
    diff[same] = sign * (scipy.special.erfc(sign * z1[same]) - scipy.special.erfc(sign * z2[same]))
    diff[mixed] = scipy.special.erf(z2[mixed]) - scipy.special.erf(z1[mixed])
    if big.any():
        q, b, lo, hi = (np.broadcast_to(v, big.shape)[big] for v in (q, b, lo, hi))
        z1, z2, peak = z1[big], z2[big], exponent[big]
        e_lo, e_hi = -q * lo * lo + b * lo, -q * hi * hi + b * hi
        # w(s i z) with the sign s that makes Re(s z) >= 0; a centre between
        # the endpoints (s_1 < s_2) adds the peak term 2 exp(b^2/4q)
        s1 = np.where(z1.real >= 0, 1.0, -1.0)
        s2 = np.where((z2.real <= 0) & (s1 < 0), -1.0, 1.0)
        mid = s1 < s2
        top = np.maximum(e_lo.real, e_hi.real)
        top[mid] = np.maximum(top[mid], peak[mid].real)
        d = (s1 * scipy.special.wofz(1j * s1 * z1) * np.exp(e_lo - top)
             - s2 * scipy.special.wofz(1j * s2 * z2) * np.exp(e_hi - top))
        d[mid] += 2 * np.exp(peak[mid] - top[mid])
        diff[big], exponent[big] = d, top
    return exponent, np.sqrt(np.pi) / (2 * sq) * diff


def _gaussian_1d_mp(ctx, q, b, lo, hi):
    """One element of _gaussian_1d in the mpmath context ctx, with its erfc
    switch; mpmath's exponent is unbounded, so it needs no endpoint form."""
    q, b = ctx.mpc(q), ctx.mpc(b)
    sq = ctx.sqrt(q)
    z1, z2 = sq * (lo - b / (2 * q)), sq * (hi - b / (2 * q))
    sign = 1 if z1.real > 0.5 and z2.real > 0.5 else -1 if z1.real < -0.5 and z2.real < -0.5 else 0
    diff = sign * (ctx.erfc(sign * z1) - ctx.erfc(sign * z2)) if sign else ctx.erf(z2) - ctx.erf(z1)
    return b * b / (4 * q), ctx.sqrt(ctx.pi) / (2 * sq) * diff


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
    """m @ l for every row l of lab and every m of a stack, added one column
    at a time: elementwise operations only, so no bit depends on a batch."""
    out = m[..., None, :, 0] * lab[:, :1]
    for j in range(1, lab.shape[1]):
        out = out + m[..., None, :, j] * lab[:, j:j + 1]
    return out


def _complex(re, im):
    """The complex array re + i im, built without complex arithmetic."""
    out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), complex)
    out.real, out.imag = re, im
    return out


def _rowdot(x, lab):
    """x_k . l_k for every row pair (of each x of a stack), added one column at a time."""
    out = x[..., 0] * lab[:, 0]
    for j in range(1, lab.shape[1]):
        out = out + x[..., j] * lab[:, j]
    return out


def _label_vectors(code: GkpCode, labels):
    """lbar(s) = code.dual_vector(s) of every label s, as rows, with the basis built once."""
    basis = code.dual_basis()
    return np.array([basis @ np.asarray(s, dtype=float) for s in labels])


def _restricted(kernels):
    """(Q, L, Q_v, 2 J^T Q, J^T L, omega(n)) stacked over kernel terms of one
    kind, with J = (1, 1)^T restricting to u = v (the identity for
    DIAG_DELTA, omega None): block sums, Q_v = (Q_uu + Q_vu) + (Q_uv + Q_vv),
    with the bits of J^T Q J, (2 J^T) Q and J^T L up to the sign of a zero."""
    kind = kernels[0].kind
    if kind not in (FULL, DIAG_DELTA):
        raise ValueError(f"cannot cell-integrate a kernel of kind {kind}")
    q, lin = np.array([k.q_matrix for k in kernels]), np.array([k.linear for k in kernels])
    if kind == DIAG_DELTA:
        return q, lin, q, 2 * q, lin, None
    h = q.shape[1] // 2
    left, right = q[:, :h, :h] + q[:, h:, :h], q[:, :h, h:] + q[:, h:, h:]
    return q, lin, left + right, 2 * np.concatenate([left, right], axis=2), lin[:, :h] + lin[:, h:], omega(h // 2)


def _box_diag(qv):
    """The diagonals of a stack of Q_v, each of which must be all of its Q_v
    and decay on every axis."""
    diag, off = np.diagonal(qv, axis1=1, axis2=2), ~np.eye(qv.shape[1], dtype=bool)
    if np.any(np.abs(qv[:, off]).max(axis=1, initial=0.0) > 1e-10 * np.maximum(1.0, np.abs(qv).max(axis=(1, 2)))):
        raise ValueError("diagonal-restricted form is not axis-aligned; use numeric_cell_integral")
    if np.any(diag.real >= 0):
        raise ValueError("diagonal-restricted form is not decaying; cell integral diverges")
    return diag


def _label_pieces(forms, lab):
    """The per-label pieces of _TermWork's sums, of each row lbar of lab for
    the terms of a _restricted stack, as arrays with a term axis: (a, b,
    Om lbar, alpha, beta, u, lbar) for FULL, Om lbar and lbar with a term
    axis of 1, or (b_v, const)."""
    q, lin, _, two_jq, _, om = forms
    lin = lin[:, None]
    if om is None:
        return _each(two_jq, lab) + lin, _rowdot(_each(q, lab) + lin, lab)
    h = lab.shape[1]
    return (_each(two_jq[..., :h], lab), _each(two_jq[..., h:], lab), _each(om, lab)[None],
            _rowdot(_each(q[:, :h, :h], lab) + lin[..., :h], lab),
            _rowdot(_each(q[:, h:, h:], lab) + lin[..., h:], lab),
            _each((q[:, :h, h:] + q[:, h:, :h].swapaxes(1, 2)).swapaxes(1, 2), lab), lab[None])


def _pair_forms(forms, lab, k, i, j):
    """(const, b_v) of the elements (term k, s_i, t_j) of a _restricted
    stack (i = j for DIAG_DELTA), lbar the rows of lab: _TermWork's sums of
    the label pieces, elementwise, b_v with its coordinate axis first and
    u(s) . lbar(t) as CPython multiplies a complex and a float.  The one
    place that sums them, for box tables, mpmath box values and slab rows."""
    pieces = _label_pieces(forms, lab)
    if forms[5] is None:
        return pieces[1][k, i], np.moveaxis(pieces[0][k, i], -1, 0)
    a, b, om, alpha, beta, u, lt = pieces
    const = alpha[k, i] + beta[k, j]
    for c in range(lab.shape[1]):
        x, y = u[k, i, c], lt[0, j, c]
        const = const + _complex(x.real * y - x.imag * 0.0, x.real * 0.0 + x.imag * y)
    return const, np.array([a[k, i, c] + b[k, j, c] + forms[4][k, c] + _IPI * (om[0, i, c] - om[0, j, c])
                            for c in range(lab.shape[1])])


class _TermWork:
    """What the cell integrals of one kernel term on one code and cell share
    over every (s, t) pair: its restricted form and box diagonal, the window's
    box table and its bare read (_reader), from the window's _BoxTables when
    the first pair reads it, each slab rule with the pair-independent
    parts of its exponent, and one set of pairs with their (const, b_v) from
    _pair_forms: every pair of the window's labels (s = t only for
    DIAG_DELTA) when the window holds both labels of the pair asked for,
    and that pair alone otherwise.  Per slab rule the set keeps one row of
    y factors over the nodes per distinct b_1, and the integrands of the
    latest row of pairs with one label s.

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
        self.window, self.lab, self.tables = {}, None, None  # label -> position, lbar as rows, (_BoxTables, term)
        self.box = self.read = None  # the window's float box table as a list, and its bare read once all finite
        self.images = 0  # elements of the box table read as images of others
        self.pairs = None  # (lone pair or None for the window's, const, b_v, order -> y factors)
        self.memo = {}  # (ctx, q, b, lo, hi) -> an mpmath 1D factor
        self.rules = {}  # order -> the slab rules of orders n and n + n // 2
        self.row = None  # ((order, first position), the integrands of a row of pairs)

    @functools.cached_property
    def forms(self):
        """_restricted of this term alone."""
        return _restricted([self.kernel])

    def pair(self, s, t):
        """The position of (s, t) in the arrays of this term's set of pairs,
        or None where c_{s,t} vanishes: i N + j for labels at positions i and
        j of the window's N (i for DIAG_DELTA), or 0 for a lone pair."""
        full = self.forms[5] is not None
        if not (full or s == t):
            return None
        window = s in self.window and t in self.window
        if self.pairs is None or self.pairs[0] != (None if window else (s, t)):
            if window:
                n = len(self.window)
                lab, (i, j) = self.lab, np.divmod(np.arange(n * n), n) if full else (np.arange(n),) * 2
            else:
                lab, (i, j) = _label_vectors(self.code, (s, t)), np.array([[0], [1]])
            self.pairs = None if window else (s, t), *_pair_forms(self.forms, lab, np.zeros_like(i), i, j), {}
            self.row = None
        if not window:
            return 0
        return self.window[s] * len(self.window) + self.window[t] if full else self.window[s]

    def box_value(self, s, t, ctx):
        """The integral of c_{s,t}(v, v) over the box, or None where it vanishes:
        in double precision (ctx None) an element of the term's table from the
        window's _BoxTables when the window holds both labels (setting read once
        the table is all finite), else that element alone over its two labels,
        raising OverflowError where it is not finite; in the mpmath context ctx
        from its const and b_v (pair) and one 1D factor per coordinate, each
        distinct one computed once."""
        s, t = tuple(s), tuple(t)
        if ctx is not None:
            at = self.pair(s, t)
            if at is None:
                return None
            _, const, bv, _ = self.pairs
            exponent, pref = ctx.mpc(const.item(at)), ctx.mpc(self.kernel.amp)
            for q, x, (lo, hi) in zip(self.box_diag, bv, self.cell.intervals):
                key = ctx, -q, x.item(at), lo, hi
                if key not in self.memo:
                    self.memo[key] = _gaussian_1d_mp(*key)
                exponent, pref = exponent + self.memo[key][0], pref * self.memo[key][1]
            return pref * ctx.exp(exponent)
        full = self.kernel.kind == FULL
        if not (full or s == t):
            return None
        if self.tables is None or s not in self.window or t not in self.window:
            k = np.zeros(1, np.intp)
            value = _box_values(-np.array([self.box_diag]), np.array([complex(self.kernel.amp)]), self.cell.intervals,
                                k, *_pair_forms(self.forms, _label_vectors(self.code, (s, t)), k, [0], [1])).item()
        else:
            if self.box is None:
                self.box, finite, self.images = self.tables[0].table(self.tables[1])
                self.read = _reader(self.window, self.box, full) if finite else None
            i = self.window[s]
            value = self.box[i * len(self.window) + self.window[t] if full else i]
        if not cmath.isfinite(value):
            raise OverflowError(f"box integral of pair {s}, {t} overflows double precision")
        return value

    @functools.cached_property
    def box_diag(self):
        """The diagonal of Q_v, which must be all of it and decay on every axis."""
        return _box_diag(self.forms[2])[0].tolist()

    def rule(self, order: int):
        """The slab rules of orders n = order and n + n // 2 on one set of x
        nodes: (x, y_lo, y_hi, weights, Q_00 x^2, (Q_01 + Q_10) x, q) with
        q = -Q_11, where row 0 of the 2-row weight matrix holds the
        order-n rule and row 1 the other."""
        if order not in self.rules:
            qv = self.forms[2][0]
            q = complex(-qv[1, 1])
            if q.real <= 0:
                raise ValueError("restricted form is not decaying along y; slab rule needs Re q > 0")
            rules = [_cell_quadrature_points(self.cell, n) for n in (order, order + order // 2)]
            x, y_lo, y_hi = (np.concatenate([r[i] for r in rules]) for i in range(3))
            wts = np.zeros((2, x.size))
            split = rules[0][0].size
            wts[0, :split], wts[1, split:] = rules[0][3], rules[1][3]
            self.rules[order] = x, y_lo, y_hi, wts, qv[0, 0] * x * x, (qv[0, 1] + qv[1, 0]) * x, q
        return self.rules[order]

    def slab_row(self, s, t, order: int):
        """exp(v^T Q_v v + b_v^T v + const) of c_{s,t}(v, v) integrated over y
        at the x nodes of rule(order), or None where it vanishes.

        The integrands of the row of pairs (s, t') of the set of pairs
        (every window label t' for FULL, else just (s, t)) are built as one
        batch and held until another row or order is asked for: at each x
        node, the 1D factor in y of q = -Q_11 and beta(x) = (Q_01 + Q_10) x +
        b_1 from y_lo to y_hi, whose exponent joins Q_00 x^2 + b_0 x + const
        before the one exp.  A factor depends on the pair only through b_1,
        so each distinct b_1 of the set (by its exact bits) is computed once
        per order, in blocks of 16."""
        s, t = tuple(s), tuple(t)
        at = self.pair(s, t)
        if at is None:
            return None
        width = len(self.window) if self.pairs[0] is None and self.forms[5] is not None else 1
        first = at - at % width
        if self.row is None or self.row[0] != (order, first):
            x, y_lo, y_hi, _, xx, xy, q = self.rule(order)
            _, const, bv, factors = self.pairs
            if order not in factors:
                distinct, inverse = _distinct(bv[1][None])
                ex, pf = np.empty((2, distinct.size, x.size), complex)
                for k in range(0, distinct.size, 16):
                    b1 = bv[1, distinct[k:k + 16], None]
                    ex[k:k + 16], pf[k:k + 16] = _gaussian_1d(q, xy + b1, y_lo, y_hi)
                factors[order] = ex, pf, inverse
            ex, pf, inverse = factors[order]
            row, y = slice(first, first + width), inverse[first:first + width]
            self.row = (order, first), pf[y] * np.exp(xx + bv[0, row, None] * x + const[row, None] + ex[y])
        return self.row[1][at - first]


# A window's box values are computed in blocks of consecutive kernel terms,
# up to BOX_BLOCK orbit representatives (or one term)
BOX_BLOCK = 2048


def _distinct(x):
    """(first, inverse) of the 2D array x by row and the exact bits of each
    value (so 0.0 and -0.0 stay apart; a structured value by all of its
    fields): x.flat[first] holds each distinct (row, value) once, and
    x.flat[first][inverse] is x.flat."""
    rows, size = x.shape
    bits = np.ascontiguousarray(x).view(np.uint64).reshape(rows, size, -1)
    order = (np.lexsort(np.moveaxis(bits[..., ::-1], 2, 0), axis=1) + np.arange(0, x.size, size)[:, None]).ravel()
    ranked = bits.reshape(x.size, -1)[order]
    new = np.concatenate([[True], (ranked[1:] != ranked[:-1]).any(axis=1)])
    new[::size] = True  # each row starts afresh
    inverse = np.empty(x.size, np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _box_values(q, amp, intervals, k, const, bv):
    """The double-precision box integrals of a block of elements (term k,
    const, b_v by coordinate rows; q and amp per term): one _gaussian_1d
    call on each distinct (coordinate, term, b_c) by its bits, one exp, 0
    past the -745 exponent cutoff and +0.0 for a zero part, in CPython's
    complex arithmetic spelt in real operations, so no bit depends on the block."""
    key = np.empty(bv.shape, [("term", np.intp), ("b", complex)])
    key["term"], key["b"] = k, bv
    first, inverse = _distinct(key)
    c, at = np.divmod(first, bv.shape[1])
    lo, hi = np.array(intervals).T
    ex, pf = (f[inverse].reshape(bv.shape) for f in _gaussian_1d(q[k[at], c], bv[c, at], lo[c], hi[c]))
    exponent, re, im = const, amp[k].real, amp[k].imag
    with np.errstate(over="ignore", invalid="ignore"):  # a value that is not finite raises when read
        for e_c, p_c in zip(ex, pf):
            exponent = exponent + e_c
            re, im = re * p_c.real - im * p_c.imag, re * p_c.imag + im * p_c.real
        e = np.exp(exponent)
        value = _complex(re * e.real - im * e.imag + 0.0, re * e.imag + im * e.real + 0.0)
    value[exponent.real < -745.0] = 0  # underflows double precision
    return value


@functools.lru_cache(maxsize=16)
def _maps(basis: tuple, intervals: tuple, data: bytes):
    """(flips, taus, swaps): the maps of FULL box elements (term k, s, t)
    whose images have the bits of a direct computation, for the dual basis
    B (rows), the box's intervals and the terms' (Q, L, amp) as rows of
    complex data (zeros as +0.0).  A flip f of the dual coordinates,
    D = diag(f), that commutes with B (lbar(f s) = D lbar(s)), flips
    intervals [-h, h] only and is symplectic (f_j f_{j+n} = 1 on every mode)
    or antisymplectic (-1; it conjugates) takes term k at (s, t) to term
    tau(k) at (f s, f t): the first term with the bits of
    ((D+D) Q (D+D), (D+D) L, amp), conjugated if antisymplectic, or -1.  The
    identity comes first.  The swap c_{t,s} = conj(c_{s,t}) holds where
    Q_uv = Q_vu = 0, Q_vv = conj(Q_uu), L_v = conj(L_u) and amp is real."""
    basis, (lo, hi) = np.array(basis), np.array(intervals).T
    h = len(basis)
    data = np.frombuffer(data, complex).reshape(-1, 4 * h * h + 2 * h + 1)
    q, lin, amp = data[:, :4 * h * h].reshape(-1, 2 * h, 2 * h), data[:, 4 * h * h:-1], data[:, -1]
    flips = np.array(list(itertools.product((1.0, -1.0), repeat=h)))  # the identity first
    mode = flips[:, :h // 2] * flips[:, h // 2:]
    flips = flips[(mode.min(axis=1) == mode.max(axis=1)) & np.all((flips > 0) | (lo == -hi), axis=1)
                  & ~np.any((flips[:, :, None] != flips[:, None]) & (basis != 0), axis=(1, 2))]

    def keys(x):
        return (x + 0j).view(f"V{16 * x.shape[-1]}").ravel().tolist()

    where = {key: k for k, key in reversed(list(enumerate(keys(data))))}
    d, anti = np.concatenate([flips, flips], axis=1), flips[:, 0] * flips[:, h // 2] < 0
    image = data * np.concatenate([(d[:, :, None] * d[:, None]).reshape(len(d), -1), d, d[:, :1] ** 2], axis=1)[:, None]
    image = keys(np.where(anti[:, None, None], image.conj(), image))
    taus = tuple(tuple(where.get(key, -1) for key in image[i:i + len(q)]) for i in range(0, len(image), len(q)))
    flips = tuple((tuple(f.astype(int).tolist()), bool(a)) for f, a in zip(flips, anti))
    swaps = ((q[:, :h, h:] == 0).all(axis=(1, 2)) & (q[:, h:, :h] == 0).all(axis=(1, 2))
             & (q[:, h:, h:] == q[:, :h, :h].conj()).all(axis=(1, 2))
             & (lin[:, h:] == lin[:, :h].conj()).all(axis=1) & (amp.imag == 0))
    return flips, taus, tuple(swaps.tolist())


@functools.lru_cache(maxsize=16)
def _orbits(s_max: int, two_n: int, flips, taus, swaps):
    """(reps, terms) of the FULL box elements (term k, s, t) of the window,
    flat at k N^2 + i N + j for labels at positions i and j, under the maps
    of _maps: reps holds the smallest element of each orbit, increasing, and
    pair p of term k has the value of reps[offset + at[p]], conjugated where
    neg[p], for (offset, at, neg) = terms[k].  The arrays are read-only."""
    side = 2 * s_max + 1
    grid = np.indices((side,) * two_n).reshape(two_n, -1).T - s_max  # the window's labels, in order
    n = len(grid)
    pairs = []  # (pair -> its image, conjugated) of each flip, then of the flip and the swap
    for f, anti in flips:
        perm = np.ravel_multi_index((grid * f + s_max).T, (side,) * two_n)
        pairs += [((perm[:, None] * n + perm).ravel(), anti), ((perm[:, None] + perm * n).ravel(), not anti)]
    tau = np.repeat(taus, 2, axis=0)
    tau[1::2, ~np.array(swaps)] = -1
    low = np.where(tau >= 0, tau, len(swaps)).min(axis=0)  # the smallest term each term maps onto
    ways = [tuple(np.flatnonzero(tau[:, k] == low[k])) for k in range(len(swaps))]
    best = {}  # maps -> each pair's smallest image under them, its conjugation and its rank if it is fixed
    for way in set(ways):
        images = np.array([pairs[g][0] for g in way])
        arg = images.argmin(axis=0)
        image = images[arg, np.arange(n * n)]
        best[way] = image, np.array([pairs[g][1] for g in way])[arg], np.cumsum(image == np.arange(n * n)) - 1
    own = np.flatnonzero(low == np.arange(len(swaps)))
    reps = np.concatenate([k * n * n + np.flatnonzero(best[ways[k]][0] == np.arange(n * n)) for k in own])
    offset, shared = dict(zip(own, np.searchsorted(reps, own * n * n).tolist())), {}
    terms = [(offset[low[k]], shared.setdefault((ways[k], ways[low[k]]), best[ways[low[k]]][2][best[ways[k]][0]]),
              best[ways[k]][1]) for k in range(len(swaps))]
    for a in [reps, *shared.values(), *(b[1] for b in best.values())]:
        a.flags.writeable = False
    return reps, terms


class _BoxTables:
    """The double-precision box tables of kernel terms of one kind (works)
    over the pairs of the window's labels (index; lbar the rows of lab).
    FULL terms compute one element (term, s, t) per orbit (_orbits) and read
    the rest as exact images; DIAG_DELTA terms compute each.  Only the computed
    values are kept, in blocks of consecutive terms of up to BOX_BLOCK (or
    one term) made when the block's first term is read."""

    def __init__(self, works, index, lab, s_max):
        self.works, self.index, self.lab, self.s_max, self.vals = works, index, lab, s_max, None

    def table(self, k):
        """(values as a list, whether all are finite, how many are images) of term k."""
        if self.vals is None:  # check every term, then find the orbits
            kernels, code, cell = [w.kernel for w in self.works], self.works[0].code, self.works[0].cell
            self.forms = forms = _restricted(kernels)
            self.q, self.amp = -_box_diag(forms[2]), np.array([complex(k.amp) for k in kernels])
            self.size = len(self.index) ** (1 if forms[5] is None else 2)  # elements per term
            if forms[5] is None:
                self.reps, at = np.arange(len(kernels) * self.size), np.arange(self.size)
                self.terms = [(i * self.size, at, None) for i in range(len(kernels))]
            else:
                data = np.concatenate([forms[0].reshape(len(kernels), -1), forms[1], self.amp[:, None]], axis=1)
                maps = _maps(tuple(map(tuple, code.dual_basis().tolist())), tuple(cell.intervals), (data + 0j).tobytes())
                self.reps, self.terms = _orbits(self.s_max, self.lab.shape[1], *maps)
            self.before = np.zeros(len(kernels) + 1, np.intp)  # representatives of the terms before each
            np.cumsum(np.bincount(self.reps // self.size, minlength=len(kernels)), out=self.before[1:])
            self.vals, self.done = np.empty(len(self.reps), complex), 0
        while self.done <= k:  # the next block
            first, start = self.done, self.before[self.done]
            self.done = max(first + 1, int(np.searchsorted(self.before, start + BOX_BLOCK, "right")) - 1)
            stop = self.before[self.done]
            term, at = np.divmod(self.reps[start:stop], self.size)
            i, j = (at, at) if self.forms[5] is None else np.divmod(at, len(self.index))
            forms = tuple(x[first:self.done] for x in self.forms[:5]) + self.forms[5:]
            if stop > start:
                self.vals[start:stop] = _box_values(self.q[first:self.done], self.amp[first:self.done],
                                                    self.works[0].cell.intervals, term - first,
                                                    *_pair_forms(forms, self.lab, term - first, i, j))
        offset, at, neg = self.terms[k]
        v = self.vals[offset + at]
        if neg is not None and neg.any():  # conjugated images, zeros as +0.0
            v = _complex(v.real, np.where(neg, -v.imag, v.imag) + 0.0)
        return v.tolist(), bool(np.isfinite(v).all()), self.size - int(self.before[k + 1] - self.before[k])


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


def _reader(index, values, full: bool):
    """read(s, t): (s, t)'s element of the window's box table values, or None for a label outside index."""
    n = len(index)

    def read(s, t):
        try:
            i, j = index[s], index[t]
        except (KeyError, TypeError):  # a label outside the window, or not a tuple
            return None
        return values[i * n + j] if full else values[i] if i == j else 0j
    return read


def box_cell_integral(kernel: GaussianKernel, code: GkpCode, cell: BoxCell, s, t, ctx=None):
    """Exact integral of c_{s,t}(v, v) over a box cell, in double precision
    (ctx None) or in the mpmath context ctx.

    Requires the diagonal-restricted quadratic form to be axis-diagonal (true
    for every isotropic single-mode kernel family here).  Delta-constrained
    kernels follow their density conventions: DIAG_DELTA contributes only for
    lbar(s) = lbar(t), POINT only when the point falls in the cell.  Inside
    window_coefficients a float call on its term (by identity) reads its
    element of the term's table (_TermWork.box_value), computed or an exact
    image (_BoxTables), bare (_reader) once the table is all finite; on its
    own or outside the window it computes its element alone with no map (in
    mpmath over its own pair), so it stays the per-pair oracle.  A value that
    is not finite raises OverflowError; one whose exponent lies below -745
    reads as 0, and a zero part as +0.0.
    """
    work = _TERM_WORK.get(None)
    if (ctx is None and work is not None and work.read is not None and work.kernel is kernel
            and work.code is code and work.cell is cell):
        value = work.read(s, t)
        if value is not None:
            return value
    scalar = complex if ctx is None else ctx.mpc
    if kernel.kind == POINT:
        return scalar(_point_value(kernel, code, cell, s, t))
    value = _term_work(kernel, code, cell).box_value(s, t, ctx)
    return scalar(0.0) if value is None else value


@functools.lru_cache(maxsize=8)
def _gauss_legendre(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only and built once per order."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _cell_quadrature_points(cell: PrimitiveCell, order: int):
    """(x, y_lo, y_hi, weights) of the slab rule of a 2D Voronoi cell.

    The polygon's vertical slabs (VoronoiCell.slabs_2d) are cut at x = 0
    too, the lattice point, where the coefficients' Gaussians peak.  Inside
    a slab y runs between two facets, y_lo(x) and y_hi(x), each linear in x.
    Each slab gets order Gauss-Legendre nodes x with the slab's Jacobian in
    their weights, so sum w (y_hi - y_lo) is the cell's area.
    """
    if not (isinstance(cell, VoronoiCell) and cell.dim == 2):
        raise ValueError(f"no quadrature rule for cell type {type(cell).__name__} in dim {cell.dim}")
    a, b, lo_slope, lo_icpt, hi_slope, hi_icpt = cell.slabs_2d()[:, :, None]
    t, w = _gauss_legendre(order)
    half = (b - a) / 2
    x = (a + b) / 2 + half * t
    y_lo = lo_slope * x + lo_icpt
    y_hi = hi_slope * x + hi_icpt
    return x.ravel(), y_lo.ravel(), y_hi.ravel(), (half * w).ravel()


def numeric_cell_integral(kernel: GaussianKernel, code: GkpCode, cell: PrimitiveCell, s, t,
                          order: int = 40):
    """Integral of c_{s,t}(v, v) over a 2D Voronoi cell by the slab rule
    (_TermWork.rule); returns (value, error_estimate).

    The y integral is closed form, so the rule's only error is the
    Gauss-Legendre rule in x.  The value is that of order + order // 2, and
    the estimate is its distance from the value of order, so it bounds the
    error of the lower order and overstates that of the value returned; if
    it exceeds 1e-9 times max(1, |value|) a warning is issued (never silently
    swallowed).  POINT kernels integrate exactly by cell membership.  The
    integrand at the rule's nodes comes from _TermWork.slab_row: inside
    window_coefficients from the row of pairs that the term's shared work
    built for label s, with y factors over the window's distinct b_1; on its
    own the call builds the form, rules and y factor of just its pair, with
    the same bits, so it stays the per-pair oracle.  Either way the call does its own
    sum over the nodes.
    """
    if kernel.kind == POINT:
        return complex(_point_value(kernel, code, cell, s, t)), 0.0
    work = _term_work(kernel, code, cell)
    row = work.slab_row(s, t, order)
    if row is None:
        return 0j, 0.0
    v1, v2 = kernel.amp * (work.rule(order)[3] @ row)
    v1, v2 = complex(v1), complex(v2)
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


@functools.lru_cache(maxsize=8)
def _pauli_basis(dims: tuple) -> np.ndarray:
    """P(a) for every representative a in Z_{d_1} x ... x Z_{d_n} (x part, then z part),
    stacked along axis 0 in chi index order, the identity first; read-only, built once per dims."""
    ranges = [range(d) for d in dims] * 2
    basis = np.stack([pauli_matrix(dims, a) for a in itertools.product(*ranges)])
    basis.flags.writeable = False
    return basis


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


def _chi(dims, labels, rs, rt, values) -> np.ndarray:
    """chi of the values[p] of the pairs (labels[rs[p]], labels[rt[p]]), each label folded
    once (_fold) and added up by np.add.at in p order; object values give an object chi."""
    dtype = object if values.dtype == object else complex
    if dtype is object and max(dims) > 2:
        raise ValueError("mpmath channels need qubit modes, whose Pauli phases are exact")
    chi = np.full((int(np.prod(dims)) ** 2,) * 2, 0 * values[0], dtype=dtype)
    index, sign = np.array([_fold(dims, s) for s in labels]).T
    sign = sign[rs] * sign[rt]
    if dtype is object:
        signed = sign.astype(object) * values
    else:  # sign * c as CPython multiplies an int and a complex, one rounding per real operation
        c = values.astype(complex)
        signed = _complex(sign * c.real - 0.0 * c.imag, sign * c.imag + 0.0 * c.real)
    np.add.at(chi, (index[rs], index[rt]), signed)
    return chi


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
        """Fold {(s, t): c_{s,t}} over integer Pauli labels into chi, in sorted
        pair order (_chi); an mpmath coefficient makes chi an object array."""
        items = sorted(coeffs.items())  # by the pairs, which are distinct
        rank = {s: i for i, s in enumerate(sorted({s for pair in coeffs for s in pair}))}
        rs, rt = np.array([(rank[s], rank[t]) for (s, t), _ in items]).T
        return cls(tuple(dims), _chi(dims, list(rank), rs, rt, np.asarray([c for _, c in items])))

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
    # (u, v, on the diagonal): the origin twice, then each shell point off the diagonal and on it
    probes, shells = [(zero, zero, True), (zero, zero, False)], []
    for s in itertools.chain.from_iterable((r * e, -r * e) for e in np.eye(two_n, dtype=np.int64)):
        ls = code.dual_vector(s)
        probes += [(ls, zero, False), (ls, ls, True)]
        shells += [(tuple(s.tolist()), tag) for tag in ("off-diagonal", "diagonal")]
    u, v, diagonal = (np.array(x) for x in zip(*probes))
    # sum_k |w_k amp_k exp(x^T Q_k x + L_k^T x)| at every probe as one array, x = (u, v), where a
    # density's Q_k and L_k fill the u block; POINT kernels sit at the origin, DIAG_DELTA ones on u = v
    terms = [(w, k) for w, k in cf.terms if k.kind != POINT]
    q, lin = np.zeros((len(terms), 2 * two_n, 2 * two_n), complex), np.zeros((len(terms), 2 * two_n), complex)
    for i, (_, k) in enumerate(terms):
        q[i, :len(k.linear), :len(k.linear)], lin[i, :len(k.linear)] = k.q_matrix, k.linear
    x, amp = np.hstack([u, v]), np.array([w * k.amp for w, k in terms], complex)[:, None]
    modulus = np.abs(amp * np.exp(np.sum(x @ q * x, axis=-1) + lin @ x.T))
    keep = diagonal | np.array([k.kind != DIAG_DELTA for _, k in terms], bool)[:, None]
    total = np.where(keep, modulus, 0.0).sum(axis=0)
    rel = total[2:] / max(total[0], total[1], 1e-300)
    at = int(np.argmax(rel))
    if rel[at] > DECAY_THRESHOLD:
        raise DecayViolationError(
            f"characteristic function does not decay: relative modulus {rel[at]:.3e} on the "
            f"{shells[at][1]} shell s = {shells[at][0]} exceeds {DECAY_THRESHOLD:.1e}"
        )


def window_coefficients(code: GkpCode, cell: PrimitiveCell, cf: ChannelCharFn,
                        trunc: TruncationSpec = TruncationSpec(1), dps: int | None = None,
                        quad_order: int = 40) -> tuple:
    """Raw Pauli-pair coefficients {(s, t): c_{s,t}} over the truncation window,
    cell integrals of c_{s,t}(v, v) summed over the kernel terms, and a dict
    of how far to trust them: "underflowed", the number of (pair, term)
    integrals that underflowed, and "quad_err", the summed quadrature error
    estimates of the pairs that fold onto the non-identity diagonal of chi
    (0 on box cells).  Each estimate is the distance between the slab rules
    of orders quad_order and 1.5 quad_order, so the sum bounds the error of
    sum_{a != I} chi_aa at the lower order and overstates it at the higher
    order, whose values are kept.

    Box cells integrate in closed form, in double precision when dps is None
    and otherwise in a private mpmath context at dps digits (the global
    mp.mp is never touched); 2D Voronoi cells by the slab rule, in double
    precision only.  An integral underflowed when it is exactly 0 although
    its integrand is not: a FULL kernel (a box integral below the -745
    exponent cutoff, or a slab rule whose every node underflowed), or a
    DIAG_DELTA kernel on s = t.

    Every (pair, term) makes one box_cell_integral or numeric_cell_integral
    call, with the same bits as a call on its own, mapped over the window's
    label lists.  Each term's _TermWork is held in _TERM_WORK for that term
    only, with the window's label vectors.  In double precision on a box cell
    the terms of each kind share one _BoxTables, which checks them all on the
    first pair read and computes its orbit representatives block by block as
    their terms are read; a term's later calls read its table bare (_reader).
    The mpmath box values and the slab rows read const and b_v from the
    term's set of pairs, every pair of the window at once (_TermWork.pair).
    A term's table and set of pairs are dropped when it is done.  Each pair
    sums its terms in order, in arrays over the pairs in CPython's complex
    arithmetic spelt in real operations (lists in mpmath); quad_err adds up
    in pair order.
    """
    window, values, trust, _ = _coefficients(code, cell, cf, trunc, dps, quad_order)
    return dict(zip(itertools.product(window, window), values.tolist())), trust


def _coefficients(code, cell, cf, trunc, dps, quad_order):
    """(window, values, trust, counts): window_coefficients' sums as one array in
    itertools.product(window, window) order, which is sorted pair order, and how many
    (pair, term) values were computed ("integrals") and read as images of others ("images")."""
    window = trunc.window(2 * code.n_modes)
    n = len(window)
    use_box = isinstance(cell, BoxCell)
    ctx = None
    if dps is not None:
        if not use_box:
            raise ValueError("mpmath precision integrates box cells only")
        ctx = mp.MPContext()
        ctx.dps = dps
    firsts, seconds = list(itertools.chain.from_iterable(itertools.repeat(s, n) for s in window)), window * n
    if not use_box:  # where a quadrature error counts
        fold = np.array([_fold(code.dims, s)[0] for s in window])
        on_diagonal = ((fold[:, None] == fold) & (fold != 0)).ravel().tolist()
    labels = dict(zip(window, itertools.count()))
    lab = _label_vectors(code, window)
    works, kinds = [], {}
    for _, kern in cf.terms:
        work = _TermWork(kern, code, cell)
        work.window, work.lab = labels, lab
        works.append(work)
        if use_box and ctx is None and kern.kind != POINT:
            kinds.setdefault(kern.kind, []).append(work)
    for group in kinds.values():
        tables = _BoxTables(group, labels, lab, trunc.s_max)
        for k, work in enumerate(group):
            work.tables = tables, k
    re = im = np.zeros(n * n)
    acc = [ctx.mpc(0.0)] * (n * n) if ctx is not None else None
    underflowed = images = 0
    quad_err = 0.0
    token = _TERM_WORK.set(None)
    try:
        for (w, kern), work in zip(cf.terms, works):
            _TERM_WORK.set(work)
            if use_box:
                vals = list(map(functools.partial(box_cell_integral, kern, code, cell),
                                firsts, seconds, itertools.repeat(ctx)))
                images += work.images
            else:
                vals, errs = zip(*map(functools.partial(numeric_cell_integral, kern, code, cell, order=quad_order),
                                      firsts, seconds))
                for err in itertools.compress(errs, on_diagonal):
                    quad_err += abs(w) * err
            work.box = work.read = work.pairs = work.row = None  # no later term reads them
            if kern.kind == FULL:
                underflowed += vals.count(0)
            elif kern.kind == DIAG_DELTA:  # the pairs s = t
                underflowed += vals[::n + 1].count(0)
            if ctx is None:  # acc + w v as CPython adds it up, one rounding per real operation
                v, w = np.array(vals, complex), complex(w)
                re, im = re + (w.real * v.real - w.imag * v.imag), im + (w.real * v.imag + w.imag * v.real)
            else:
                sw = ctx.mpc(w)
                acc = [a + sw * v for a, v in zip(acc, vals)]
    finally:
        _TERM_WORK.reset(token)
        for work in works:  # leave no work in a reference cycle with its tables
            work.tables = None
    values = _complex(re, im) if ctx is None else np.array(acc, dtype=object)
    return (window, values, {"underflowed": underflowed, "quad_err": quad_err},
            {"integrals": n * n * len(works) - images, "images": images})


def logical_channel(code: GkpCode, cell: PrimitiveCell, cf: ChannelCharFn,
                    trunc: TruncationSpec = TruncationSpec(1), dps: int | None = None,
                    quad_order: int = 40) -> LogicalSuperop:
    """Logical noise channel of cf on the code/cell decoder: decay precheck,
    window coefficients (in double precision, or at dps digits), then the
    fold into chi (fixed, sorted summation order for reproducibility).
    meta records s_max, dps, the "underflowed" and "quad_err" of
    window_coefficients, "quad_order", the quadrature order the channel was
    built at (None on box cells, which integrate in closed form), and how
    many (pair, term) values of the window were computed ("integrals") and
    read as exact images of others ("images"; 0 off float box cells)."""
    _decay_precheck(cf, code, trunc.s_max)
    window, values, trust, counts = _coefficients(code, cell, cf, trunc, dps, quad_order)
    ch = LogicalSuperop(code.dims, _chi(code.dims, window, *np.divmod(np.arange(values.size), len(window)), values))
    ch.meta = {"s_max": trunc.s_max, "dps": dps, **trust,
               "quad_order": None if isinstance(cell, BoxCell) else quad_order, **counts}
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
