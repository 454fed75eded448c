import itertools
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad
from scipy.special import erf as _scipy_erf

from gkpsim.charfun import (
    DIAG_DELTA,
    POINT,
    ChannelCharFn,
    GaussianKernel,
    compose,
    dephased_envelope_charfun,
    envelope_charfun,
    identity_charfun,
    loss_charfun,
    random_displacement_charfun,
)
from gkpsim import charfun, cli, logical
from gkpsim.lattice import (BoxCell, GkpCode, VoronoiCell, hexagonal_code, rectangular_code, square_code,
                            voronoi_box)
from gkpsim.logical import (
    DecayViolationError,
    LogicalSuperop,
    TruncationSpec,
    box_cell_integral,
    highprec_channel_analysis,
    logical_channel,
    numeric_cell_integral,
    pauli_matrix,
    suggest_dps,
    window_coefficients,
)
from gkpsim.metrics import (
    average_gate_fidelity,
    average_gate_infidelity,
    cptp_diagnostics,
    lowdin_orthonormalize,
)
from gkpsim.symplectic import omega, rotation

SQ = square_code()
CELL = voronoi_box(SQ)
HEX = hexagonal_code()
HEX_CELL = VoronoiCell(HEX)


# ---------------------------------------------------------------------------
# complex error function


def _erf_series(z, terms=60):
    # Maclaurin oracle: erf(z) = (2/sqrt(pi)) sum (-1)^n z^(2n+1) / (n! (2n+1))
    z = complex(z)
    total = 0.0
    fact = 1.0
    for n in range(terms):
        if n > 0:
            fact *= n
        total += (-1) ** n * z ** (2 * n + 1) / (fact * (2 * n + 1))
    return 2 / np.sqrt(np.pi) * total


def _erf(z, lo=0.0, hi=1.0):
    # the 1D factor of q = z^2 and b = 0 on [0, 1] is
    # int_0^1 exp(-z^2 y^2) dy = sqrt(pi) / (2 z) erf(z); its closed form
    # holds for any q != 0 on a finite interval, Re q <= 0 included
    exponent, pref = logical._gaussian_1d(complex(z) ** 2, np.zeros(1), lo, hi)
    return complex(pref[0] * np.exp(exponent[0]) * 2 * z / np.sqrt(np.pi))


def test_complex_erf_examples():
    assert _erf(1.0, 0.0, 0.0) == 0.0  # erf(0) - erf(0)
    assert _erf(1.0) == pytest.approx(_erf_series(1.0), abs=1e-13)
    assert _erf(1.0) == pytest.approx(0.8427007929497149, abs=1e-14)
    val = _erf(1j)
    assert val.real == pytest.approx(0.0, abs=1e-14)
    assert val.imag == pytest.approx(1.6504257587975429, abs=1e-12)
    assert val == pytest.approx(_erf_series(1j), abs=1e-12)


def test_complex_erf_strip_accuracy():
    # the Maclaurin oracle itself cancels catastrophically beyond |z| ~ 3,
    # so the comparison stays inside that disc
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = complex(rng.uniform(-1.8, 1.8), rng.uniform(-1.8, 1.8))
        assert abs(_erf(z) - _erf_series(z, 80)) < 1e-13 * max(1, abs(_erf_series(z, 80)))


def test_complex_erf_huge_real_asymptote():
    # exp(-z^2) underflows where Re z^2 > 745, so scipy's erf is exactly +-1
    # and the factors come out finite, 1 ulp or so from +-1 and 2
    assert _erf(40 + 0.5j) == pytest.approx(1.0, abs=1e-15)
    assert _erf(-40 - 0.5j) == pytest.approx(-1.0, abs=1e-15)
    assert _erf(40 + 0.5j, -1.0, 1.0) == pytest.approx(2.0, abs=1e-15)


# ---------------------------------------------------------------------------
# box integral vs the closed erf form and quadrature


def _g_closed(x, y, delta):
    coth = 1 / np.tanh(delta ** 2 / 2)
    tanh = np.tanh(delta ** 2 / 2)
    return _scipy_erf(np.sqrt(np.pi / 8) * (x * np.sqrt(coth) + 1j * y * np.sqrt(tanh)))


def _envelope_coeff_closed(s, t, delta):
    """Closed-form envelope cell integral: erf-difference products with the
    exp(-(pi/4) coth(Delta^2)|s-t|^2 + (i pi/2) s^T Omega t) prefactor."""
    s1, s2 = s
    t1, t2 = t
    kappa2 = (1 / (1 - np.exp(-delta ** 2))) ** 2
    pref = 0.25 * np.tanh(delta ** 2 / 2) * np.exp(
        -np.pi / 4 / np.tanh(delta ** 2) * ((s1 - t1) ** 2 + (s2 - t2) ** 2)
        + 0.5j * np.pi * (s1 * t2 - s2 * t1))
    f1 = _g_closed(s1 + t1 - 1, t2 - s2, delta) - _g_closed(s1 + t1 + 1, t2 - s2, delta)
    f2 = _g_closed(s2 + t2 - 1, s1 - t1, delta) - _g_closed(s2 + t2 + 1, s1 - t1, delta)
    return kappa2 * pref * f1 * f2


def _pair_form(kernel, code, s, t):
    """(b_v, const) of c_{s,t}(v, v) from logical._pair_forms over the pair
    (s, t) alone, or None off the diagonal of a DIAG_DELTA kernel."""
    if kernel.kind == DIAG_DELTA and s != t:
        return None
    const, bv = logical._pair_forms(logical._restricted([kernel]), logical._label_vectors(code, [s, t]),
                                    np.zeros(1, int), np.zeros(1, int), np.ones(1, int))
    return bv[:, 0], const[0]


def _coeff_quadrature(kernel, s, t):
    qv = logical._restricted([kernel])[2][0]
    bv, const = _pair_form(kernel, SQ, s, t)
    a = 2 ** -1.5

    def f(x, y):
        v = np.array([x, y])
        return kernel.amp * np.exp(v @ qv @ v + bv @ v + const)

    re = dblquad(lambda y, x: f(x, y).real, -a, a, -a, a, epsabs=1e-13)[0]
    im = dblquad(lambda y, x: f(x, y).imag, -a, a, -a, a, epsabs=1e-13)[0]
    return re + 1j * im


def test_box_integral_matches_closed_form():
    for delta in (0.5, 0.8):
        kern = envelope_charfun(delta).terms[0][1]
        for s, t in [((0, 0), (0, 0)), ((1, 0), (0, 0)), ((1, 1), (0, -1)), ((-1, 1), (1, 0))]:
            got = box_cell_integral(kern, SQ, CELL, s, t)
            expect = _envelope_coeff_closed(s, t, delta)
            assert abs(got - expect) < 1e-12 * max(abs(expect), 1e-30)


def test_box_integral_g_arguments_symbol_for_symbol():
    # the ((1,0),(0,0)) coefficient exposes the g(s1+t1-+1, t2-s2) structure
    delta = 0.5
    kern = envelope_charfun(delta).terms[0][1]
    got = box_cell_integral(kern, SQ, CELL, (1, 0), (0, 0))
    quad = _coeff_quadrature(kern, (1, 0), (0, 0))
    closed = _envelope_coeff_closed((1, 0), (0, 0), delta)
    assert got == pytest.approx(quad, rel=1e-10)
    assert closed == pytest.approx(quad, rel=1e-10)


def test_box_integral_quadrature_oracle_s0():
    delta = 0.5
    kern = envelope_charfun(delta).terms[0][1]
    got = box_cell_integral(kern, SQ, CELL, (0, 0), (0, 0))
    assert got == pytest.approx(_coeff_quadrature(kern, (0, 0), (0, 0)), rel=1e-10)


def test_coefficient_hermitian_symmetry():
    # I_{s,t} = conj(I_{t,s}) for random index pairs at Delta = 0.8
    rng = np.random.default_rng(1)
    kern = envelope_charfun(0.8).terms[0][1]
    for _ in range(20):
        s = tuple(rng.integers(-2, 3, 2))
        t = tuple(rng.integers(-2, 3, 2))
        a = box_cell_integral(kern, SQ, CELL, s, t)
        b = box_cell_integral(kern, SQ, CELL, t, s)
        assert a == pytest.approx(np.conj(b), abs=1e-14 * max(1, abs(a)))


def test_composed_kernels_stay_analytic():
    # loss o envelope and displacement o envelope keep an axis-diagonal
    # restriction, so the erf path applies; cross-check against quadrature
    delta = 0.6
    for cf in (compose(loss_charfun(0.05), envelope_charfun(delta)),
               compose(random_displacement_charfun(0.2), envelope_charfun(delta))):
        kern = cf.terms[0][1]
        for s, t in [((0, 0), (0, 0)), ((1, -1), (0, 1))]:
            got = box_cell_integral(kern, SQ, CELL, s, t)
            assert got == pytest.approx(_coeff_quadrature(kern, s, t), rel=1e-9)


@pytest.mark.parametrize("re_b", [-3.0, 0.0, 3.0])
def test_gaussian_1d_factor_where_erf_overflows(re_b):
    # z = sqrt(q) (y - b/2q) = 0.1 y - 5 b has Im z = -30 and |Re z| <= 15,
    # so erf(z) grows like e^675 or more and the erf-difference form would
    # overflow in a product of coordinates; the endpoint form keeps a
    # finite prefactor.  Re b puts Re z right of 0, across it and left of
    # it on the interval (the three sign cases of the endpoint form)
    q, b, lo, hi = 0.01, complex(re_b, 6.0), -0.35, 0.35
    exponent, pref = logical._gaussian_1d(q, np.array([b]), np.array([lo]), np.array([hi]))
    assert abs(pref[0]) < 1e3
    ctx = mp.MPContext()
    ctx.dps = 30
    exact = ctx.quad(lambda y: ctx.exp(-q * y * y + ctx.mpc(b) * y), [lo, hi])
    got = pref[0] * np.exp(exponent[0])
    assert abs(got - complex(exact)) <= 1e-13 * abs(complex(exact))


def test_gaussian_1d_factor_over_every_branch():
    # z = sqrt(q) (y - b/2q) = 0.1 y - 5 b.  The first element's real parts
    # straddle 0 (an erf difference); the next three lie past 1/2 on one
    # side (erfc differences), right of 0, left of it, and left with an
    # imaginary part.  The last three have Im z = -30 and |Re z| <= 15, so
    # erf(z) grows like e^675 or more and the erf-difference form would
    # overflow in a product of coordinates; the endpoint form keeps a finite
    # prefactor, with Re z right of 0, across it and left of it
    q = 0.01
    b = np.array([0.005 + 0.2j, -0.4, 0.4, 0.3 + 0.2j, -3 + 6j, 6j, 3 + 6j])
    lo = np.array([-0.35, -0.35, -0.3, -0.35, -0.35, -0.35, -0.35])
    hi = np.array([0.35, 0.3, 0.35, 0.1, 0.35, 0.35, 0.35])
    z = np.sqrt(q) * (np.array([lo, hi]) - b / (2 * q))
    assert np.sign(z.real).sum(axis=0).tolist() == [0, 2, -2, -2, 2, 0, -2]
    assert (np.max((-z * z).real, axis=0) > logical.ERF_GROWTH_MAX).tolist() == [False] * 4 + [True] * 3
    exponent, pref = logical._gaussian_1d(q, b, lo, hi)
    assert np.all(np.abs(pref[4:]) < 1e3)
    ctx = mp.MPContext()
    ctx.dps = 40
    for k in range(b.size):
        alone = logical._gaussian_1d(q, b[k:k + 1], lo[k:k + 1], hi[k:k + 1])
        assert alone[0].tobytes() == exponent[k:k + 1].tobytes()
        assert alone[1].tobytes() == pref[k:k + 1].tobytes()
        exact = ctx.quad(lambda y: ctx.exp(-q * y * y + ctx.mpc(b[k]) * y), [lo[k], hi[k]])
        got = ctx.mpc(pref[k]) * ctx.exp(ctx.mpc(exponent[k]))
        assert abs(got - exact) <= 1e-13 * abs(exact)


def test_numeric_cell_integral_agrees_with_box():
    kern = envelope_charfun(0.5).terms[0][1]
    for s, t in [((0, 0), (0, 0)), ((1, 0), (0, 0)), ((1, 1), (-1, 0))]:
        a = box_cell_integral(kern, SQ, CELL, s, t)
        b, err = numeric_cell_integral(kern, SQ, VoronoiCell(SQ), s, t, order=40)
        assert abs(a - b) <= 1e-8 * max(abs(a), 1e-16)
        assert err < 1e-10


def test_numeric_cell_integral_hexagonal_self_convergence():
    hexc = hexagonal_code()
    cell = VoronoiCell(hexc)
    kern = envelope_charfun(0.5).terms[0][1]
    v1, _ = numeric_cell_integral(kern, hexc, cell, (0, 0), (0, 0), order=30)
    v2, _ = numeric_cell_integral(kern, hexc, cell, (0, 0), (0, 0), order=60)
    assert abs(v1 - v2) < 1e-8 * abs(v2)


def test_numeric_cell_integral_zero_kernel():
    kern = envelope_charfun(0.5).terms[0][1]
    kern.amp = 0.0
    val, err = numeric_cell_integral(kern, SQ, VoronoiCell(SQ), (0, 0), (0, 0))
    assert val == 0


def test_slab_rule_refuses_a_form_that_grows_along_y():
    # the y integral is closed form only for Re q > 0, q = -Q_11
    kernel = GaussianKernel(1, 1.0 + 0j, [[-1.0, 0.0], [0.0, 0.1]], kind=DIAG_DELTA)
    with pytest.raises(ValueError, match="not decaying along y"):
        numeric_cell_integral(kernel, SQ, VoronoiCell(SQ), (0, 0), (0, 0))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(theta=st.floats(0, 2 * np.pi), squeeze=st.floats(-1, 1), shear=st.floats(-1.5, 1.5),
       d=st.integers(1, 3), coeffs=st.lists(st.floats(-2, 2), min_size=6, max_size=6))
# a facet so nearly vertical that its slope overflows
@example(theta=2.225073858507203e-309, squeeze=0.0, shear=0.0, d=1, coeffs=[0.0] * 6)
def test_voronoi_polygon_and_rule_on_random_codes(theta, squeeze, shear, d, coeffs):
    sigma = rotation(theta) @ np.diag([np.exp(squeeze), np.exp(-squeeze)]) @ [[1, shear], [0, 1]]
    code = GkpCode(sigma, (d,))
    cell = VoronoiCell(code)
    verts, rels = cell.vertices_2d(), cell.relevant_vectors()
    # the facets r . x = |r|^2 / 2 that each vertex lies on; neighbours share one
    on = np.abs(verts @ rels.T - 0.5 * np.sum(rels ** 2, axis=1)) <= 1e-12
    assert np.all(on.sum(axis=1) >= 2)
    assert np.all(np.any(on & np.roll(on, -1, axis=0), axis=1))
    nxt = np.roll(verts, -1, axis=0)
    cross = verts[:, 0] * nxt[:, 1] - verts[:, 1] * nxt[:, 0]
    assert np.all(cross > 0)  # counterclockwise about the lattice point
    area = abs(np.linalg.det(code.dual_basis()))
    assert abs(cross.sum() / 2 - area) <= 1e-12
    # the slab rule covers the cell: its edges lie in it and bound its area
    for order in (3, 12):
        x, y_lo, y_hi, wts = logical._cell_quadrature_points(cell, order)
        assert abs(wts @ (y_hi - y_lo) - area) <= 1e-12
        edges = np.column_stack([np.concatenate([x, x]), np.concatenate([y_lo, y_hi])])
        assert all(cell.contains(p, tol=1e-9) for p in edges)
    # a decaying complex Gaussian, integrated in closed form along y, against
    # the fan rule at a high order; at label 0 a DIAG_DELTA kernel's exponent
    # is v^T Q v + L^T v
    c0, b0, b1, q00, q01, q11 = coeffs
    m = np.array([[q00, q01], [q01, q11]])
    kernel = GaussianKernel(1, np.exp(c0), -(m @ m + 0.5 * np.eye(2)) + 0.5j * m,
                            [b0 + 1j * q11, b1 - 1j * q00], kind=DIAG_DELTA)
    got, _ = numeric_cell_integral(kernel, code, cell, (0, 0), (0, 0), order=60)
    pts, wts = _fan_rule(cell, 80)
    quad = np.einsum("ki,ij,kj->k", pts, kernel.q_matrix, pts) + pts @ kernel.linear
    expect = kernel.amp * np.exp(quad) @ wts
    assert abs(got - expect) <= 1e-12 * abs(expect)


def _fan_rule(cell, order):
    """(points, weights) of a Gauss-Legendre rule on the triangles (0, v_i,
    v_{i+1}) fanned from the lattice point to a 2D Voronoi cell's edges, each
    the image of the collapsed square p = x ((1 - y) v_i + y v_{i+1}), whose
    Jacobian is x |v_i x v_{i+1}|: an oracle independent of the slab rule."""
    x, w = np.polynomial.legendre.leggauss(order)
    v = cell.vertices_2d()
    vn = np.roll(v, -1, axis=0)
    xi, wi = (x + 1) / 2, w / 2
    xx, yy = xi[:, None, None], xi[None, :, None]
    pts = xx * ((1 - yy) * v[:, None, None, :] + yy * vn[:, None, None, :])
    cross = np.abs(v[:, 0] * vn[:, 1] - v[:, 1] * vn[:, 0])
    wts = cross[:, None, None] * (xi * wi)[:, None] * wi
    return pts.reshape(-1, 2), wts.ravel()


def test_slab_coefficients_match_the_fan_rule():
    # every hexagonal 12 dB envelope coefficient of the S = 1 window, the
    # smallest near 1e-35; where the y integral is a difference of erf
    # values near 1 (the (1, 1), (1, 1) coefficient), erf differences in
    # place of erfc differences were 2e-11 relative off
    kernel = envelope_charfun(10 ** (-12 / 20)).terms[0][1]
    pts, wts = _fan_rule(HEX_CELL, 80)
    quad = np.einsum("ki,ij,kj->k", pts, logical._restricted([kernel])[2][0], pts)
    window = TruncationSpec(1).window(2)
    for s in window:
        for t in window:
            got, _ = numeric_cell_integral(kernel, HEX, HEX_CELL, s, t)
            bv, const = _pair_form(kernel, HEX, s, t)
            expect = kernel.amp * np.exp(quad + pts @ bv + const) @ wts
            assert abs(got - expect) <= 1e-12 * abs(expect)


# ---------------------------------------------------------------------------
# the tables of 1D factors of a kernel term on a box cell


def _counted_window(monkeypatch, *args, **kwargs):
    """window_coefficients(*args, **kwargs) on the mpmath path, with the
    (q, b, lo, hi) of every 1D factor it computed: (coefficients, arguments)."""
    calls = []
    factor = logical._gaussian_1d_mp

    def recorded(ctx, q, b, lo, hi):
        calls.append((complex(q), complex(b), float(lo), float(hi)))
        return factor(ctx, q, b, lo, hi)

    with monkeypatch.context() as patch:
        patch.setattr(logical, "_gaussian_1d_mp", recorded)
        coeffs, _ = window_coefficients(*args, **kwargs)
    return coeffs, calls


def _per_pair_box_coefficients(cf, trunc, ctx):
    """The same sums as window_coefficients, from box_cell_integral called per pair."""
    scalar = complex if ctx is None else ctx.mpc
    window = trunc.window(2)
    out = {}
    for s in window:
        for t in window:
            total = scalar(0.0)
            for w, kern in cf.terms:
                total = total + scalar(w) * box_cell_integral(kern, SQ, CELL, s, t, ctx)
            out[(s, t)] = total
    return out


def test_window_computes_each_distinct_1d_factor_once(monkeypatch):
    # each of the 25^2 pairs asks for one factor per coordinate k, that of
    # (q, b, lo, hi) = (-Q_v[k, k], b_v[k], the cell's interval k); pairs with
    # one lbar(s) - lbar(t) share the Omega term of b_v, and so their factors
    delta = 10 ** (-26 / 20)
    cf = envelope_charfun(delta)
    _, calls = _counted_window(monkeypatch, SQ, CELL, cf, TruncationSpec(2), dps=suggest_dps(delta))
    work = logical._TermWork(cf.terms[0][1], SQ, CELL)
    window = TruncationSpec(2).window(2)
    requests = [(complex(-work.box_diag[k]), complex(b), *CELL.intervals[k])
                for s in window for t in window for k, b in enumerate(_pair_form(cf.terms[0][1], SQ, s, t)[0])]
    assert len(requests) == 2 * 25 ** 2
    assert len(calls) == len(set(calls)) and set(calls) == set(requests)
    assert len(calls) < len(requests) / 5


def test_window_coefficients_are_bit_identical_to_per_pair_integrals():
    delta = 10 ** (-26 / 20)
    dps = suggest_dps(delta)
    got, _ = window_coefficients(SQ, CELL, envelope_charfun(delta), TruncationSpec(1), dps=dps)
    ctx = mp.MPContext()
    ctx.dps = dps
    expect = _per_pair_box_coefficients(envelope_charfun(delta), TruncationSpec(1), ctx)
    assert list(got) == list(expect)
    assert all(got[k].real == expect[k].real and got[k].imag == expect[k].imag for k in got)
    # float path, several kernel terms, a larger window
    cf = compose(loss_charfun(0.01), dephased_envelope_charfun(0.1, 10 ** (-10 / 20), nodes=8))
    got, _ = window_coefficients(SQ, CELL, cf, TruncationSpec(2))
    expect = _per_pair_box_coefficients(cf, TruncationSpec(2), None)
    assert [(k, repr(v)) for k, v in got.items()] == [(k, repr(v)) for k, v in expect.items()]


@pytest.mark.parametrize("cf, zeros", [
    (random_displacement_charfun(0.25), 0), (identity_charfun(1), 0), (envelope_charfun(10 ** (-30 / 20)), 624),
], ids=["diag-delta", "point", "past-cutoff"])
def test_window_box_values_are_bit_identical_to_lone_calls(cf, zeros):
    # a DIAG_DELTA term is nonzero on s = t only, a POINT term at one pair;
    # at 30 dB the pairs past the -745 exponent cutoff read an exact 0 from
    # the term's table, as a lone call computes it
    got, trust = window_coefficients(SQ, CELL, cf, TruncationSpec(2))
    expect = _per_pair_box_coefficients(cf, TruncationSpec(2), None)
    assert [(k, repr(v)) for k, v in got.items()] == [(k, repr(v)) for k, v in expect.items()]
    assert trust["underflowed"] == zeros


@pytest.mark.parametrize("delta_db, underflowed", [(26, 576), (30, 624), (32, 624)])
def test_underflow_count_of_deep_envelope_windows(delta_db, underflowed):
    ch = logical_channel(SQ, CELL, envelope_charfun(10 ** (-delta_db / 20)), TruncationSpec(2))
    assert ch.meta["underflowed"] == underflowed


def test_box_value_that_overflows_raises_alone_and_in_the_window():
    # exp(b^2/4q) with b = 30, q = 0.02 is e^11250: the table holds inf,
    # which is read as an error, never as a coefficient
    kernel = GaussianKernel(1, 1 + 0j, -0.01 * np.eye(4), np.array([30.0, 0, 0, 0]))
    with pytest.raises(OverflowError, match="overflows double precision"):
        box_cell_integral(kernel, SQ, CELL, (0, 0), (0, 0))
    with pytest.raises(OverflowError, match="overflows double precision"):
        window_coefficients(SQ, CELL, ChannelCharFn.single(kernel), TruncationSpec(0))


def test_mpmath_box_values_read_const_from_the_shared_table(monkeypatch):
    # both precisions take const and b_v from _pair_forms over the same label
    # pieces: the mpmath element of a lone pair, in the term's set of pairs,
    # has the bits that its float value was computed from, and the lone
    # float call computes its own element alone, over its two labels
    kernel = compose(loss_charfun(0.01), envelope_charfun(10 ** (-26 / 20))).terms[0][1]
    s, t = (1, -1), (0, 1)
    ctx = mp.MPContext()
    ctx.dps = 30
    work = logical._TermWork(kernel, SQ, CELL)
    forms, labels, pair_forms = [], [], logical._pair_forms

    def recorded(forms_, lab, k, i, j):
        labels.append(lab)
        forms.append(pair_forms(forms_, lab, k, i, j))
        return forms[-1]

    with monkeypatch.context() as patch:
        patch.setattr(logical, "_pair_forms", recorded)
        value = work.box_value(s, t, None)
        exact = work.box_value(s, t, ctx)
    lone, const, bv, _ = work.pairs
    assert len(forms) == 2 and lone == (s, t) and const.shape == (1,)
    assert len(labels[0]) == 2 and forms[0][0].shape == (1,)  # the float element alone, over s and t
    assert labels[0].tobytes() == logical._label_vectors(SQ, (s, t)).tobytes()
    assert work.box is None and work.read is None
    assert const.tobytes() == forms[0][0].tobytes() and bv.tobytes() == forms[0][1].tobytes()
    expect = _form_oracle(kernel, SQ, s, t)[1]
    assert abs(const[0] - expect) <= 1e-12 * abs(expect)
    assert abs(complex(exact) - value) <= 1e-14 * abs(value)
    const[0] += 1
    assert abs(work.box_value(s, t, ctx) / exact - ctx.e) < ctx.mpf(10) ** -25
    assert not any(hasattr(work, name) for name in ("_const", "box_form", "prime", "pieces", "form", "restricted",
                                                    "_slab_forms"))


def _recorded_box_window(monkeypatch, cf, s_max):
    """logical_channel's window on the square box, with (term index, s, t,
    value) of every box_cell_integral call and the number of representative
    elements of each block computed together: (coefficients, calls, blocks,
    counts of integrals and images)."""
    calls, blocks = [], []
    box, values = logical.box_cell_integral, logical._box_values
    term = {id(kernel): i for i, (_, kernel) in enumerate(cf.terms)}

    def recorded(kernel, code, cell, s, t, ctx=None):
        value = box(kernel, code, cell, s, t, ctx)
        calls.append((term[id(kernel)], s, t, value))
        return value

    def counted(q, amp, intervals, k, const, bv):
        blocks.append(len(k))
        return values(q, amp, intervals, k, const, bv)

    with monkeypatch.context() as patch:
        patch.setattr(logical, "box_cell_integral", recorded)
        patch.setattr(logical, "_box_values", counted)
        window, values, _, counts = logical._coefficients(SQ, CELL, cf, TruncationSpec(s_max), None, 40)
    return dict(zip(itertools.product(window, window), values.tolist())), calls, blocks, counts


@pytest.mark.parametrize("cf, terms", [
    (dephased_envelope_charfun(0.1, 10 ** (-10 / 20), nodes=64), (0, 31, 63)),
    (compose(loss_charfun(0.01), dephased_envelope_charfun(0.1, 10 ** (-10 / 20), nodes=10)), (0, 4, 9)),
], ids=["dephasing64", "loss-dephasing10"])
@pytest.mark.parametrize("s_max, stride", [(2, 5), (3, 19)])
def test_window_box_values_of_many_blocks_are_bit_identical_to_lone_calls(monkeypatch, cf, terms,
                                                                         s_max, stride):
    # the window's representatives are computed in several blocks of whole
    # terms, each within BOX_BLOCK elements unless it holds one term, and
    # both the window and the lone calls take the Faddeeva endpoint form;
    # every sampled (pair, term) value, computed or an image, and every
    # pair's sum over the terms has the bits of the per-pair computation
    wofz, endpoint = logical.scipy.special.wofz, []

    def counted(z):
        endpoint.append(z.size)
        return wofz(z)

    monkeypatch.setattr(logical.scipy.special, "wofz", counted)
    got, calls, blocks, counts = _recorded_box_window(monkeypatch, cf, s_max)
    pairs = len(TruncationSpec(s_max).window(2)) ** 2
    assert len(calls) == len(cf.terms) * pairs == counts["integrals"] + counts["images"]
    assert sum(blocks) == counts["integrals"] < len(calls) / (4 if len(cf.terms) == 64 else 1.9)
    assert len(blocks) > 1 and max(blocks) <= max(logical.BOX_BLOCK, pairs)
    assert endpoint
    expect = {}
    for i, s, t, value in calls:  # as the per-pair loop adds them up
        expect[(s, t)] = expect.get((s, t), 0j) + complex(cf.terms[i][0]) * value
    assert [(k, repr(v)) for k, v in got.items()] == [(k, repr(v)) for k, v in expect.items()]
    endpoint.clear()
    sample = [(i, s, t, value) for i, s, t, value in calls[::stride] if i in terms]
    assert {i for i, *_ in sample} == set(terms)
    for i, s, t, value in sample:
        assert repr(box_cell_integral(cf.terms[i][1], SQ, CELL, s, t)) == repr(value)
    assert endpoint


def _maps_of(cf, code=SQ, cell=CELL):
    """logical._maps of the FULL terms of cf on code and cell."""
    data = np.array([np.concatenate([k.q_matrix.ravel(), k.linear, [k.amp]]) for _, k in cf.terms]) + 0j
    return logical._maps(tuple(map(tuple, code.dual_basis().tolist())), tuple(cell.intervals), data.tobytes())


def _orbit_oracle(maps, window):
    """The representative (smallest flat element k N^2 + i N + j) of every
    box element (k, s, t) under maps, by trying each map on each element."""
    flips, taus, swaps = maps
    n, index = len(window), {s: i for i, s in enumerate(window)}
    reps = {}
    for k in range(len(swaps)):
        for s in window:
            for t in window:
                images = []
                for (f, _), tau in zip(flips, taus):
                    if tau[k] >= 0:
                        fs, ft = (index[tuple(a * b for a, b in zip(f, x))] for x in (s, t))
                        images += [tau[k] * n * n + fs * n + ft] + ([tau[k] * n * n + ft * n + fs] if swaps[k] else [])
                reps[(k, s, t)] = min(images)
    return reps


@pytest.mark.parametrize("cf", [
    dephased_envelope_charfun(0.1, 10 ** (-10 / 20), nodes=16),
    compose(loss_charfun(0.01), envelope_charfun(10 ** (-10 / 20))),
    random_displacement_charfun(0.25),
], ids=["dephasing16", "loss", "diag-delta"])
def test_float_window_computes_each_distinct_1d_factor_once(monkeypatch, cf):
    # each representative (pair, term) needs one factor per coordinate k,
    # that of b_k; the window computes each distinct (term, k, b_k) among
    # the orbit representatives once, by the bits of b_k, in one _gaussian_1d
    # call per block of whole terms, and a lone call its own two
    window = TruncationSpec(2).window(2)
    n = len(window)
    full = cf.terms[0][1].kind != DIAG_DELTA
    reps = set(_orbit_oracle(_maps_of(cf), window).values()) if full else None
    requests, every, per_term = [], set(), [0] * len(cf.terms)
    for i, (_, kernel) in enumerate(cf.terms):
        for a, s in enumerate(window):
            for b, t in enumerate(window if full else [s]):
                b_v = _pair_form(kernel, SQ, s, t)[0]
                factors = [(i, k, np.complex128(b_k).tobytes()) for k, b_k in enumerate(b_v)]
                every.update(factors)
                if reps is None or i * n * n + a * n + b in reps:
                    per_term[i] += 1
                    requests += factors
    window_call = lambda: logical._coefficients(SQ, CELL, cf, TruncationSpec(2), None, 40)  # noqa: E731
    (*_, counts), elements = _counted_y_factors(monkeypatch, window_call)
    assert sum(elements) == len(set(requests)) < len(requests) / (1.5 if full else 2)
    assert sum(elements) < len(every) if full else sum(elements) == len(every)
    assert counts["integrals"] == (len(requests) // 2 if full else n * n * len(cf.terms))
    assert counts["images"] == (n * n * len(cf.terms) - len(requests) // 2 if full else 0)
    blocks, total = 1, 0  # whole terms, up to BOX_BLOCK representatives (or one term)
    for i, count in enumerate(per_term):
        if i and total + count > logical.BOX_BLOCK:
            blocks, total = blocks + 1, 0
        total += count
    assert len(elements) == blocks  # one call per block
    lone_call = lambda: box_cell_integral(cf.terms[-1][1], SQ, CELL, (1, -2), (1, -2))  # noqa: E731
    _, elements = _counted_y_factors(monkeypatch, lone_call)
    assert elements == [2]


def _window_values(cf, code, cell, s_max):
    """logical_channel's window, with the value of every box_cell_integral
    call: (calls as (term, s, t, value), counts of integrals and images)."""
    calls = []
    box = logical.box_cell_integral
    term = {id(kernel): i for i, (_, kernel) in enumerate(cf.terms)}

    def recorded(kernel, code, cell, s, t, ctx=None):
        calls.append((term[id(kernel)], s, t, box(kernel, code, cell, s, t, ctx)))
        return calls[-1][-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(logical, "box_cell_integral", recorded)
        *_, counts = logical._coefficients(code, cell, cf, TruncationSpec(s_max), None, 40)
    return calls, counts


def _kraus_pair(delta2, phi, weight=1.0):
    """(weight, the Kraus-pair kernel of the complex envelope e^{-(Delta^2 - i phi) n})."""
    return weight + 0j, charfun.kraus_pair_kernel(charfun._envelope_operator_kernel(delta2 - 1j * phi))


@settings(derandomize=True, deadline=None, max_examples=6)
@given(nodes=st.lists(st.tuples(st.floats(0.05, 0.6), st.floats(0, 0.4), st.floats(0.1, 1)), min_size=1, max_size=2),
       s_max=st.integers(1, 2), centre=st.booleans())
def test_window_images_have_the_bits_of_lone_calls(nodes, s_max, centre):
    # Kraus pairs of complex envelopes in mirrored pairs +-phi (and one at
    # phi = 0, its own mirror): every (pair, term) value that the window
    # reads, computed or an image, is the lone call's to the last bit
    terms = [_kraus_pair(d2, sign * phi, w) for d2, phi, w in nodes for sign in (1, -1)]
    terms += [_kraus_pair(nodes[0][0], 0.0)] if centre else []
    cf = ChannelCharFn(1, terms)
    calls, counts = _window_values(cf, SQ, CELL, s_max)
    pairs = len(TruncationSpec(s_max).window(2)) ** 2
    assert counts["integrals"] + counts["images"] == len(calls) == len(terms) * pairs
    assert counts["images"] > len(calls) / 2
    for i, s, t, value in calls:
        assert repr(box_cell_integral(cf.terms[i][1], SQ, CELL, s, t)) == repr(value)


_ENVELOPE = envelope_charfun(10 ** (-10 / 20)).terms[0][1]
_RECTANGULAR = rectangular_code(1.3)


@pytest.mark.parametrize("case, kernel, code, cell", [
    ("linear", GaussianKernel(1, _ENVELOPE.amp, _ENVELOPE.q_matrix, np.array([0.3, 0.2j, -0.1, 0.4 + 0.1j])),
     SQ, CELL),
    ("complex amp", GaussianKernel(1, _ENVELOPE.amp * np.exp(0.3j), _ENVELOPE.q_matrix), SQ, CELL),
    ("asymmetric box", _ENVELOPE, SQ, BoxCell([(-0.5, 0.6), (-0.7, 0.7)])),
    ("lone node", _kraus_pair(0.1, 0.2)[1], SQ, CELL),
    ("rectangular", _ENVELOPE, _RECTANGULAR, voronoi_box(_RECTANGULAR)),
    ("hexagonal box", _ENVELOPE, HEX, BoxCell.centered([1.5, 1.3])),
])
def test_box_maps_hold_only_where_their_images_are_exact(case, kernel, code, cell):
    # each kernel or cell turns some maps off: a linear term parity, the
    # reflections and the swap; a complex amp the swap and the reflections
    # (which conjugate it); a box whose p interval is not [-h, h] the flips
    # of p; a dephasing node without its -phi partner the reflections; a
    # dual basis that does not commute with diag(1, -1) the reflections,
    # while a rectangular code's box keeps every flip.  What is left of the
    # maps gives the count of images, and every value is the lone call's
    cf = ChannelCharFn.single(kernel)
    flips, taus, swaps = maps = _maps_of(cf, code, cell)
    held = {f: tau[0] == 0 for (f, _), tau in zip(flips, taus)}
    expect = {
        "linear": ({(1, 1): True, (1, -1): False, (-1, 1): False, (-1, -1): False}, False),
        "complex amp": ({(1, 1): True, (1, -1): False, (-1, 1): False, (-1, -1): True}, False),
        "asymmetric box": ({(1, 1): True, (1, -1): True}, True),
        "lone node": ({(1, 1): True, (1, -1): False, (-1, 1): False, (-1, -1): True}, True),
        "rectangular": ({(1, 1): True, (1, -1): True, (-1, 1): True, (-1, -1): True}, True),
        "hexagonal box": ({(1, 1): True, (-1, -1): True}, True),
    }[case]
    assert (held, swaps[0]) == expect
    window = TruncationSpec(1).window(2)
    calls, counts = _window_values(cf, code, cell, 1)
    assert counts["integrals"] == len(set(_orbit_oracle(maps, window).values()))
    assert (counts["images"] == 0) == (case == "linear")
    for _, s, t, value in calls:
        assert repr(box_cell_integral(kernel, code, cell, s, t)) == repr(value)


@pytest.mark.parametrize("cf, s_max, integrals, images", [
    (dephased_envelope_charfun(0.1, 10 ** (-10 / 20), nodes=64), 2, 5408, 34592),
    (envelope_charfun(10 ** (-10 / 20)), 3, 337, 2064),
    (compose(loss_charfun(0.01), envelope_charfun(10 ** (-10 / 20))), 3, 1201, 1200),
], ids=["dephasing64-S2", "envelope-S3", "loss-S3"])
def test_channel_meta_counts_integrals_and_images(cf, s_max, integrals, images):
    ch = logical_channel(SQ, CELL, cf, TruncationSpec(s_max))
    assert (ch.meta["integrals"], ch.meta["images"]) == (integrals, images)
    assert ch.meta["underflowed"] == 0
    pairs = len(TruncationSpec(s_max).window(2)) ** 2
    # the mpmath path and the slab rule integrate every (pair, term)
    env = envelope_charfun(10 ** (-10 / 20))
    for meta in (logical_channel(SQ, CELL, env, TruncationSpec(1), dps=20).meta,
                 logical_channel(HEX, HEX_CELL, env, TruncationSpec(1), quad_order=20).meta):
        assert (meta["integrals"], meta["images"]) == (81, 0)
    assert integrals + images == pairs * len(cf.terms)


def test_images_of_values_with_a_zero_part_have_the_bits_of_lone_calls():
    # at 25.2 dB many values are exact zeros, past the -745 cutoff or from a
    # product that underflows, whose signs the arithmetic leaves arbitrary
    # (-0.0 or 0.0 for a pair and its parity image); every zero part reads
    # +0.0, so images keep a lone call's bits
    cf = compose(loss_charfun(0.001), envelope_charfun(10 ** (-25.2 / 20)))
    calls, counts = _window_values(cf, SQ, CELL, 2)
    assert counts["images"] > 0
    values = [value for *_, value in calls]
    assert sum(v == 0 for v in values) > counts["integrals"] // 2  # underflowed, or past the cutoff
    assert not any(np.signbit(v.real) and v.real == 0 or np.signbit(v.imag) and v.imag == 0 for v in values)
    for _, s, t, value in calls:
        assert repr(box_cell_integral(cf.terms[0][1], SQ, CELL, s, t)) == repr(value)


def test_dephasing_maps_pair_each_node_with_its_mirror():
    flips, taus, swaps = _maps_of(dephased_envelope_charfun(0.1, 10 ** (-10 / 20), nodes=9))
    assert flips == (((1, 1), False), ((1, -1), True), ((-1, 1), True), ((-1, -1), False))
    assert taus == (tuple(range(9)), tuple(range(8, -1, -1)), tuple(range(8, -1, -1)), tuple(range(9)))
    assert all(swaps)
    flips, taus, swaps = _maps_of(compose(loss_charfun(0.01), envelope_charfun(10 ** (-10 / 20))))
    assert taus == ((0,), (-1,), (-1,), (0,)) and swaps == (False,)


@pytest.mark.parametrize("family", ["envelope", "loss", "displacement", "displacement alone", "dephasing"])
def test_restricted_forms_are_the_matrix_products(family):
    # the block sums of _restricted are J^T Q J, (2 J^T) Q and J^T L as
    # numpy multiplies them, to the last bit apart from the sign of a zero
    kernels = [_kernel(family, 12.0, 0.01, term) for term in range(8)]
    kernels = [k for k in kernels if k.kind == kernels[0].kind]
    _, _, qv, two_jq, jl, _ = logical._restricted(kernels)
    for k, kernel in enumerate(kernels):
        q, lin = kernel.q_matrix, kernel.linear
        j = np.vstack([np.eye(2), np.eye(2)]) if kernel.kind != DIAG_DELTA else np.eye(2)
        for got, expect in ((qv[k], j.T @ q @ j), (two_jq[k], 2 * j.T @ q), (jl[k], j.T @ lin)):
            assert (got + 0j).tobytes() == (expect + 0j).tobytes()


def test_distinct_factor_arguments_by_row_and_bits():
    # rows (term, coordinate) never share a factor, even where the largest
    # value of one row is the smallest of the next, and 0.0 and -0.0 stay apart
    x = np.array([[1 + 1j, 2 + 1j, 1 + 1j, 0j],
                  [2 + 1j, 3 + 1j, 3 + 1j, 2 + 1j],
                  [complex(-0.0, 0), 0j, complex(0, -0.0), 0j]])
    first, inverse = logical._distinct(x)
    keys = {(r, v.tobytes()) for r, row in enumerate(x) for v in row}
    assert len(first) == len(keys) == 8
    assert {(r, x[r, c].tobytes()) for r, c in zip(*np.divmod(first, x.shape[1]))} == keys
    assert x.ravel()[first][inverse].tobytes() == x.tobytes()


def test_box_term_that_overflows_in_the_middle_of_a_block_raises_alone_and_in_the_window(monkeypatch):
    # exp(b^2/4q) with b = 30, q = 0.02 is e^11250 for the middle term only;
    # the three terms share one block (the last term, the first one's twin,
    # is all images of it), and only a read of the middle term's elements
    # raises
    fine = envelope_charfun(10 ** (-10 / 20)).terms[0][1]
    bad = GaussianKernel(1, 1 + 0j, -0.01 * np.eye(4), np.array([30.0, 0, 0, 0]))
    cf = ChannelCharFn(1, [(0.5 + 0j, fine), (0.25 + 0j, bad), (0.25 + 0j, fine)])
    box, values = logical.box_cell_integral, logical._box_values
    reads, blocks = [], []

    def read(kernel, *args):
        reads.append(kernel)
        return box(kernel, *args)

    def built(q, amp, intervals, k, const, bv):
        blocks.append(sorted(set(k.tolist())))
        return values(q, amp, intervals, k, const, bv)

    monkeypatch.setattr(logical, "box_cell_integral", read)
    monkeypatch.setattr(logical, "_box_values", built)
    with pytest.raises(OverflowError, match="overflows double precision"):
        window_coefficients(SQ, CELL, cf, TruncationSpec(1))
    assert blocks == [[0, 1]] and len(reads) == 82 and all(k is fine for k in reads[:81]) and reads[81] is bad
    with pytest.raises(OverflowError, match="overflows double precision"):
        box(bad, SQ, CELL, (0, 0), (0, 0))
    assert np.isfinite(box(fine, SQ, CELL, (0, 0), (0, 0)))


# ---------------------------------------------------------------------------
# the per-label pieces of a pair's exponent


def _form_oracle(kernel, code, s, t):
    """(b_v, const) of c_{s,t}(v, v) by the per-pair matrix formula, or None
    off the diagonal of a DIAG_DELTA kernel."""
    q, lin = kernel.q_matrix, kernel.linear
    ls, lt = code.dual_vector(s), code.dual_vector(t)
    if kernel.kind == DIAG_DELTA:
        return (2 * q @ ls + lin, ls @ q @ ls + lin @ ls) if s == t else None
    n = kernel.n_modes
    j = np.vstack([np.eye(2 * n), np.eye(2 * n)])
    c0 = np.concatenate([ls, lt])
    return (2 * j.T @ q @ c0 + j.T @ lin + 1j * np.pi * (omega(n) @ (ls - lt)),
            c0 @ q @ c0 + lin @ c0)


def _kernel(family, delta_db, param, term):
    delta = 10 ** (-delta_db / 20)
    cf = {
        "envelope": lambda: envelope_charfun(delta),
        "loss": lambda: compose(loss_charfun(param), envelope_charfun(delta)),
        "displacement": lambda: compose(random_displacement_charfun(np.sqrt(param)), envelope_charfun(delta)),
        "displacement alone": lambda: random_displacement_charfun(np.sqrt(param)),
        "dephasing": lambda: dephased_envelope_charfun(np.sqrt(param), delta, nodes=8),
    }[family]()
    return cf.terms[term % len(cf.terms)][1]


_LABEL = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(family=st.sampled_from(["envelope", "loss", "displacement", "displacement alone", "dephasing"]),
       delta_db=st.floats(6, 26), param=st.floats(0.001, 0.05), term=st.integers(0, 7),
       hexagonal=st.booleans(), s=_LABEL, t=st.one_of(st.none(), _LABEL))
def test_pair_exponent_from_label_pieces_matches_per_pair_formula(family, delta_db, param, term,
                                                                  hexagonal, s, t):
    t = s if t is None else t  # the diagonal, where a DIAG_DELTA kernel lives
    kernel = _kernel(family, delta_db, param, term)
    code = HEX if hexagonal else SQ
    got, expect = _pair_form(kernel, code, s, t), _form_oracle(kernel, code, s, t)
    if expect is None:
        assert got is None
        return
    scale = max(np.max(np.abs(expect[0])), abs(expect[1]))
    assert np.max(np.abs(np.asarray(got[0]) - expect[0])) <= 1e-12 * scale
    assert abs(got[1] - expect[1]) <= 1e-12 * scale


@pytest.mark.parametrize("family", ["dephasing", "displacement alone"])
def test_lone_pair_forms_have_the_bits_of_a_window(family):
    # the const and b_v of a lone pair, of the window's set of pairs (which
    # window_coefficients gives every cell type) and of _pair_forms over the
    # pair alone are the same to the last bit
    kernel = _kernel(family, 18.0, 0.01, 5)
    window = TruncationSpec(2).window(2)
    together = logical._TermWork(kernel, HEX, HEX_CELL)
    together.window, together.lab = {s: i for i, s in enumerate(window)}, logical._label_vectors(HEX, window)
    for s in window:
        for t in window:
            alone = logical._TermWork(kernel, HEX, HEX_CELL)
            at, form = together.pair(s, t), _pair_form(kernel, HEX, s, t)
            assert alone.pair(s, t) == (None if at is None else 0) and (form is None) == (at is None)
            if at is not None:
                assert together.pairs[0] is None and alone.pairs[0] == (s, t)
                expect = [form[0].tobytes(), form[1].tobytes()]
                assert [together.pairs[2][:, at].tobytes(), together.pairs[1][at].tobytes()] == expect
                assert [alone.pairs[2][:, 0].tobytes(), alone.pairs[1][0].tobytes()] == expect


def _two_terms():
    """A two-term kernel: loss after the envelope, and the envelope alone."""
    env = envelope_charfun(10 ** (-10 / 20))
    return ChannelCharFn(1, [(0.5 + 0j, compose(loss_charfun(0.01), env).terms[0][1]),
                             (0.5 + 0j, env.terms[0][1])])


def test_window_memo_does_not_outlive_the_call(monkeypatch):
    cf = envelope_charfun(10 ** (-12 / 20))
    first, calls = _counted_window(monkeypatch, SQ, CELL, cf, TruncationSpec(1), dps=30)
    second, again = _counted_window(monkeypatch, SQ, CELL, cf, TruncationSpec(1), dps=30)
    assert calls == again and len(calls) == len(set(calls)) > 0
    assert first == second
    assert logical._TERM_WORK.get(None) is None
    # the quadrature path builds the nodes of each rule once per call and
    # kernel term, from slab geometry that a fresh cell builds once
    rules, geometry = [], []
    build, slabs = logical._cell_quadrature_points, VoronoiCell.slabs_2d

    def counted_rule(cell, order):
        rules.append(order)
        return build(cell, order)

    def recorded_slabs(cell):
        geometry.append(slabs(cell))
        return geometry[-1]

    two_terms = _two_terms()
    cell = VoronoiCell(HEX)
    with monkeypatch.context() as patch:
        patch.setattr(logical, "_cell_quadrature_points", counted_rule)
        patch.setattr(VoronoiCell, "slabs_2d", recorded_slabs)
        quad = [window_coefficients(HEX, cell, two_terms, TruncationSpec(1), quad_order=20)
                for _ in range(2)]
    assert rules == [20, 30] * 4
    assert len(geometry) == 8 and all(g is geometry[0] for g in geometry)
    assert quad[0] == quad[1]
    assert logical._TERM_WORK.get(None) is None

    def failing(*args, **kwargs):
        raise RuntimeError("cell integral failed")

    for name, code, cell in (("box_cell_integral", SQ, CELL), ("numeric_cell_integral", HEX, HEX_CELL)):
        monkeypatch.setattr(logical, name, failing)
        with pytest.raises(RuntimeError, match="cell integral failed"):
            window_coefficients(code, cell, cf, TruncationSpec(1))
        assert logical._TERM_WORK.get(None) is None


def test_shared_work_serves_only_its_own_kernel_and_cell(monkeypatch):
    # an integral that window_coefficients did not ask for, called while it
    # runs, on another kernel term or cell, computes its own form and rules
    cf = _two_terms()
    other = envelope_charfun(0.5).terms[0][1]
    sq_voronoi = VoronoiCell(SQ)
    pairs = [((1, 0), (0, -1)), ((0, 1), (1, 1))]
    alone = [(box_cell_integral(other, SQ, CELL, s, t),
              numeric_cell_integral(other, SQ, sq_voronoi, s, t, order=10),
              numeric_cell_integral(cf.terms[1][1], SQ, sq_voronoi, s, t, order=10)) for s, t in pairs]
    seen = []
    box = logical.box_cell_integral

    def meddling(kernel, code, cell, s, t, ctx=None):
        seen.append([(box(other, SQ, CELL, s, t),
                      numeric_cell_integral(other, SQ, sq_voronoi, s, t, order=10),
                      numeric_cell_integral(cf.terms[1][1], SQ, sq_voronoi, s, t, order=10))
                     for s, t in pairs])
        return box(kernel, code, cell, s, t, ctx)

    monkeypatch.setattr(logical, "box_cell_integral", meddling)
    window_coefficients(SQ, CELL, cf, TruncationSpec(0))
    assert seen == [alone] * 2


@pytest.mark.parametrize("cf", [_two_terms(), random_displacement_charfun(0.25)], ids=["full", "diag-delta"])
def test_bare_window_read_leaves_other_calls_to_the_lone_path(monkeypatch, cf):
    # between the window's calls, once their term's table is read bare: a
    # pair outside the S = 1 window, another kernel's pair and an mpmath call
    # each get the lone value to the last bit, and the bare read stays
    ctx = mp.MPContext()
    ctx.dps = 30
    other = envelope_charfun(0.5).terms[0][1]
    asked = [(k, s, t, None) for _, k in cf.terms for s, t in [((2, 0), (0, 0)), ((2, 0), (2, 0))]]
    asked += [(other, (1, 0), (0, -1), None), (cf.terms[-1][1], (1, 0), (1, 0), ctx)]
    alone = [repr(box_cell_integral(k, SQ, CELL, s, t, c)) for k, s, t, c in asked]
    seen, reads = [], []
    box = logical.box_cell_integral

    def meddling(kernel, code, cell, s, t, ctx=None):
        read = logical._TERM_WORK.get().read
        if read is not None:
            seen.append([repr(box(k, SQ, CELL, s, t, c)) for k, s, t, c in asked])
            reads.append(logical._TERM_WORK.get().read is read)
        return box(kernel, code, cell, s, t, ctx)

    monkeypatch.setattr(logical, "box_cell_integral", meddling)
    got, _ = window_coefficients(SQ, CELL, cf, TruncationSpec(1))
    monkeypatch.undo()
    assert len(seen) == len(cf.terms) * (81 - 1) and all(reads)
    assert all(values == alone for values in seen)
    expect = _per_pair_box_coefficients(cf, TruncationSpec(1), None)
    assert [(k, repr(v)) for k, v in got.items()] == [(k, repr(v)) for k, v in expect.items()]


def _per_pair_quadrature(cf, trunc, order):
    """window_coefficients' sums and quad_err on the hexagonal Voronoi cell,
    from numeric_cell_integral called per pair."""
    window = trunc.window(2)
    fold = {s: logical._fold(HEX.dims, s)[0] for s in window}
    out = {(s, t): 0j for s in window for t in window}
    quad_err = 0.0
    for w, kern in cf.terms:
        for s, t in out:
            val, err = numeric_cell_integral(kern, HEX, HEX_CELL, s, t, order=order)
            if fold[s] == fold[t] != 0:
                quad_err += abs(w) * err
            out[(s, t)] = out[(s, t)] + complex(w) * val
    return out, quad_err


@pytest.mark.parametrize("cf, s_max, order", [
    (envelope_charfun(10 ** (-10 / 20)), 1, 40),
    (compose(loss_charfun(0.01), dephased_envelope_charfun(0.1, 10 ** (-10 / 20), nodes=8)), 2, 10),
], ids=["envelope-S1", "loss-dephasing8-S2"])
def test_window_quadrature_is_bit_identical_to_per_pair_integrals(cf, s_max, order):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # every integral is resolved at this order
        got, trust = window_coefficients(HEX, HEX_CELL, cf, TruncationSpec(s_max), quad_order=order)
        expect, quad_err = _per_pair_quadrature(cf, TruncationSpec(s_max), order)
    assert [(k, repr(v)) for k, v in got.items()] == [(k, repr(v)) for k, v in expect.items()]
    assert trust == {"underflowed": 0, "quad_err": quad_err} and quad_err > 0


def _counted_y_factors(monkeypatch, call):
    """call() and the number of elements of every _gaussian_1d call it made."""
    elements = []
    factor = logical._gaussian_1d

    def counted(q, b, lo, hi):
        elements.append(np.broadcast(b, lo, hi).size)
        return factor(q, b, lo, hi)

    with monkeypatch.context() as patch:
        patch.setattr(logical, "_gaussian_1d", counted)
        return call(), elements


@pytest.mark.parametrize("cf", [
    envelope_charfun(10 ** (-10 / 20)), compose(loss_charfun(0.01), envelope_charfun(10 ** (-12 / 20))),
], ids=["envelope-10dB", "loss-12dB"])
def test_slab_window_computes_each_distinct_y_factor_once(monkeypatch, cf):
    # a pair's y factors depend on it only through b_1 = (b_v)_1, which many
    # pairs share exactly; the window computes one row of nodes per distinct
    # b_1, by its bits (so 0.0 and -0.0 stay apart), and a lone call just its own
    kernel = cf.terms[0][1]
    window = TruncationSpec(2).window(2)
    nodes = logical._TermWork(kernel, HEX, HEX_CELL).rule(40)[0].size
    distinct = {np.complex128(_pair_form(kernel, HEX, s, t)[0][1]).tobytes() for s in window for t in window}
    _, elements = _counted_y_factors(
        monkeypatch, lambda: window_coefficients(HEX, HEX_CELL, cf, TruncationSpec(2), quad_order=40))
    assert sum(elements) == len(distinct) * nodes
    assert 3 * sum(elements) < len(window) ** 2 * nodes
    assert max(elements) <= 16 * nodes  # in blocks of at most 16 rows
    _, elements = _counted_y_factors(
        monkeypatch, lambda: numeric_cell_integral(kernel, HEX, HEX_CELL, (1, -2), (0, 1), order=40))
    assert elements == [nodes]


# restricted to u = v, the first form couples v_1 and v_2 and the second grows
TILTED = np.array([[-1, 0.5, 0, 0], [0.5, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
GROWING = 0.1 * np.eye(4)


@pytest.mark.parametrize("q, match", [(TILTED, "not axis-aligned"), (GROWING, "not decaying")],
                         ids=["tilted", "growing"])
def test_box_checks_raise_from_the_window_on_the_first_pair(monkeypatch, q, match):
    cf = ChannelCharFn.single(GaussianKernel(1, 1.0 + 0j, q))
    calls = _record_box_calls(monkeypatch)
    with pytest.raises(ValueError, match=match):
        window_coefficients(SQ, CELL, cf, TruncationSpec(1))
    assert len(calls) == 1
    with pytest.raises(ValueError, match=match):
        box_cell_integral(cf.terms[0][1], SQ, CELL, (1, 0), (0, 1))


# ---------------------------------------------------------------------------
# logical channel assembly


def test_identity_channel_gives_identity_superop():
    ch = logical_channel(SQ, CELL, identity_charfun(1), TruncationSpec(1))
    assert np.max(np.abs(ch.matrix() - np.eye(4))) < 1e-14


def test_loss_on_ideal_codestate_raises():
    with pytest.raises(DecayViolationError, match="diagonal"):
        logical_channel(SQ, CELL, loss_charfun(0.05), TruncationSpec(1))


def _precheck_oracle(cf, code, s_max):
    """(worst relative modulus, shell s, tag) of the decay precheck, from
    GaussianKernel.evaluate called per term and probe."""
    r = max(16, 4 * (s_max + 1))
    zero = np.zeros(2 * code.n_modes)

    def probe(u, v, diagonal):
        return sum(abs(w * k.evaluate(u, v)) for w, k in cf.terms
                   if k.kind != POINT and (diagonal or k.kind != DIAG_DELTA))

    ref = max(probe(zero, zero, True), probe(zero, zero, False), 1e-300)
    worst = (0.0, None, None)
    for j in range(len(zero)):
        for sign in (+1, -1):
            s = np.zeros(len(zero), dtype=np.int64)
            s[j] = sign * r
            ls = code.dual_vector(s)
            for val, tag in ((probe(ls, zero, False), "off-diagonal"), (probe(ls, ls, True), "diagonal")):
                if val / ref > worst[0]:
                    worst = (val / ref, tuple(s.tolist()), tag)
    return worst


@pytest.mark.parametrize("cf, s_max", [
    (dephased_envelope_charfun(np.sqrt(0.02), 10 ** (-12 / 20)), 1),
    (dephased_envelope_charfun(np.sqrt(0.01), 10 ** (-10 / 20)), 1),
    (loss_charfun(0.05), 1),
    (random_displacement_charfun(10.0), 1),
    (compose(loss_charfun(0.01), envelope_charfun(10 ** (-10 / 20))), 5),
    (ChannelCharFn(1, random_displacement_charfun(0.25).terms + identity_charfun(1).terms
                   + envelope_charfun(0.5).terms), 1),
], ids=["dephasing-refused", "dephasing", "loss-refused", "displacement-refused", "loss", "mixed-kinds"])
def test_decay_precheck_evaluates_every_term_at_once(cf, s_max):
    # all terms at every probe as one array: the same verdict, shell and
    # relative modulus as evaluating each term at each probe
    worst, shell, tag = _precheck_oracle(cf, SQ, s_max)
    if worst <= logical.DECAY_THRESHOLD:
        logical._decay_precheck(cf, SQ, s_max)
        return
    with pytest.raises(DecayViolationError, match=f"on the {tag} shell s = {re.escape(str(shell))} ") as err:
        logical._decay_precheck(cf, SQ, s_max)
    assert float(str(err.value).split("modulus ")[1].split()[0]) == pytest.approx(worst, rel=2e-3)


def test_displacement_on_ideal_codestate_allowed():
    # the delta-kernel density decays, unlike loss
    ch = logical_channel(SQ, CELL, random_displacement_charfun(0.25), TruncationSpec(1))
    _, och = lowdin_orthonormalize(ch)
    assert 0 < 1 - average_gate_fidelity(och, warn=False) < 1


def test_envelope_infidelity_vanishes_at_30db():
    # App-H-regime limit: at Delta_dB = 30 the infidelity (2.2e-343) lies
    # below double precision; the float channel records that its
    # coefficients underflowed, which sends sweep rows to the mpmath fallback
    delta = 10 ** (-30 / 20)
    ch = logical_channel(SQ, CELL, envelope_charfun(delta), TruncationSpec(1))
    assert ch.meta["underflowed"] > 0
    _, och = lowdin_orthonormalize(ch)
    assert abs(1 - average_gate_fidelity(och, warn=False)) < 1e-12
    assert average_gate_infidelity(och) < 1e-300


def test_truncation_residual_monotone():
    # |F(s_max+1) - F(s_max)| decreases with s_max for the envelope family;
    # at Delta = 0.3 both residuals already sit below double epsilon, which
    # counts as (weakly) decreasing
    for delta in (0.3, 0.5, 0.94):
        fids = []
        for s_max in (1, 2, 3):
            ch = logical_channel(SQ, CELL, envelope_charfun(delta), TruncationSpec(s_max))
            _, och = lowdin_orthonormalize(ch)
            fids.append(average_gate_fidelity(och, warn=False))
        r1, r2 = abs(fids[1] - fids[0]), abs(fids[2] - fids[1])
        if r1 > 1e-15:
            assert r1 > r2
        else:
            assert r2 <= 1e-15


def test_coefficient_decay_is_exponential():
    # |coeff(s,t)| <= coeff(0,0) exp(-c (|s|^2 + |t|^2)) with fitted c > 0
    coeffs, trust = window_coefficients(SQ, CELL, envelope_charfun(0.5), TruncationSpec(2))
    assert trust == {"underflowed": 0, "quad_err": 0.0}
    c00 = abs(coeffs[((0, 0), (0, 0))])
    rates = []
    for (s, t), c in coeffs.items():
        r2 = np.sum(np.square(s)) + np.sum(np.square(t))
        if r2 > 0 and abs(c) > 0:
            rates.append(-np.log(abs(c) / c00) / r2)
    assert min(rates) > 0.1


def test_superop_hermitivity_and_output_hermiticity():
    ch = logical_channel(SQ, CELL, compose(loss_charfun(0.03), envelope_charfun(0.5)),
                         TruncationSpec(1))
    assert np.max(np.abs(ch.chi - ch.chi.conj().T)) < 1e-14  # Hermitian operators map to Hermitian ones
    rng = np.random.default_rng(0)
    for _ in range(5):
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = h + h.conj().T
        out = ch.apply(h)
        assert np.max(np.abs(out - out.conj().T)) < 1e-12


def test_pauli_matrix_conventions():
    # P(1,1) = e^{i pi/2} X Z = i X Z = Y
    y = pauli_matrix((2,), (1, 1))
    assert np.allclose(y, np.array([[0, -1j], [1j, 0]]))
    # negative powers wrap with the sign rule P(s1 + 2, s2) = (-1)^{s2} P(s1, s2)
    assert np.allclose(pauli_matrix((2,), (2, 1)), -pauli_matrix((2,), (0, 1)))
    # qutrit Paulis are unitary and traceless off the identity
    p = pauli_matrix((3,), (1, 2))
    assert np.allclose(p @ p.conj().T, np.eye(3))
    assert abs(np.trace(p)) < 1e-12


def test_highprec_matches_float_path():
    delta = 10 ** (-8 / 20)
    cf = compose(loss_charfun(0.01), envelope_charfun(delta))
    res = highprec_channel_analysis(cf, SQ, CELL, TruncationSpec(1), dps=40)
    ch = logical_channel(SQ, CELL, cf, TruncationSpec(1))
    _, och = lowdin_orthonormalize(ch)
    infid = 1 - average_gate_fidelity(och, warn=False)
    assert float(res["infidelity"]) == pytest.approx(infid, rel=1e-10)
    assert float(res["tp_defect"]) < 1e-12


def test_highprec_leaves_global_precision_alone():
    before = mp.mp.dps
    delta = 10 ** (-8 / 20)
    highprec_channel_analysis(envelope_charfun(delta), SQ, CELL, TruncationSpec(0), dps=40)
    assert mp.mp.dps == before
    with pytest.raises(DecayViolationError):
        highprec_channel_analysis(loss_charfun(0.05), SQ, CELL, TruncationSpec(1), dps=40)
    assert mp.mp.dps == before


def test_mpmath_backend_channel_runs_at_its_precision():
    # at 20 dB the infidelity (~1e-34) is lost in double precision; 60
    # digits resolve it through the shared float metrics
    delta = 10 ** (-20 / 20)
    ch = logical_channel(SQ, CELL, envelope_charfun(delta), TruncationSpec(1), dps=60)
    assert ch.chi.dtype == object
    _, och = lowdin_orthonormalize(ch)
    infid = 1 - average_gate_fidelity(och, warn=False)
    ref = highprec_channel_analysis(envelope_charfun(delta), SQ, CELL, TruncationSpec(1), dps=100)
    assert 0 < ref["infidelity"] < 1e-30
    assert abs(infid - ref["infidelity"]) < 1e-20 * ref["infidelity"]
    tp, choi = cptp_diagnostics(och)
    assert tp < 1e-50
    assert choi > -1e-50


def test_mpmath_backend_refuses_quadrature_cells():
    with pytest.raises(ValueError, match="box cells"):
        logical_channel(SQ, VoronoiCell(SQ), envelope_charfun(0.5), TruncationSpec(0),
                        dps=30)


# ---------------------------------------------------------------------------
# sweep channels: double precision, and dps 30 only when coefficients underflow


@pytest.mark.parametrize("noise", ["envelope", "loss"])
@pytest.mark.parametrize("delta_db", [20, 24, 27, 29])
def test_float_and_fallback_precision_agree(noise, delta_db):
    # the diagonal-sum infidelity keeps its relative precision in double
    # precision while it stays a normal number (down to ~1e-300)
    env = envelope_charfun(10 ** (-delta_db / 20))
    cf = env if noise == "envelope" else compose(loss_charfun(0.001), env)
    infid = {}
    for dps in (None, 30):
        _, och = lowdin_orthonormalize(logical_channel(SQ, CELL, cf, TruncationSpec(1), dps=dps))
        infid[dps] = average_gate_infidelity(och)
    assert 1e-300 < infid[30] < 1e-30
    assert abs(infid[None] - infid[30]) <= 1e-12 * infid[30]


@pytest.mark.parametrize("noise, delta_db, param", [
    ("loss", 12, 0.01), ("loss", 14, 0.01), ("envelope", 12, 0.0), ("displacement", 12, 0.001)])
def test_box_channel_matches_its_dps_40_rebuild(noise, delta_db, param):
    # these rows' 1D factors include small differences of erf values near 1,
    # which are erfc differences where both real parts pass 1/2; with the
    # switch at 4 the double-precision infidelity was up to 1.2e-9 (loss,
    # 14 dB) and 5.8e-11 (displacement) relative off
    cf = cli._build_charfun(noise, 10 ** (-delta_db / 20), param, 16)
    infid = {}
    for dps in (None, 40):
        _, och = lowdin_orthonormalize(logical_channel(SQ, CELL, cf, TruncationSpec(1), dps=dps))
        infid[dps] = average_gate_infidelity(och)
    assert abs(infid[None] - infid[40]) <= 1e-13 * infid[40]


def _record_box_calls(monkeypatch) -> list:
    calls = []
    box = logical.box_cell_integral

    def recorded(*args):
        calls.append(args)
        return box(*args)

    monkeypatch.setattr(logical, "box_cell_integral", recorded)
    return calls


def _record_channel_meta(monkeypatch) -> list:
    metas = []
    build = cli.logical_channel

    def recorded(*args, **kwargs):
        ch = build(*args, **kwargs)
        metas.append(dict(ch.meta))
        return ch

    monkeypatch.setattr(cli, "logical_channel", recorded)
    return metas


def test_zero_infidelity_alone_does_not_rerun(monkeypatch):
    # an S = 0 window holds only the identity class, so its infidelity is an
    # exact 0 with nothing underflowed; its S = 1 channel at 25.5 dB
    # underflows but its infidelity (4e-123) is far above RERUN_BELOW
    calls = _record_box_calls(monkeypatch)
    metas = _record_channel_meta(monkeypatch)
    row = cli.sweep_point("envelope", 25.5, 0.0, 0, 64)
    assert row["avg_gate_infidelity"] == 0
    assert len(calls) == 1 + 81
    assert [(m["dps"], m["underflowed"] > 0) for m in metas] == [(None, False), (None, True)]
    calls.clear()
    metas.clear()
    res = cli._analysis(envelope_charfun(10 ** (-30 / 20)), SQ, CELL, 0)
    assert res["infidelity"] == 0
    assert metas == [{"s_max": 0, "dps": None, "underflowed": 0, "quad_err": 0.0,
                      "quad_order": None, "integrals": 1, "images": 0}]
    assert len(calls) == 1


@pytest.mark.parametrize("delta_db", [29.5, 30])
def test_underflowed_channel_reruns_at_dps_30(monkeypatch, delta_db):
    # at 29.5 dB the double-precision value (2.8e-306) is still right but
    # lies below RERUN_BELOW; at 30 dB (2.2e-343) it underflows to 0
    metas = _record_channel_meta(monkeypatch)
    res = cli._analysis(envelope_charfun(10 ** (-delta_db / 20)), SQ, CELL, 1)
    assert [m["dps"] for m in metas] == [None, 30]
    assert metas[0]["underflowed"] > 0
    assert 0 < res["infidelity"] < cli.RERUN_BELOW
    tp_defect, min_choi_eig = cptp_diagnostics(res["channel"])
    assert tp_defect < 1e-25 and min_choi_eig >= -1e-25


def test_voronoi_channel_that_underflows_raises(monkeypatch):
    # the hexagonal code at 30 dB: quadrature coefficients underflow, and
    # mpmath integrates box cells only, so the row refuses instead of
    # printing an underflowed 0
    metas = _record_channel_meta(monkeypatch)
    hexc = hexagonal_code()
    with pytest.raises(ValueError, match="box cells"):
        cli.sweep_point("envelope", 30, 0.0, 0, 64, hexc, VoronoiCell(hexc))
    assert metas[-1]["quad_order"] == 40
    assert metas[-1]["underflowed"] > 0


@pytest.mark.parametrize("delta_db, sigma2", [(22, 1e-3), (26, 1e-4)])
def test_dephasing_rows_where_erf_overflows_match_mpmath(delta_db, sigma2):
    # these rows' 1D factors have |Im z| up to ~25, where the erf-difference
    # form overflowed and the -745 cutoff zeroed integrals that are not small
    # (1.3e-6 and 1.6e-5 relative off); the row needs no rerun, so the
    # double-precision value itself must be right
    cf = cli._build_charfun("dephasing", 10 ** (-delta_db / 20), sigma2, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = cli._analysis(cf, SQ, CELL, 1)
    ref = highprec_channel_analysis(cf, SQ, CELL, TruncationSpec(1), dps=40)["infidelity"]
    assert abs(res["infidelity"] - ref) <= 1e-12 * ref


@pytest.mark.parametrize("delta_db", [12, 20, 23, 26])
def test_voronoi_quadrature_matches_box_closed_form(monkeypatch, delta_db):
    # the square code's Voronoi cell is its box, integrated by the slab rule;
    # order 40 resolves it up to 20 dB, and at 26 dB the error estimate
    # sends the channel to order 80
    metas = _record_channel_meta(monkeypatch)
    cf = envelope_charfun(10 ** (-delta_db / 20))
    quad = cli._analysis(cf, SQ, VoronoiCell(SQ), 1)["infidelity"]
    assert metas[-1]["quad_order"] == 40 if delta_db <= 20 else metas[-1]["quad_order"] <= 80
    assert metas[-1]["quad_err"] <= cli.QUAD_REL_ERR * quad
    box = cli._analysis(cf, SQ, CELL, 1)["infidelity"]
    assert abs(quad - box) <= 1e-11 * box


def test_voronoi_dephasing_row_through_the_endpoint_form_matches_box(monkeypatch):
    # at 22 dB the dephasing terms' y factors grow past ERF_GROWTH_MAX on
    # some slab nodes, which take the Faddeeva endpoint form
    metas = _record_channel_meta(monkeypatch)
    endpoint_nodes = []
    factor = logical._gaussian_1d

    def counted(q, b, lo, hi):
        # b holds a block of y factors, one row each, against the nodes' lo and hi
        z1, z2 = (np.sqrt(q) * (y - b / (2 * q)) for y in (lo, hi))
        endpoint_nodes.extend(np.flatnonzero(np.maximum((-z1 * z1).real, (-z2 * z2).real)
                                             > logical.ERF_GROWTH_MAX))
        return factor(q, b, lo, hi)

    cf = cli._build_charfun("dephasing", 10 ** (-22 / 20), 1e-3, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with monkeypatch.context() as patch:
            patch.setattr(logical, "_gaussian_1d", counted)
            quad = cli._analysis(cf, SQ, VoronoiCell(SQ), 1)["infidelity"]
        box = cli._analysis(cf, SQ, CELL, 1)["infidelity"]
    assert endpoint_nodes
    assert [m["quad_order"] for m in metas] == [40, None]
    assert abs(quad - box) <= 1e-12 * box


def test_quadrature_row_keeps_its_first_order_when_resolved(monkeypatch):
    metas = _record_channel_meta(monkeypatch)
    hexc = hexagonal_code()
    cli.sweep_point("loss", 12, 0.01, 0, 64, hexc, VoronoiCell(hexc))
    assert len(metas) == 2
    assert [m["quad_order"] for m in metas] == [40, 40]
    assert metas[0]["quad_err"] == 0  # S = 0 has no non-identity pair
    assert 0 < metas[1]["quad_err"]


def test_unresolved_quadrature_row_raises(monkeypatch):
    monkeypatch.setattr(cli, "QUAD_ORDERS", (40,))
    with pytest.raises(ValueError, match="not converged at order 40"):
        cli._analysis(envelope_charfun(10 ** (-26 / 20)), SQ, VoronoiCell(SQ), 1)


def test_smax_residual_compares_resolved_infidelities():
    # at 18 dB 1 - F cancelled to 0 in both channels, so the residual was
    # 0 / 0; now both infidelities are resolved.  In the envelope row the
    # S = 2 shell lies e^-100 below the infidelity and the two channels
    # agree to every bit; a strong loss row shows the truncation
    row = cli.sweep_point("envelope", 18, 0.0, 1, 64)
    assert row["avg_gate_infidelity"] == pytest.approx(3.180572879600294736e-23, rel=1e-9)
    assert 0 <= row["smax_residual"] < 1e-6
    row = cli.sweep_point("loss", 18, 0.1, 1, 64)
    assert 0 < row["smax_residual"] < 1e-6


# ---------------------------------------------------------------------------
# chi-representation properties


def _dict_sum_matrix(dims, coeffs):
    """Oracle: the Pauli-pair superoperator sum_{s,t} c_{s,t} conj(P(t)) (x) P(s)."""
    d = int(np.prod(dims))
    out = np.zeros((d * d, d * d), dtype=complex)
    for (s, t), c in coeffs.items():
        out += c * np.kron(pauli_matrix(dims, t).conj(), pauli_matrix(dims, s))
    return out


@st.composite
def _pauli_pair_dicts(draw, hermitian=False):
    dims = draw(st.sampled_from([(2,), (3,), (2, 2)]))
    label = st.tuples(*[st.integers(-3, 3)] * (2 * len(dims)))
    coeff = st.builds(complex, st.floats(-1, 1), st.floats(-1, 1))
    coeffs = draw(st.dictionaries(st.tuples(label, label), coeff, min_size=1, max_size=8))
    if hermitian:
        keys = set(coeffs) | {(t, s) for s, t in coeffs}
        coeffs = {(s, t): (coeffs.get((s, t), 0) + np.conj(coeffs.get((t, s), 0))) / 2
                  for s, t in keys}
    return dims, coeffs


@settings(derandomize=True, deadline=None, max_examples=30)
@given(_pauli_pair_dicts())
def test_chi_fold_matches_pauli_pair_sum(case):
    dims, coeffs = case
    got = LogicalSuperop.from_pauli_pairs(dims, coeffs).matrix()
    assert np.max(np.abs(got - _dict_sum_matrix(dims, coeffs))) < 1e-12


def test_chi_fold_folds_each_label_once_in_sorted_pair_order(monkeypatch):
    coeffs, _ = window_coefficients(SQ, CELL, compose(loss_charfun(0.01), envelope_charfun(0.5)),
                                    TruncationSpec(2))
    expect = np.zeros((4, 4), dtype=complex)
    for (s, t), c in sorted(coeffs.items()):
        i, sign_s = logical._fold(SQ.dims, s)
        j, sign_t = logical._fold(SQ.dims, t)
        expect[i, j] += sign_s * sign_t * c
    folded = []
    fold = logical._fold

    def counted_fold(dims, s):
        folded.append(s)
        return fold(dims, s)

    monkeypatch.setattr(logical, "_fold", counted_fold)
    chi = LogicalSuperop.from_pauli_pairs(SQ.dims, dict(reversed(coeffs.items()))).chi
    assert sorted(folded) == sorted(TruncationSpec(2).window(2))
    assert chi.tobytes() == expect.tobytes()


def test_chi_fold_of_mpmath_coefficients_matches_the_loop():
    coeffs, _ = window_coefficients(SQ, CELL, envelope_charfun(10 ** (-26 / 20)), TruncationSpec(1), dps=30)
    expect = np.full((4, 4), 0 * coeffs[((0, 0), (0, 0))], dtype=object)
    for (s, t), c in sorted(coeffs.items()):
        i, sign_s = logical._fold(SQ.dims, s)
        j, sign_t = logical._fold(SQ.dims, t)
        expect[i, j] += sign_s * sign_t * c
    chi = LogicalSuperop.from_pauli_pairs(SQ.dims, dict(reversed(coeffs.items()))).chi
    assert chi.dtype == object and repr(chi.tolist()) == repr(expect.tolist())


@pytest.mark.parametrize("code, cell, cf, s_max, dps", [
    (SQ, CELL, dephased_envelope_charfun(0.1, 10 ** (-10 / 20), nodes=64), 2, None),
    (SQ, CELL, envelope_charfun(10 ** (-30 / 20)), 1, 30),
    (HEX, HEX_CELL, compose(loss_charfun(0.01), envelope_charfun(10 ** (-10 / 20))), 2, None),
], ids=["dephasing64", "30dB-dps30", "hex-loss"])
def test_window_chi_folds_as_from_pauli_pairs(code, cell, cf, s_max, dps):
    # logical_channel folds chi from the window's array; from_pauli_pairs
    # sorts the dict of the same coefficients into the same fold
    chi = logical_channel(code, cell, cf, TruncationSpec(s_max), dps=dps).chi
    coeffs, _ = window_coefficients(code, cell, cf, TruncationSpec(s_max), dps=dps)
    expect = LogicalSuperop.from_pauli_pairs(code.dims, coeffs).chi
    assert chi.dtype == expect.dtype == (complex if dps is None else object)
    assert [repr(c) for c in chi.ravel().tolist()] == [repr(c) for c in expect.ravel().tolist()]


@pytest.mark.parametrize("dims", [(2,), (3,)])
def test_pauli_basis_is_read_only_and_built_once(dims):
    basis = logical._pauli_basis(dims)
    ranges = [range(d) for d in dims] * 2
    assert basis.tobytes() == np.stack([pauli_matrix(dims, a) for a in itertools.product(*ranges)]).tobytes()
    assert not basis.flags.writeable and logical._pauli_basis(dims) is basis
    with pytest.raises(ValueError, match="read-only"):
        basis[0, 0, 0] = 0


@settings(derandomize=True, deadline=None, max_examples=30)
@given(_pauli_pair_dicts(), st.integers(0, 2 ** 32 - 1))
def test_conjugate_input_composes(case, seed):
    dims, coeffs = case
    d = int(np.prod(dims))
    rng = np.random.default_rng(seed)
    gamma = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    ch = LogicalSuperop.from_pauli_pairs(dims, coeffs)
    expect = ch.matrix() @ np.kron(gamma.conj(), gamma)
    assert np.max(np.abs(ch.conjugate_input(gamma).matrix() - expect)) < 1e-12 * max(1, np.max(np.abs(expect)))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(_pauli_pair_dicts(hermitian=True))
def test_hermitian_pairs_give_hermitian_chi(case):
    dims, coeffs = case
    chi = LogicalSuperop.from_pauli_pairs(dims, coeffs).chi
    assert np.max(np.abs(chi - chi.conj().T)) < 1e-14


@pytest.mark.parametrize("noise", ["envelope", "loss", "displacement"])
@settings(derandomize=True, deadline=None, max_examples=2)
@given(st.floats(10, 14))
def test_chi_does_not_depend_on_s_once_converged(noise, delta_db):
    # from 10 dB on, the S = 3 shell moves no chi entry by more than 1e-20
    # of itself; at 8 dB the smallest entries (~1e-28) still move by 1e-9
    env = envelope_charfun(10 ** (-delta_db / 20))
    cf = {"envelope": env, "loss": compose(loss_charfun(0.01), env),
          "displacement": compose(random_displacement_charfun(0.1), env)}[noise]
    chi2, chi3 = (logical_channel(SQ, CELL, cf, TruncationSpec(s)).chi for s in (2, 3))
    assert np.all(np.abs(chi2 - chi3) <= 1e-12 * np.abs(chi3))


@settings(derandomize=True, deadline=None, max_examples=5)
@given(st.floats(0.3, 0.8))
def test_lowdin_output_of_envelope_channel_is_tp(delta):
    ch = logical_channel(SQ, CELL, envelope_charfun(delta), TruncationSpec(1))
    _, och = lowdin_orthonormalize(ch)
    tp, _ = cptp_diagnostics(och)
    assert tp < 1e-12
