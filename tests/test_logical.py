import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad
from scipy.special import erf as _scipy_erf

from gkpsim.charfun import (
    DIAG_DELTA,
    ChannelCharFn,
    GaussianKernel,
    compose,
    dephased_envelope_charfun,
    envelope_charfun,
    identity_charfun,
    loss_charfun,
    random_displacement_charfun,
)
from gkpsim import cli, logical
from gkpsim.lattice import GkpCode, VoronoiCell, hexagonal_code, square_code, voronoi_box
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


def _erf(z):
    # erf(z) = erf(z) - erf(0), by the double-precision erf difference
    return logical._erf_diff(None, 0, z)


def test_complex_erf_examples():
    assert _erf(0.0) == 0.0
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
    assert _erf(40 + 0.5j) == 1.0
    assert _erf(-40 - 0.5j) == -1.0
    assert logical._erf_diff(None, -40 - 0.5j, 40 + 0.5j) == 2


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


def _coeff_quadrature(kernel, s, t):
    work = logical._TermWork(kernel, SQ, CELL)
    qv = work.restricted[0]
    bv, const = work.form(s, t)
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
    # z = sqrt(q) (x - b/2q) = 0.1 x - 5 b has Im z = -30 and |Re z| <= 15,
    # so erf(z) grows like e^675 or more and the erf-difference form would
    # overflow in a product of coordinates; the endpoint form keeps a
    # finite prefactor.  Re b puts Re z right of 0, across it and left of
    # it on the interval (the three branches of _endpoint_parts)
    q, b, lo, hi = 0.01, complex(re_b, 6.0), -0.35, 0.35
    exponent, pref = logical._gaussian_1d_parts(None, q, b, lo, hi, {})
    assert abs(pref) < 1e3
    ctx = mp.MPContext()
    ctx.dps = 30
    exact = ctx.quad(lambda x: ctx.exp(-q * x * x + ctx.mpc(b) * x), [lo, hi])
    got = pref * np.exp(exponent)
    assert abs(got - complex(exact)) <= 1e-13 * abs(complex(exact))


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


@settings(derandomize=True, deadline=None, max_examples=100)
@given(theta=st.floats(0, 2 * np.pi), squeeze=st.floats(-1, 1), shear=st.floats(-1.5, 1.5),
       d=st.integers(1, 3), coeffs=st.lists(st.floats(-2, 2), min_size=6, max_size=6))
def test_voronoi_polygon_and_rule_on_random_codes(theta, squeeze, shear, d, coeffs):
    sigma = rotation(theta) @ np.diag([np.exp(squeeze), np.exp(-squeeze)]) @ [[1, shear], [0, 1]]
    code = GkpCode(sigma, (d,))
    # a coset minimum is at most sqrt(2) sigma_max, and radius 17 proves it while
    # sigma_max / sigma_min < 35 / sqrt(2); these Sigma stay below 24.2
    cell = VoronoiCell(code, radius=17)
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
    # order 3 already integrates a quadratic exactly, so orders 3 and 12 agree
    c0, b0, b1, q00, q01, q11 = coeffs
    integrals = []
    for order in (3, 12):
        pts, wts = logical._cell_quadrature_points(cell, order)
        assert abs(wts.sum() - area) <= 1e-12
        assert all(cell.contains(p, tol=1e-9) for p in pts)
        x, y = pts.T
        integrals.append((c0 + b0 * x + b1 * y + q00 * x * x + q01 * x * y + q11 * y * y) @ wts)
    assert abs(integrals[0] - integrals[1]) <= 1e-12 * max(1.0, abs(integrals[1]))


# ---------------------------------------------------------------------------
# the 1D factors that window_coefficients shares between pairs


def _counted_window(monkeypatch, *args, **kwargs):
    """window_coefficients(*args, **kwargs) with its work recorded: (coefficients,
    erf differences computed, (q, b, lo, hi) of every 1D factor requested)."""
    erf_diffs, keys = [], []
    erf_diff, parts = logical._erf_diff, logical._gaussian_1d_parts

    def counted_erf_diff(*a):
        erf_diffs.append(a)
        return erf_diff(*a)

    def recorded_parts(ctx, q, b, lo, hi, memo):
        keys.append((complex(q), complex(b), float(lo), float(hi)))
        return parts(ctx, q, b, lo, hi, memo)

    with monkeypatch.context() as patch:
        patch.setattr(logical, "_erf_diff", counted_erf_diff)
        patch.setattr(logical, "_gaussian_1d_parts", recorded_parts)
        coeffs, _ = window_coefficients(*args, **kwargs)
    return coeffs, len(erf_diffs), keys


def _memo_free_coefficients(cf, trunc, ctx):
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
    delta = 10 ** (-26 / 20)
    _, erf_diffs, keys = _counted_window(monkeypatch, SQ, CELL, envelope_charfun(delta),
                                         TruncationSpec(2), dps=suggest_dps(delta))
    assert len(keys) == 2 * 25 ** 2
    assert erf_diffs == len(set(keys))
    assert erf_diffs < len(keys) / 5


def test_window_coefficients_are_bit_identical_to_per_pair_integrals():
    delta = 10 ** (-26 / 20)
    dps = suggest_dps(delta)
    got, _ = window_coefficients(SQ, CELL, envelope_charfun(delta), TruncationSpec(1), dps=dps)
    ctx = mp.MPContext()
    ctx.dps = dps
    expect = _memo_free_coefficients(envelope_charfun(delta), TruncationSpec(1), ctx)
    assert list(got) == list(expect)
    assert all(got[k].real == expect[k].real and got[k].imag == expect[k].imag for k in got)
    # float path, several kernel terms, a larger window
    cf = compose(loss_charfun(0.01), dephased_envelope_charfun(0.1, 10 ** (-10 / 20), nodes=8))
    got, _ = window_coefficients(SQ, CELL, cf, TruncationSpec(2))
    expect = _memo_free_coefficients(cf, TruncationSpec(2), None)
    assert [(k, repr(v)) for k, v in got.items()] == [(k, repr(v)) for k, v in expect.items()]


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
    code, cell = (HEX, HEX_CELL) if hexagonal else (SQ, CELL)
    work = logical._TermWork(kernel, code, cell)
    work.prime(TruncationSpec(2).window(2))
    got, expect = work.form(s, t), _form_oracle(kernel, code, s, t)
    if expect is None:
        assert got is None
        return
    scale = max(np.max(np.abs(expect[0])), abs(expect[1]))
    assert np.max(np.abs(np.asarray(got[0]) - expect[0])) <= 1e-12 * scale
    assert abs(got[1] - expect[1]) <= 1e-12 * scale


@pytest.mark.parametrize("family", ["dephasing", "displacement alone"])
def test_label_primed_alone_has_the_bits_of_a_window(family):
    kernel = _kernel(family, 18.0, 0.01, 5)
    window = TruncationSpec(2).window(2)
    together = logical._TermWork(kernel, HEX, HEX_CELL)
    together.prime(window)
    for s in window:
        alone = logical._TermWork(kernel, HEX, HEX_CELL)
        alone.prime([s])
        assert repr(alone.pieces[s]) == repr(together.pieces[s])


def _two_terms():
    """A two-term kernel: loss after the envelope, and the envelope alone."""
    env = envelope_charfun(10 ** (-10 / 20))
    return ChannelCharFn(1, [(0.5 + 0j, compose(loss_charfun(0.01), env).terms[0][1]),
                             (0.5 + 0j, env.terms[0][1])])


def test_window_memo_does_not_outlive_the_call(monkeypatch):
    cf = envelope_charfun(10 ** (-12 / 20))
    first, erf_first, keys = _counted_window(monkeypatch, SQ, CELL, cf, TruncationSpec(1), dps=30)
    second, erf_second, _ = _counted_window(monkeypatch, SQ, CELL, cf, TruncationSpec(1), dps=30)
    assert erf_first == erf_second == len(set(keys)) > 0
    assert first == second
    assert logical._TERM_WORK.get(None) is None
    # the quadrature path builds each rule once per call and kernel term
    rules = []
    build = logical._cell_quadrature_points

    def counted_rule(cell, order):
        rules.append(order)
        return build(cell, order)

    two_terms = _two_terms()
    with monkeypatch.context() as patch:
        patch.setattr(logical, "_cell_quadrature_points", counted_rule)
        quad = [window_coefficients(HEX, HEX_CELL, two_terms, TruncationSpec(1), quad_order=20)
                for _ in range(2)]
    assert rules == [20, 30] * 4
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
    assert ch.hermitivity_defect() < 1e-14
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
    assert metas == [{"s_max": 0, "dps": None, "underflowed": 0, "quad_err": 0.0}]
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


def test_voronoi_channel_that_underflows_raises():
    # the hexagonal code at 30 dB: quadrature coefficients underflow, and
    # mpmath integrates box cells only, so the row refuses instead of
    # printing an underflowed 0
    hexc = hexagonal_code()
    with pytest.warns(UserWarning, match="cell quadrature not converged.* at order 40"):
        with pytest.raises(ValueError, match="box cells"):
            cli.sweep_point("envelope", 30, 0.0, 0, 64, hexc, VoronoiCell(hexc))


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


@pytest.mark.parametrize("delta_db", [20, 26])
def test_voronoi_quadrature_matches_box_closed_form(monkeypatch, delta_db):
    # the square code's Voronoi cell is its box, integrated by quadrature;
    # at 26 dB order 40 is 2e-5 relative off, and the error estimate sends
    # the channel to higher orders until it is resolved
    metas = _record_channel_meta(monkeypatch)
    cf = envelope_charfun(10 ** (-delta_db / 20))
    quad = cli._analysis(cf, SQ, VoronoiCell(SQ), 1)["infidelity"]
    assert len(metas) > 1
    assert metas[-1]["quad_err"] <= cli.QUAD_REL_ERR * quad
    box = cli._analysis(cf, SQ, CELL, 1)["infidelity"]
    assert abs(quad - box) <= 1e-9 * box


def test_quadrature_row_keeps_its_first_order_when_resolved(monkeypatch):
    metas = _record_channel_meta(monkeypatch)
    hexc = hexagonal_code()
    cli.sweep_point("loss", 12, 0.01, 0, 64, hexc, VoronoiCell(hexc))
    assert len(metas) == 2
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
