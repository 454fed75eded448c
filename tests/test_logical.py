import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad
from scipy.special import erf as _scipy_erf

from gkpsim.charfun import (
    compose,
    dephased_envelope_charfun,
    envelope_charfun,
    identity_charfun,
    loss_charfun,
    random_displacement_charfun,
)
from gkpsim import logical
from gkpsim.lattice import VoronoiCell, hexagonal_code, square_code, voronoi_box
from gkpsim.logical import (
    DecayViolationError,
    LogicalSuperop,
    TruncationSpec,
    box_cell_integral,
    complex_erf,
    highprec_channel_analysis,
    logical_channel,
    numeric_cell_integral,
    pauli_matrix,
    suggest_dps,
    window_coefficients,
)
from gkpsim.metrics import average_gate_fidelity, cptp_diagnostics, lowdin_orthonormalize

SQ = square_code()
CELL = voronoi_box(SQ)


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


def test_complex_erf_examples():
    assert complex_erf(0.0) == 0.0
    assert complex_erf(1.0) == pytest.approx(_erf_series(1.0), abs=1e-13)
    assert complex_erf(1.0) == pytest.approx(0.8427007929497149, abs=1e-14)
    val = complex_erf(1j)
    assert val.real == pytest.approx(0.0, abs=1e-14)
    assert val.imag == pytest.approx(1.6504257587975429, abs=1e-12)
    assert val == pytest.approx(_erf_series(1j), abs=1e-12)


def test_complex_erf_strip_accuracy():
    # the Maclaurin oracle itself cancels catastrophically beyond |z| ~ 3,
    # so the comparison stays inside that disc
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = complex(rng.uniform(-1.8, 1.8), rng.uniform(-1.8, 1.8))
        assert abs(complex_erf(z) - _erf_series(z, 80)) < 1e-13 * max(1, abs(_erf_series(z, 80)))


def test_complex_erf_huge_real_asymptote():
    assert complex_erf(40 + 0.5j) == 1.0
    assert complex_erf(-40 - 0.5j) == -1.0


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
    from gkpsim.logical import _diag_quadratic

    qv, bv, const = _diag_quadratic(kernel, SQ, s, t)
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

    def recorded_parts(ctx, q, b, lo, hi):
        keys.append((complex(q), complex(b), float(lo), float(hi)))
        return parts(ctx, q, b, lo, hi)

    with monkeypatch.context() as patch:
        patch.setattr(logical, "_erf_diff", counted_erf_diff)
        patch.setattr(logical, "_gaussian_1d_parts", recorded_parts)
        coeffs = window_coefficients(*args, **kwargs)
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
    got = window_coefficients(SQ, CELL, envelope_charfun(delta), TruncationSpec(1), dps=dps)
    ctx = mp.MPContext()
    ctx.dps = dps
    expect = _memo_free_coefficients(envelope_charfun(delta), TruncationSpec(1), ctx)
    assert list(got) == list(expect)
    assert all(got[k].real == expect[k].real and got[k].imag == expect[k].imag for k in got)
    # float path, several kernel terms, a larger window
    cf = compose(loss_charfun(0.01), dephased_envelope_charfun(0.1, 10 ** (-10 / 20), nodes=8))
    got = window_coefficients(SQ, CELL, cf, TruncationSpec(2))
    expect = _memo_free_coefficients(cf, TruncationSpec(2), None)
    assert [(k, repr(v)) for k, v in got.items()] == [(k, repr(v)) for k, v in expect.items()]


def test_window_memo_does_not_outlive_the_call(monkeypatch):
    cf = envelope_charfun(10 ** (-12 / 20))
    first, erf_first, keys = _counted_window(monkeypatch, SQ, CELL, cf, TruncationSpec(1), dps=30)
    second, erf_second, _ = _counted_window(monkeypatch, SQ, CELL, cf, TruncationSpec(1), dps=30)
    assert erf_first == erf_second == len(set(keys)) > 0
    assert first == second
    assert logical._FACTORS.get(None) is None

    def failing_box(*args):
        raise RuntimeError("box integral failed")

    monkeypatch.setattr(logical, "box_cell_integral", failing_box)
    with pytest.raises(RuntimeError, match="box integral failed"):
        window_coefficients(SQ, CELL, cf, TruncationSpec(1))
    assert logical._FACTORS.get(None) is None


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
    # App-H-regime limit: at Delta_dB = 30 the float path underflows to zero
    delta = 10 ** (-30 / 20)
    ch = logical_channel(SQ, CELL, envelope_charfun(delta), TruncationSpec(1))
    _, och = lowdin_orthonormalize(ch)
    assert abs(1 - average_gate_fidelity(och, warn=False)) < 1e-12


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
    coeffs = window_coefficients(SQ, CELL, envelope_charfun(0.5), TruncationSpec(2))
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
