import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkpsim.charfun import (
    FULL,
    ChannelCharFn,
    compose,
    dephased_envelope_charfun,
    envelope_charfun,
    gaussian_channel_charfun,
    identity_charfun,
    loss_charfun,
    random_displacement_charfun,
)
from gkpsim.symplectic import omega, rotation

from charfun_checks import (
    amplification_charfun,
    gaussian_unitary_charfun,
    hermitian_defect,
    trace_preservation_defect,
    transform_gaussian_state,
)

RNG = np.random.default_rng(42)


def _random_uv(scale=0.5):
    return RNG.normal(size=2) * scale, RNG.normal(size=2) * scale


# ---------------------------------------------------------------------------
# constructors


def test_rotation_unitary_charfun():
    # c(v) = exp(-(i pi / 2) cot(theta/2) |v|^2) / (2 sin(theta/2)) at theta = pi/2
    k = gaussian_unitary_charfun(rotation(np.pi / 2))
    for _ in range(10):
        v = RNG.normal(size=2) * 0.6
        expect = np.exp(-0.5j * np.pi / np.tan(np.pi / 4) * (v @ v)) / (2 * np.sin(np.pi / 4))
        assert k.evaluate(v, v) == pytest.approx(expect, abs=1e-14)


def test_rotation_pi_flat_exponent():
    # cot(pi/2) = 0 and det(R(pi) - I) = 4: constant kernel of height 1/2
    k = gaussian_unitary_charfun(rotation(np.pi))
    assert np.max(np.abs(k.q_matrix)) < 1e-14
    assert k.amp == pytest.approx(0.5)


def test_identity_unitary_raises():
    with pytest.raises(ValueError, match="factor"):
        gaussian_unitary_charfun(np.eye(2))


def test_unitary_channel_consistency():
    # N = 0, T = S: kernel equals c_S(u) c_S(v)^* pointwise
    s = rotation(0.7) @ np.diag([1.3, 1 / 1.3])
    k_u = gaussian_unitary_charfun(s)
    k_c = gaussian_channel_charfun(s, np.zeros((2, 2)))
    for _ in range(100):
        u, v = _random_uv()
        expect = k_u.evaluate(u, u) * np.conj(k_u.evaluate(v, v))
        assert abs(k_c.evaluate(u, v) - expect) < 1e-10 * abs(expect)


def test_loss_kernel_matches_closed_form():
    gamma = 0.13
    cf = loss_charfun(gamma)
    om = omega(1)
    coeff = (1 + np.sqrt(1 - gamma)) ** 2 / gamma
    pref = 1 / (1 - np.sqrt(1 - gamma)) ** 2
    for _ in range(20):
        u, v = _random_uv()
        expect = pref * np.exp(-np.pi / 2 * coeff * (np.sum((u - v) ** 2) + 2j * (u @ om @ v)))
        got = cf.evaluate(u, v)
        assert abs(got - expect) < 1e-12 * abs(expect)


def test_loss_width_scales_inversely_with_gamma():
    # gamma -> 0: c(u, u+eps) decay rate grows like 1/gamma (delta-like identity)
    u = np.array([0.2, -0.1])
    eps = np.array([0.05, 0.02])
    rates = []
    for gamma in (0.02, 0.002):
        cf = loss_charfun(gamma)
        rates.append(-np.log(abs(cf.evaluate(u, u + eps) / cf.evaluate(u, u))))
    assert rates[1] / rates[0] == pytest.approx(10.0, rel=0.05)


def test_envelope_values():
    delta = 1.0
    cf = envelope_charfun(delta)
    kappa = 1 / (1 - np.exp(-1.0))
    assert cf.evaluate(np.zeros(2), np.zeros(2)) == pytest.approx(kappa ** 2)
    # coth(1/2) = 2.163953413...
    coth = 1 / np.tanh(0.5)
    assert coth == pytest.approx(2.163953413, abs=1e-9)
    u = np.array([0.3, 0.1])
    expect = kappa ** 2 * np.exp(-np.pi / 2 * coth * (u @ u))
    assert cf.evaluate(u, np.zeros(2)) == pytest.approx(expect, rel=1e-12)


def test_envelope_large_delta_limit():
    # coth(Delta^2/2) -> 1
    cf = envelope_charfun(4.0)
    q = cf.terms[0][1].q_matrix
    assert np.allclose(np.diag(q)[:2], -np.pi / 2, atol=1e-10)


def test_envelope_domain_error():
    with pytest.raises(ValueError):
        envelope_charfun(-0.1)
    with pytest.raises(ValueError):
        envelope_charfun(0.0)


def test_parameter_range_errors():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            loss_charfun(bad)
    with pytest.raises(ValueError):
        amplification_charfun(0.9)
    with pytest.raises(ValueError):
        random_displacement_charfun(0.0)


def test_random_displacement_density():
    sigma = 0.37
    cf = random_displacement_charfun(sigma)
    for _ in range(20):
        u = RNG.normal(size=2) * 0.5
        expect = sigma ** -2 * np.exp(-np.pi * (u @ u) / sigma ** 2)
        assert cf.evaluate(u, u) == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------------------
# composition identities


def _pointwise_equal(c1, c2, n=100, tol=1e-10, scale=0.5, diagonal=False):
    for _ in range(n):
        u, v = _random_uv(scale)
        if diagonal:
            v = u
        a, b = c1.evaluate(u, v), c2.evaluate(u, v)
        if abs(a - b) > tol * max(1.0, abs(b)):
            return False
    return True


def test_loss_semigroup():
    g1, g2 = 0.07, 0.13
    lhs = compose(loss_charfun(g2), loss_charfun(g1))
    rhs = loss_charfun(1 - (1 - g1) * (1 - g2))
    assert _pointwise_equal(lhs, rhs, tol=1e-10)


def test_amplification_loss_equals_displacement():
    gamma = 0.2
    lhs = compose(amplification_charfun(1 / (1 - gamma)), loss_charfun(gamma))
    rhs = random_displacement_charfun(np.sqrt(gamma / (1 - gamma)))
    assert lhs.terms[0][1].kind == rhs.terms[0][1].kind == "diag_delta"
    assert _pointwise_equal(lhs, rhs, n=1000, tol=1e-10, diagonal=True)


def test_identity_composition():
    c = compose(loss_charfun(0.1), envelope_charfun(0.6))
    lhs = compose(identity_charfun(1), c)
    rhs = compose(c, identity_charfun(1))
    assert _pointwise_equal(lhs, c, tol=1e-12)
    assert _pointwise_equal(rhs, c, tol=1e-12)


def test_envelope_composition_adds_parameters():
    d1, d2 = 0.5, 0.7
    lhs = compose(envelope_charfun(d2), envelope_charfun(d1))
    rhs = envelope_charfun(np.sqrt(d1 ** 2 + d2 ** 2))
    assert _pointwise_equal(lhs, rhs, tol=1e-12)


def test_composition_associativity():
    a = loss_charfun(0.05)
    b = compose(loss_charfun(0.08), envelope_charfun(0.6))
    c = envelope_charfun(0.9)
    lhs = compose(a, compose(b, c))
    rhs = compose(compose(a, b), c)
    assert _pointwise_equal(lhs, rhs, tol=1e-10)


_FAMILIES = {
    "loss": lambda p: loss_charfun(0.05 + 0.25 * p),
    "displacement": lambda p: random_displacement_charfun(0.1 + 0.4 * p),
    "envelope": lambda p: envelope_charfun(0.3 + 0.7 * p),
}
_UNIT = st.floats(0, 1)
_SEED = st.integers(0, 2 ** 32 - 1)


def _assert_agree(lhs, rhs, seed, rel):
    """lhs and rhs agree to rel at 20 random points, taken on u = v when
    either holds a delta-constrained kernel."""
    rng = np.random.default_rng(seed)
    diagonal = any(k.kind != FULL for cf in (lhs, rhs) for _, k in cf.terms)
    for _ in range(20):
        u = rng.normal(size=2) * 0.5
        v = u if diagonal else rng.normal(size=2) * 0.5
        a, b = lhs.evaluate(u, v), rhs.evaluate(u, v)
        assert abs(a - b) <= rel * abs(b), (u, v, a, b)


@pytest.mark.parametrize("family", sorted(_FAMILIES))
@settings(derandomize=True, deadline=None, max_examples=10)
@given(_UNIT, _SEED)
def test_identity_is_neutral_on_either_side(family, p, seed):
    cf = _FAMILIES[family](p)
    _assert_agree(compose(identity_charfun(1), cf), cf, seed, 0.0)
    _assert_agree(compose(cf, identity_charfun(1)), cf, seed, 0.0)


@pytest.mark.parametrize("names", list(itertools.product(sorted(_FAMILIES), repeat=3)), ids="-".join)
@settings(derandomize=True, deadline=None, max_examples=5)
@given(st.tuples(_UNIT, _UNIT, _UNIT), _SEED)
def test_compose_is_associative_across_families(names, params, seed):
    # Pairs of (T, N)-tagged channels compose at the (T, N) level, everything
    # else by completing the square, so both paths meet here.  Loss rates
    # start at 5 %: T - I = (sqrt(1 - gamma) - 1) I puts about 1/gamma^2 into
    # the composed quadratic forms: with rates down to 1 % the two groupings
    # differed by up to 3e-10 relative, from 5 % on by at most 4e-12.
    a, b, c = (_FAMILIES[n](p) for n, p in zip(names, params))
    _assert_agree(compose(a, compose(b, c)), compose(compose(a, b), c), seed, 1e-10)


def test_displacement_after_envelope_against_quadrature():
    # closed-form delta-outer composition vs direct 2D quadrature at one point
    from scipy.integrate import dblquad

    ke = envelope_charfun(0.7)
    kd = random_displacement_charfun(np.sqrt(0.1 / 0.9))
    kc = compose(kd, ke)
    k1 = ke.terms[0][1]
    k2 = kd.terms[0][1]
    om = omega(1)
    u = np.array([0.31, -0.12])
    v = np.array([0.05, 0.44])

    def integrand(x, y):
        ut = np.array([x, y])
        return (np.exp(1j * np.pi * ((u - v) @ om @ ut)) * k2.amp
                * np.exp(ut @ k2.q_matrix @ ut) * k1.evaluate(u - ut, v - ut))

    re = dblquad(lambda y, x: integrand(x, y).real, -3, 3, -3, 3, epsabs=1e-12)[0]
    im = dblquad(lambda y, x: integrand(x, y).imag, -3, 3, -3, 3, epsabs=1e-12)[0]
    assert kc.evaluate(u, v) == pytest.approx(re + 1j * im, rel=1e-9)


# ---------------------------------------------------------------------------
# invariants


def test_hermitivity_of_channel_kernels():
    channels = [
        loss_charfun(0.1),
        amplification_charfun(1.4),
        random_displacement_charfun(0.3),
        compose(loss_charfun(0.1), envelope_charfun(0.5)),
        dephased_envelope_charfun(np.sqrt(1e-3), 0.5, 32),
    ]
    for cf in channels:
        assert hermitian_defect(cf, n_samples=1000) < 1e-12


def test_trace_preservation_spot_checks():
    for cf in (loss_charfun(0.1), amplification_charfun(1.3),
               random_displacement_charfun(0.25), identity_charfun(1)):
        assert trace_preservation_defect(cf) < 1e-12
    # the envelope map is not trace preserving
    assert trace_preservation_defect(envelope_charfun(0.5)) > 0.1


def test_gaussian_state_moment_transport():
    t = np.sqrt(1 - 0.2) * np.eye(2)
    n = np.array([[0.12, 0.03], [0.03, 0.09]])
    cf = ChannelCharFn.single(gaussian_channel_charfun(t, n))
    v0 = np.array([[0.8, 0.1], [0.1, 0.6]])
    mu0 = np.array([0.4, -0.2])
    mu1, v1, norm = transform_gaussian_state(cf, mu0, v0)
    assert np.allclose(v1, t @ v0 @ t.T + n, atol=1e-9)
    assert np.allclose(mu1, t @ mu0, atol=1e-9)
    assert norm == pytest.approx(1.0, abs=1e-9)
    # delta-kernel channel: V -> V + sigma^2 I
    cf = random_displacement_charfun(0.3)
    mu1, v1, norm = transform_gaussian_state(cf, mu0, v0)
    assert np.allclose(v1, v0 + 0.09 * np.eye(2), atol=1e-9)
    assert np.allclose(mu1, mu0, atol=1e-9)


def test_gaussian_channel_cptp_validation():
    with pytest.raises(ValueError, match="CPTP"):
        gaussian_channel_charfun(np.sqrt(0.8) * np.eye(2), np.zeros((2, 2)), check_cptp=True)
    gaussian_channel_charfun(np.sqrt(0.8) * np.eye(2), 0.1 * np.eye(2), check_cptp=True)


# ---------------------------------------------------------------------------
# dephased envelope quadrature family


def test_dephased_envelope_sigma_zero_reduces_to_envelope():
    cf = dephased_envelope_charfun(0.0, 0.5)
    assert len(cf) == 1
    assert _pointwise_equal(cf, envelope_charfun(0.5), tol=1e-13)


def test_dephased_envelope_node_values():
    # Gauss-Hermite node x, weight w: phi = sqrt(2) sigma x, term weight w / sqrt(pi),
    # prefactor 1/|1 - e^{-Delta^2 + i phi}|^2, quadratic coth((Delta^2 - i phi)/2)
    delta, sigma = 0.5, 0.05
    cf = dephased_envelope_charfun(sigma, delta, nodes=16)
    xs, ws = np.polynomial.hermite.hermgauss(16)
    assert len(cf.terms) == 16
    for (weight, kern), x, w in zip(cf.terms, xs, ws):
        assert weight == pytest.approx(w / np.sqrt(np.pi), rel=1e-12)
        z = delta ** 2 - 1j * np.sqrt(2) * sigma * x
        assert kern.amp == pytest.approx(1 / abs(1 - np.exp(-z)) ** 2, rel=1e-12)
        assert kern.q_matrix[0, 0] == pytest.approx(-np.pi / 2 / np.tanh(z / 2), rel=1e-12)


def test_dephased_envelope_quadrature_convergence():
    delta = 10 ** -0.5  # 10 dB
    sigma = np.sqrt(1e-3)
    c32 = dephased_envelope_charfun(sigma, delta, 32)
    c64 = dephased_envelope_charfun(sigma, delta, 64)
    for _ in range(50):
        u, v = _random_uv(0.4)
        a, b = c32.evaluate(u, v), c64.evaluate(u, v)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(b))


def test_dephased_envelope_node_floor():
    with pytest.raises(ValueError):
        dephased_envelope_charfun(0.1, 0.5, nodes=4)

