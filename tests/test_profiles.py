import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mtdirac.profiles import Profile1D, poly_bump, smooth_bump

bounds = st.tuples(
    st.floats(-5, 5, allow_nan=False), st.floats(0.2, 4.0, allow_nan=False)
).map(lambda p: (p[0], p[0] + p[1]))


@given(bounds)
def test_support_is_exact(b):
    lo, hi = b
    p = smooth_bump(lo, hi)
    x = np.array([lo - 1.0, lo, hi, hi + 1.0, lo - 1e-12])
    assert np.array_equal(p(x), np.zeros(5, dtype=complex))
    mid = 0.5 * (lo + hi)
    assert abs(p(mid)) == pytest.approx(1.0)


def test_peak_amplitude_and_momentum_modulation():
    p = smooth_bump(-1.0, 1.0, amplitude=2.0 - 1.0j, momentum=3.0)
    base = smooth_bump(-1.0, 1.0)
    x = np.linspace(-0.9, 0.9, 41)
    assert np.allclose(p(x), (2.0 - 1.0j) * np.exp(3.0j * x) * base(x))
    # modulation never changes the modulus
    assert np.allclose(np.abs(p(x)), np.abs(2.0 - 1.0j) * np.abs(base(x)))


def test_normalized_profile_has_unit_l2_norm():
    for p in (
        smooth_bump(-3.0, -1.0, normalize=True),
        poly_bump(0.5, 2.0, smoothness=3, momentum=-0.7, normalize=True),
    ):
        assert p.l2_norm() == pytest.approx(1.0, abs=1e-12)


def test_l2_norm_against_trapezoid():
    p = smooth_bump(-1.0, 2.0, amplitude=1.5, momentum=0.4)
    x = np.linspace(-1.0, 2.0, 200001)
    ref = np.sqrt(np.trapezoid(np.abs(p(x)) ** 2, x))
    assert p.l2_norm() == pytest.approx(ref, rel=1e-9)


def test_poly_bump_endpoint_smoothness():
    # C^k bump: derivatives up to order k vanish at the edge, order k+1 does not
    k = 2
    p = poly_bump(-1.0, 1.0, smoothness=k)
    h = 1e-3
    x0 = 1.0  # right endpoint

    def deriv(order):
        ks = np.arange(order + 1)
        coeff = (-1.0) ** ks * np.array(
            [math.comb(order, int(i)) for i in ks], dtype=float
        )
        pts = x0 + (order / 2.0 - ks) * h
        return float(np.real(np.sum(coeff * p(pts))) / h**order)

    for order in range(1, k + 1):
        assert abs(deriv(order)) < 1e-2
    assert abs(deriv(k + 1)) > 1.0


def test_zero_profile_cannot_be_normalized():
    z = Profile1D(fn=lambda x: np.zeros(x.shape, dtype=complex), lo=0.0, hi=1.0)
    with pytest.raises(ValueError):
        z.normalized()


def test_empty_support_rejected():
    with pytest.raises(ValueError):
        smooth_bump(1.0, 1.0)
    with pytest.raises(ValueError):
        poly_bump(0.0, 1.0, smoothness=-1)


def test_scaled_profile():
    p = smooth_bump(-1.0, 1.0)
    q = p.scaled(2.0j)
    x = np.linspace(-1.5, 1.5, 11)
    assert np.allclose(q(x), 2.0j * p(x))
    assert q.support() == p.support()


def test_gauss_panels_shares_one_read_only_rule_per_order():
    # leggauss runs once per order: every caller reads the same arrays,
    # which nobody can change under the others
    from mtdirac.profiles import _legendre, gauss_panels

    x, w = _legendre(8)
    assert _legendre(8)[0] is x and _legendre(8)[1] is w
    assert not (x.flags.writeable or w.flags.writeable)
    want_x, want_w = np.polynomial.legendre.leggauss(8)
    assert np.array_equal(x, want_x) and np.array_equal(w, want_w)
    nodes, weights = gauss_panels(np.array([0.0, 1.0, 3.0]), 8)
    assert np.array_equal(nodes[1], 2.0 + x) and np.array_equal(weights[1], w)
    assert nodes.flags.writeable and weights.flags.writeable  # the caller's own arrays
