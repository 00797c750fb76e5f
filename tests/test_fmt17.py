from fractions import Fraction

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from mtdirac import fmt17
from mtdirac.fmt17 import format17, join_rows


def _cells(x) -> list[bytes]:
    pool, start, length = format17(x)
    raw = pool.tobytes()
    return [raw[s : s + n] for s, n in zip(start.ravel().tolist(), length.ravel().tolist())]


def _want(x) -> list[bytes]:
    return [b"%.17g" % v for v in np.asarray(x, dtype=float).ravel().tolist()]


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
def test_format17_matches_python_on_any_float(values):
    x = np.array(values, dtype=float)
    assert _cells(x) == _want(x)


@given(st.lists(st.integers(0, 2**64 - 1), max_size=64))
def test_format17_matches_python_on_any_bit_pattern(words):
    x = np.array(words, dtype=np.uint64).view(np.float64)
    assert _cells(x) == _want(x)


def test_format17_edge_values():
    powers = [10.0**k for k in range(-300, 301)]
    edges = [
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        2.2250738585072014e-308,
        1.7976931348623157e308,
        float("nan"),
        float("inf"),
        -float("inf"),
        1e-5,  # %g switches to exponent notation below 1e-4
        1e-4,
        1e16,
        1e17,  # and from 1e17 on
        9.9999999999999998e16,
        0.1,
        0.3,
        1e-100,  # 3-digit exponents
        1.5e123,
        123456789012345.625,  # ties: Python's own formatting decides them
        0.5000000000000001,
        2.5,
        float(2**53 + 2),
    ]
    for bound in (1e-280, 1e280):  # the ends of the fast path
        edges += [bound, np.nextafter(bound, 0.0), np.nextafter(bound, np.inf)]
    for p in powers:
        edges += [p, np.nextafter(p, np.inf), np.nextafter(p, -np.inf)]
    x = np.array(edges)
    x = np.stack([x, -x])  # any shape
    assert _cells(x) == _want(x)


def test_format17_keeps_coordinates_off_the_fallback(monkeypatch):
    # values whose digits the double-double product cannot prove are
    # formatted by Python, ~1 us each; on coordinates that is rare
    handed = []

    def spy(values):
        handed.extend(values.tolist())
        return by_python(values)

    by_python = fmt17._by_python
    monkeypatch.setattr(fmt17, "_by_python", spy)
    x = np.random.default_rng(3).uniform(-3.25, 3.5, 2**16)
    assert _cells(x) == _want(x)
    assert len(handed) <= 1e-4 * x.size
    handed.clear()
    some = [0.0, -0.0, 1.5, np.nan, 1e300]
    assert _cells(some) == _want(some) and _want(some)[:3] == [b"0", b"-0", b"1.5"]
    assert np.isnan(handed[0]) and handed[1:] == [1e300]  # zeros are written directly


def test_a_decimal_exponent_off_by_one_is_caught():
    # floor(log10 |x|) may round across a power of ten.  At the wrong
    # exponent k the product y = x 10^(16 - k) must leave the band that
    # _digits accepts, unless its rounding still carries into the right
    # decade: y in (10^16 - 0.05, 10^17 + 0.5)
    for j in range(-279, 280):
        exact = Fraction(10) ** j
        above = below = 10.0**j
        while Fraction(above) <= exact:
            above = np.nextafter(above, np.inf)
        while Fraction(below) >= exact:
            below = np.nextafter(below, 0.0)
        for x, k in ((above, j - 1), (below, j)):
            y = Fraction(x) * Fraction(10) ** (16 - k)
            out = fmt17._outside(*fmt17._scaled(np.array([x]), np.array([k])))
            carries = 10**16 - Fraction(1, 20) < y < 10**17 + Fraction(1, 2)
            assert out[0][0] or out[1][0] or carries, (x, k)


def test_join_rows_lays_out_csv_lines():
    table = np.array([[1.5, -0.0, 2e-7], [np.nan, 3.0, -1e22]])
    pool, start, length = format17(table)
    length[1, 1] = 0  # an empty cell
    lines = [b",".join(row) + b"\n" for row in (_want(table[0]), [b"nan", b"", b"-1e+22"])]
    assert join_rows(pool, start, length) == b"".join(lines)
