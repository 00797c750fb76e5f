"""Scalar reference evaluator used as an independent oracle in tests.

Walks each spinor component back along its pair of characteristic lines,
one configuration at a time, with plain Python arithmetic.  Components 1
and 4 always land on the initial slice.  Components 2 and 3 land either on
the initial slice or on the coincidence set, where the value is the phase
jump applied to the partner component's initial datum.  No code is shared
with the vectorized evaluator beyond the scenario container itself.
"""

import cmath


def _theta(phase, t, z):
    return phase.value if phase.fn is None else float(phase.fn(t, z))


def _g(component, x, y):
    return complex(component(x, y))


def reference_value(s, t1, z1, t2, z2):
    """All four component values at one space-like configuration."""
    x1m = z1 - t1
    x1p = z1 + t1
    x2m = z2 - t2
    x2p = z2 + t2
    if z1 < z2:
        g1, g2, g3, g4 = s.initial.half1
        theta = s.phase.theta1
        sign = -1.0
    else:
        g1, g2, g3, g4 = s.initial.half2
        theta = s.phase.theta2
        sign = 1.0

    psi1 = _g(g1, x1m, x2m)
    psi4 = _g(g4, x1p, x2p)

    if sign * (x1m - x2p) <= 0.0:
        tc = 0.5 * (x2p - x1m)
        zc = 0.5 * (x2p + x1m)
        psi2 = cmath.exp(-1j * _theta(theta, tc, zc)) * _g(g3, x2p, x1m)
    else:
        psi2 = _g(g2, x1m, x2p)

    if sign * (x1p - x2m) <= 0.0:
        tc = 0.5 * (x1p - x2m)
        zc = 0.5 * (x1p + x2m)
        psi3 = cmath.exp(1j * _theta(theta, tc, zc)) * _g(g2, x2m, x1p)
    else:
        psi3 = _g(g3, x1p, x2m)

    return psi1, psi2, psi3, psi4
