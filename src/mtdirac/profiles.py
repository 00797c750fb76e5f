"""Compactly supported amplitude profiles used to build initial data.

A Profile1D is a complex-valued function of one real variable that is
exactly zero outside a closed interval [lo, hi].  Exact vanishing (not
just numerical smallness) matters: it is what makes truncation of the
normalization integrals lossless.

Shapes:
  * smooth_bump: exp(1 - 1/(1 - u^2)) on the rescaled interval, C-infinity.
  * poly_bump:   (1 - u^2)^(k+1), C^k at the endpoints.

Either can carry a plane-wave modulation exp(i q x) and a complex
amplitude, and can be L2-normalized by quadrature.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

Complex1D = Callable[[np.ndarray], np.ndarray]


def within(x, interval) -> np.ndarray:
    """Where lo < x < hi for interval (lo, hi): the open support test."""
    lo, hi = interval
    return (x > lo) & (x < hi)


@dataclass(frozen=True, eq=False)
class Profile1D:
    """One-variable complex profile vanishing exactly outside [lo, hi]."""

    fn: Complex1D
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"empty support [{self.lo}, {self.hi}]")

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=complex)
        inside = self.inside(x)
        if np.any(inside):
            out[inside] = self.fn(x[inside])
        return out

    def inside(self, x: np.ndarray) -> np.ndarray:
        """Where the profile may be nonzero: the open support lo < x < hi."""
        return within(x, (self.lo, self.hi))

    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def l2_norm(self) -> float:
        """L2 norm by composite Gauss-Legendre quadrature on the support."""
        x, w = gauss_panels(np.linspace(self.lo, self.hi, 81), order=10)
        v = self(x.ravel())
        return float(np.sqrt(np.sum(w.ravel() * (v.real**2 + v.imag**2))))

    def scaled(self, factor: complex) -> "Profile1D":
        fn = self.fn
        return Profile1D(fn=lambda x: factor * fn(x), lo=self.lo, hi=self.hi)

    def normalized(self) -> "Profile1D":
        n = self.l2_norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero profile")
        return self.scaled(1.0 / n)


@functools.cache
def _legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Legendre rule of order on [-1, 1], read-only: every caller shares it."""
    rule = np.polynomial.legendre.leggauss(order)
    for a in rule:
        a.flags.writeable = False
    return rule


def gauss_panels(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on each panel between consecutive
    edges, both of shape (panels, order)."""
    x, w = _legendre(order)
    a = edges[:-1, None]
    b = edges[1:, None]
    return 0.5 * (a + b) + 0.5 * (b - a) * x[None, :], 0.5 * (b - a) * w[None, :]


def unit_bump(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mask |u| < 1 and exp(1 - 1/(1 - u^2)) at its points: the
    C-infinity bump on [-1, 1], zero elsewhere."""
    inner = np.abs(u) < 1.0
    ui = u[inner]
    return inner, np.exp(1.0 - 1.0 / (1.0 - ui * ui))


def smooth_bump(
    lo: float,
    hi: float,
    amplitude: complex = 1.0,
    momentum: float = 0.0,
    normalize: bool = False,
) -> Profile1D:
    """C-infinity bump exp(1 - 1/(1-u^2)) on [lo, hi], peak value `amplitude` at center."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)

    def fn(x: np.ndarray) -> np.ndarray:
        out = np.zeros(x.shape, dtype=complex)
        inner, v = unit_bump((x - center) / half)
        out[inner] = v
        if momentum != 0.0:
            out[inner] *= np.exp(1j * momentum * x[inner])
        return amplitude * out

    p = Profile1D(fn=fn, lo=lo, hi=hi)
    return p.normalized() if normalize else p


def poly_bump(
    lo: float,
    hi: float,
    smoothness: int = 2,
    amplitude: complex = 1.0,
    momentum: float = 0.0,
    normalize: bool = False,
) -> Profile1D:
    """Polynomial bump (1-u^2)^(k+1) on [lo, hi]; C^k across the endpoints."""
    if smoothness < 0:
        raise ValueError("smoothness must be >= 0")
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    power = smoothness + 1

    def fn(x: np.ndarray) -> np.ndarray:
        u = (x - center) / half
        out = np.where(np.abs(u) < 1.0, (1.0 - u * u) ** power, 0.0).astype(complex)
        if momentum != 0.0:
            out = out * np.exp(1j * momentum * x)
        return amplitude * out

    p = Profile1D(fn=fn, lo=lo, hi=hi)
    return p.normalized() if normalize else p
