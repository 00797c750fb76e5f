"""Configuration-space geometry for two pointlike particles on a line.

A configuration is a pair of spacetime points (t1, z1), (t2, z2) with
metric signature (+, -), so the pair interval is

    I = (t1 - t2)**2 - (z1 - z2)**2.

The dynamics lives on the space-like configurations I < 0, split by the
spatial order of the particles into the open half Omega1 (z1 < z2) and
Omega2 (z1 > z2).  The coincidence set (t1 = t2, z1 = z2) and the
light-like boundary I = 0 separate the two halves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class Region(Enum):
    OMEGA1 = "Omega1"
    OMEGA2 = "Omega2"
    COINCIDENCE = "Coincidence"
    LIGHTLIKE = "LightLike"
    TIMELIKE = "TimeLike"
    NONFINITE = "NonFinite"


class DomainError(ValueError):
    """Raised when an operation is asked for a configuration outside its domain."""


@dataclass(frozen=True)
class Configuration:
    """One finite configuration (t1, z1, t2, z2): the argument of `classify`."""

    t1: float
    z1: float
    t2: float
    z2: float

    def __post_init__(self) -> None:
        for name in ("t1", "z1", "t2", "z2"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"non-finite coordinate {name}={v!r}")


def region_masks(t1, z1, t2, z2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized exact classification into (in_omega1, in_omega2, not_spacelike).

    A configuration is space-like when |dt| < |dz| for its rounded coordinate
    differences: the exact sign of their interval dt^2 - dz^2, with no
    square that could overflow or underflow.
    """
    # 0-d arrays, not numpy scalars, for scalar input: np.abs below writes in place
    dt = np.asarray(np.subtract(t1, t2, dtype=float))
    dz = np.asarray(np.subtract(z1, z2, dtype=float))
    m1 = dz < 0.0
    m2 = dz > 0.0
    # |dt| and |dz| are taken in place: on an N x N grid of pairs (the
    # surface quadrature) no further N x N float array is allocated
    np.abs(dt, out=dt)
    np.abs(dz, out=dz)
    spacelike = dt < dz
    m1 &= spacelike
    m2 &= spacelike
    return m1, m2, ~spacelike


REGIONS = tuple(Region)


def regions(t1, z1, t2, z2) -> np.ndarray:
    """Exact region of each configuration, as an int array indexing REGIONS.

    Space-like points are those of `region_masks`; coincidence is dt = dz = 0,
    light-like |dt| = |dz| and time-like |dt| > |dz|.  NonFinite marks a
    coordinate difference that is not finite: a NaN or infinite coordinate,
    or a difference of finite coordinates that overflows.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf: NonFinite below
        m1, m2, _ = region_masks(t1, z1, t2, z2)
        dt = np.abs(np.subtract(t1, t2, dtype=float))
        dz = np.abs(np.subtract(z1, z2, dtype=float))
    # one condition per Region in declaration order; NonFinite takes the rest
    conditions = [m1, m2, (dt == 0.0) & (dz == 0.0), dt == dz, dt > dz]
    nonfinite = REGIONS.index(Region.NONFINITE)
    label = np.select(conditions, range(nonfinite), nonfinite)
    return np.where(np.isfinite(dt) & np.isfinite(dz), label, nonfinite)


def classify(c: Configuration) -> Region:
    """The region of one configuration: the scalar view of `regions`."""
    return REGIONS[int(regions(c.t1, c.z1, c.t2, c.z2))]


def spacelike_margin(t1, z1, t2, z2):
    """Euclidean distance to the nearest branch or domain boundary, elementwise.

    The relevant walls are the two light-like planes |z1-z2| = |t1-t2| and
    the two characteristic seams z1 - t1 = z2 + t2 and z1 + t1 = z2 - t2
    where the closed-form solution switches branch.  Finite-difference
    probes must keep their whole stencil strictly inside one branch.
    Scalar coordinates give a float.
    """
    dz = z1 - z2
    dt = t1 - t2
    walls = np.minimum(
        np.minimum(np.abs(dz - dt), np.abs(dz + dt)),
        np.minimum(np.abs((z1 - t1) - (z2 + t2)), np.abs((z1 + t1) - (z2 - t2))),
    )
    return 0.5 * walls


def sample_spacelike(
    rng: np.random.Generator,
    n: int,
    t_span: tuple[float, float],
    z_span: tuple[float, float],
    margin: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw n configurations uniformly from a box, keeping space-like ones.

    Optionally keep only points at least `margin` away from the branch seams
    and the light-like boundary.  Rejection sampling; raises RuntimeError if
    acceptance is hopeless.
    """
    got = 0
    attempts = 0
    chunks: list[np.ndarray] = []
    while got < n:
        attempts += 1
        if attempts > 200:
            raise RuntimeError("rejection sampling failed; box too tight")
        m = max(4 * (n - got), 256)
        t1 = rng.uniform(*t_span, m)
        t2 = rng.uniform(*t_span, m)
        z1 = rng.uniform(*z_span, m)
        z2 = rng.uniform(*z_span, m)
        keep = ~region_masks(t1, z1, t2, z2)[2]
        if margin > 0.0:
            keep &= spacelike_margin(t1, z1, t2, z2) > margin
        chunks.append(np.stack([t1[keep], z1[keep], t2[keep], z2[keep]]))
        got += int(keep.sum())
    cat = np.concatenate(chunks, axis=1)[:, :n]
    return cat[0], cat[1], cat[2], cat[3]
