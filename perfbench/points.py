"""Seeded configuration points for the evaluate-points workload.

Writes a CSV with columns t1,z1,t2,z2 that `mtdirac evaluate --points`
reads.  About 10% of the rows are not space-like: time-like rows, exactly
light-like rows and coincidence points, each built so that floating-point
rounding cannot move them across a region boundary.  Space-like and
time-like rows keep |dz| and |dt| at least MARGIN apart; light-like rows sit
on a dyadic grid where z2 = z1 -+ (t1 - t2) is exact.  No row is
non-finite: a NaN row aborts the whole command today, which is a known
defect of its own and would hide every other cost of the workload.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# mirror_bump.json: data hull (-2, 2.5), padded as the CLI's verify sampler does
T_SPAN = (-3.25, 3.25)
Z_SPAN = (-3.0, 3.5)
MARGIN = 1e-6
GRID = 1024.0  # light-like rows use multiples of 1/GRID

SPACELIKE, TIMELIKE, LIGHTLIKE, COINCIDENCE = 0, 1, 2, 3
REGION_OF_KIND = {TIMELIKE: "TimeLike", LIGHTLIKE: "LightLike", COINCIDENCE: "Coincidence"}


def kind_counts(rows: int) -> dict[int, int]:
    light = rows // 64
    coincidence = rows // 512
    time = rows // 10 - light - coincidence
    return {
        SPACELIKE: rows - time - light - coincidence,
        TIMELIKE: time,
        LIGHTLIKE: light,
        COINCIDENCE: coincidence,
    }


def _uniform_rows(rng, n: int, want_spacelike: bool) -> np.ndarray:
    """n rows drawn uniformly on the box, kept only if clearly of the wanted kind."""
    out = np.empty((0, 4))
    while out.shape[0] < n:
        m = 2 * (n - out.shape[0]) + 64
        t1, t2 = rng.uniform(*T_SPAN, (2, m))
        z1, z2 = rng.uniform(*Z_SPAN, (2, m))
        gap = np.abs(z1 - z2) - np.abs(t1 - t2)
        keep = gap > MARGIN if want_spacelike else gap < -MARGIN
        out = np.concatenate([out, np.stack([t1, z1, t2, z2], axis=1)[keep]])
    return out[:n]


def _lightlike_rows(rng, n: int) -> np.ndarray:
    lo, hi = int(T_SPAN[0] * GRID), int(T_SPAN[1] * GRID)
    t1 = rng.integers(lo, hi, n)
    dt = rng.integers(1, GRID, n) * rng.choice([-1, 1], n)  # never zero
    z1 = rng.integers(int(Z_SPAN[0] * GRID), int(Z_SPAN[1] * GRID), n)
    z2 = z1 + dt * rng.choice([-1, 1], n)
    return np.stack([t1, z1, t1 - dt, z2], axis=1) / GRID


def _coincidence_rows(rng, n: int) -> np.ndarray:
    t = rng.uniform(*T_SPAN, n)
    z = rng.uniform(*Z_SPAN, n)
    return np.stack([t, z, t, z], axis=1)


def generate(seed: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """(points of shape (rows, 4), kind per row), shuffled; same seed, same bytes."""
    rng = np.random.default_rng([seed, 0x5EED])
    counts = kind_counts(rows)
    blocks = [
        _uniform_rows(rng, counts[SPACELIKE], True),
        _uniform_rows(rng, counts[TIMELIKE], False),
        _lightlike_rows(rng, counts[LIGHTLIKE]),
        _coincidence_rows(rng, counts[COINCIDENCE]),
    ]
    kinds = np.concatenate([np.full(counts[k], k) for k in sorted(counts)])
    order = rng.permutation(rows)
    return np.concatenate(blocks)[order], kinds[order]


def write_csv(points: np.ndarray, path: Path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("t1,z1,t2,z2\n")
        for start in range(0, len(points), 65536):
            chunk = points[start : start + 65536]
            fh.write("".join("%r,%r,%r,%r\n" % tuple(row) for row in chunk.tolist()))

