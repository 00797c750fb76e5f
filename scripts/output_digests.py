"""SHA-256 of every output file of a fixed set of `mtdirac` command calls.

A refactor that must not change results runs this before and after the
change and compares the printed lines; any differing digest names the
command whose output moved.  The calls cover `verify` on every bundled
config (and at 128 panels on mirror_bump), `evaluate` on a slice grid at
t = 1.5, where both branches of psi2 and psi3 occur, `evaluate` on a points
file, `scatter` on the crossing packet, and `verify` on an antisymmetric
scenario whose theta1 is the preset plus_i (so theta2 is minus_i): that
call reaches the manifest checks on both sides, the antisymmetry check and
mirrors under a preset phase, which no bundled config does.  The points
file is written here from a fixed seed: 4096 finite rows on the
mirror_bump sampling box, space-like in both halves, time-like, exactly
light-like in both directions and coincident, so the same file reaches
every version of the program.  The antisymmetric config is written here
too, from mirror_bump's half-1 data.  The last call evaluates a file of
2^17 such rows, large enough that `evaluate` splits it over the usable
CPUs, twice: on all of them, then with this process pinned to one CPU,
where it runs one worker.  Its two digests must be equal.

    PYTHONPATH=src python scripts/output_digests.py
"""
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from mtdirac.cli import main as mtdirac_main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# written into the run's temporary directory
POINTS = "points.csv"
MANY_POINTS = "points_2e17.csv"
ANTISYMMETRIC = "antisymmetric_plus_i.json"

CALLS = [
    ("verify wavepacket", ["verify", "--scenario", "wavepacket.json"]),
    ("verify spin_product", ["verify", "--scenario", "spin_product.json"]),
    ("verify mirror_bump", ["verify", "--scenario", "mirror_bump.json"]),
    (
        "verify mirror_bump --panels 128",
        ["verify", "--scenario", "mirror_bump.json", "--panels", "128"],
    ),
    (
        "evaluate mirror_bump --grid 256 --time 1.5",
        ["evaluate", "--scenario", "mirror_bump.json", "--grid", "256", "--time", "1.5"],
    ),
    (
        "evaluate mirror_bump --points",
        ["evaluate", "--scenario", "mirror_bump.json", "--points", POINTS],
    ),
    ("scatter wavepacket", ["scatter", "--scenario", "wavepacket.json"]),
    ("verify antisymmetric plus_i", ["verify", "--scenario", ANTISYMMETRIC]),
    (
        "evaluate mirror_bump --points, 2^17 rows",
        ["evaluate", "--scenario", "mirror_bump.json", "--points", MANY_POINTS],
    ),
]


def write_points(path: Path, rows: int = 4096, seed: int = 4) -> None:
    """Seeded rows of every region kind on the mirror_bump box (hull padded by 1)."""
    rng = np.random.default_rng(seed)
    t_span, z_span = (-3.25, 3.25), (-3.0, 3.5)
    t1, t2 = rng.uniform(*t_span, (2, rows))
    z1, z2 = rng.uniform(*z_span, (2, rows))
    pts = np.stack([t1, z1, t2, z2], axis=1)  # about half of them time-like
    light = np.arange(0, rows, 29)
    dt = rng.integers(1, 1024, light.size) / 1024.0
    pts[light, :2] = np.round(pts[light, :2] * 1024.0) / 1024.0  # dyadic: exact
    pts[light, 2] = pts[light, 0] - dt
    pts[light, 3] = pts[light, 1] + dt * rng.choice([-1.0, 1.0], light.size)
    pts[5::97, 2:] = pts[5::97, :2]  # coincidence
    with open(path, "w", newline="\n") as fh:
        fh.write("t1,z1,t2,z2\n")
        fh.writelines("%r,%r,%r,%r\n" % tuple(row) for row in pts.tolist())


def write_antisymmetric(path: Path) -> None:
    """mirror_bump's half-1 data (g3 the mirror of g2), antisymmetrically
    extended, with theta1 = plus_i."""
    cfg = json.loads((CONFIGS / "mirror_bump.json").read_text())
    initial = {name: {"omega1": g["omega1"]} for name, g in cfg["initial"].items()}
    cfg = {"initial": initial, "phase": {"theta1": {"preset": "plus_i"}}, "antisymmetric": True}
    path.write_text(json.dumps(cfg, indent=1) + "\n")


@contextlib.contextmanager
def one_cpu():
    """This process pinned to one of its CPUs, then set free again."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def run(argv: list[str], out: Path) -> int:
    argv = list(argv)
    k = argv.index("--scenario") + 1
    argv[k] = str((out.parent if argv[k] == ANTISYMMETRIC else CONFIGS) / argv[k])
    if "--points" in argv:
        k = argv.index("--points") + 1
        argv[k] = str(out.parent / argv[k])
    with contextlib.redirect_stdout(io.StringIO()):
        return mtdirac_main(argv + ["--out", str(out)])


def main() -> int:
    worst = 0
    with tempfile.TemporaryDirectory() as tmp:
        write_points(Path(tmp) / POINTS)
        write_antisymmetric(Path(tmp) / ANTISYMMETRIC)
        write_points(Path(tmp) / MANY_POINTS, rows=2**17, seed=17)
        runs = [(label, argv, contextlib.nullcontext()) for label, argv in CALLS]
        runs.append((f"{CALLS[-1][0]}, one CPU", CALLS[-1][1], one_cpu()))
        for k, (label, argv, cpus) in enumerate(runs):
            out = Path(tmp) / str(k)
            with cpus:
                code = run(argv, out)
            worst = max(worst, code)
            for path in sorted(out.iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {label}: {path.name} (exit {code})")
    return 2 if worst > 1 else 0


if __name__ == "__main__":
    sys.exit(main())
