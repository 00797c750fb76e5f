"""SHA-256 of every output file of a fixed set of `mtdirac` command calls.

A refactor that must not change results runs this before and after the
change and compares the printed lines; any differing digest names the
command whose output moved.  The calls cover `verify` on every bundled
config (and at 128 panels on mirror_bump), `evaluate` on a slice grid at
t = 1.5, where both branches of psi2 and psi3 occur, and `scatter` on the
crossing packet.

    PYTHONPATH=src python scripts/output_digests.py
"""
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from mtdirac.cli import main as mtdirac_main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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
    ("scatter wavepacket", ["scatter", "--scenario", "wavepacket.json"]),
]


def run(argv: list[str], out: Path) -> int:
    argv = list(argv)
    k = argv.index("--scenario") + 1
    argv[k] = str(CONFIGS / argv[k])
    with contextlib.redirect_stdout(io.StringIO()):
        return mtdirac_main(argv + ["--out", str(out)])


def main() -> int:
    worst = 0
    with tempfile.TemporaryDirectory() as tmp:
        for k, (label, argv) in enumerate(CALLS):
            out = Path(tmp) / str(k)
            code = run(argv, out)
            worst = max(worst, code)
            for path in sorted(out.iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {label}: {path.name} (exit {code})")
    return 2 if worst > 1 else 0


if __name__ == "__main__":
    sys.exit(main())
