"""Each experiment script runs to exit 0 on a small input, and every
command call of output_digests.py succeeds.

The scripts call the library's slice, spectrum, mass and covariance API the
way a user would, so a change of that API that a script missed fails here.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

CALLS = [
    ["packet_swap_series.py", "--steps", "3", "--panels", "16"],
    ["boost_demo.py", "--samples", "10"],
    ["surface_sweep.py", "--panels", "16"],
    ["bench.py", "--help"],
]


def _run(call: list[str]) -> subprocess.CompletedProcess:
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / call[0]), *call[1:]],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
    return done


@pytest.mark.parametrize("call", CALLS, ids=[c[0] for c in CALLS])
def test_script_runs(call):
    _run(call)


def test_output_digests_every_call_succeeds():
    # the script exits 0 when a verify fails (exit 1), so each line is read
    lines = _run(["output_digests.py"]).stdout.splitlines()
    assert len(lines) == 7
    for line in lines:
        assert line.endswith("(exit 0)"), line
