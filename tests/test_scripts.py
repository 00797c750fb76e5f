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
    assert len(lines) == 10
    for line in lines:
        assert line.endswith("(exit 0)"), line
    # the last call on all CPUs, then pinned to one CPU: the same bytes
    assert ", one CPU: " in lines[-1] and ", one CPU" not in lines[-2]
    assert lines[-2].split()[0] == lines[-1].split()[0]


def _bench():
    """scripts/bench.py as a module."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_resolves_a_speedup_only_beyond_the_spread():
    bench = _bench()

    def layer(samples):
        return {"median_s": sorted(samples)[len(samples) // 2], "samples_s": samples}

    base = layer([1.0, 1.1, 1.2, 1.3, 1.4])  # interquartile range 0.3
    assert bench.resolved(base, layer([0.5, 0.51, 0.52, 0.53, 0.54]))
    assert not bench.resolved(base, layer([1.0, 1.01, 1.02, 1.03, 1.04]))
    # the wider spread of the two decides, whichever tree has it
    assert not bench.resolved(layer([1.0, 1.01, 1.02, 1.03, 1.04]), base)
    assert bench.resolved(layer([0.5, 0.51, 0.52, 0.53, 0.54]), layer([0.9] * 5))


def test_bench_startup_runs_fresh_setup_probes():
    layer = _bench().startup(2)
    assert len(layer["samples_s"]) == 2 and layer["median_s"] > 0
    # a fresh interpreter with numpy holds well over 10 MB
    assert 10.0 < layer["peak_rss_mb"] < 1000.0
