"""Layer timings and accuracy figures of the mtdirac library, as one JSON file.

    PYTHONPATH=<parent checkout>/src python scripts/bench.py --label parent --out base.json
    PYTHONPATH=src python scripts/bench.py --label change --baseline base.json --out BENCH.json

This script runs on another checkout's `src` as long as the public
functions its layers call keep their signatures (residual_probes passes
arrays of configurations, which a checkout whose probes take one
`Configuration` does not accept; there, measure with that checkout's own
copy of the script), so that every layer has a figure on both trees.
Alternate the two trees' runs: the host drifts between runs.  Each timing is
the median of a fixed number of repeats (time.perf_counter,
statistics.median) on inputs drawn from fixed seeds.  Before its repeats
each layer runs untimed for at least WARM_UP_S seconds of wall time (at
least one call): with a single warm-up call, the layer timed first after
the machine sat idle read up to ~3x slow.  The layers:

  evaluate_fields     2^18 space-like points on mirror_bump (points/s too)
  tensor_current      the 2^18 spinors of that call tiled 4x (2^20 spinors),
                      25 repeats: a 2^18 call takes 3-8 ms, too short for
                      its repeats to agree from run to run
  normalization_64    normalization_report, mirror_bump, bump surface, 64 panels
  normalization_128   the same at 128 panels
  whole_grid_16       normalization_report at 16, 64 and 128 panels on
  whole_grid_64       mirror_bump with each datum given by its function,
  whole_grid_128      bump surface: no branch factors, so every one is
                      reduced on the whole grid of node pairs, one thread
                      per usable CPU from conservation's THREAD_ROWS rows
                      each (128, 512 and 1024 rows)
  slice_svd           a 256-point equal-time slice at t = 1.5 and its SVD;
                      peak_mb is the tracemalloc peak of one more call
  residual_probes     pde_residual and continuity_residual on 64 configurations,
                      passed as arrays: one call each
  evaluate_points     `mtdirac evaluate --points` on mirror_bump through
                      cli.main: reading a 2^18-row points file (space-like
                      rows, every tenth a coincidence point, written once to
                      a temporary directory), evaluation, writing fields.csv;
                      peak_mb as for slice_svd, of this process only: on two
                      or more usable CPUs worker processes hold the other
                      row ranges
  read_points         ranges.read_points alone on that points file: the
                      whole file in this process; peak_mb as for slice_svd
  verify_128          `mtdirac verify` on mirror_bump at 128 panels through
                      cli.main, as perfbench's verify-mirror128 runs it: on
                      two or more usable CPUs a forked worker computes the
                      surface quadrature beside the other checks, and
                      peak_mb (as for slice_svd) is of this process only
  scatter_packet      `mtdirac scatter` on wavepacket with its default
                      options through cli.main: 17 times, each a flat-surface
                      quadrature at 64 panels and a 256-point slice with
                      its SVD
  startup             21 fresh processes, each running perfbench's setup
                      probe on mirror_bump (import mtdirac.cli, load the
                      config); peak_rss_mb is the median of their own
                      peaks (VmHWM: a child's ru_maxrss also counts the
                      resident set its parent had when it forked, so an
                      interpreter spawned by a 200 MB process reads 218
                      MB).  A process compiles what it imports from source
                      when PYTHONDONTWRITEBYTECODE is set and no bytecode
                      is cached, so `machine` records that variable; it
                      records the BLAS thread count numpy starts with too
                      (mtdirac.blas.threads: None where it cannot be read)

A peak_mb call is made after the layer's timed repeats, so that tracing
slows none of them.

The accuracy block (computed once) holds the normalization values on the
five acceptance surfaces at 64 and 128 panels with their drift, the
whole_grid values at 16, 64 and 128 panels, the largest
difference from the closed form of the crossing packet, and the largest
PDE residual, so that a speed-up cannot hide a change in the numbers.  With
--baseline, the file also holds the baseline's layers and accuracy and, per
layer, the speed-up: baseline median seconds over this median.  A speed-up
is "resolved" only when the two medians differ by more than the larger
interquartile range of the two layers' samples_s; otherwise the layer's
spread is too wide to tell the trees apart and it is printed "unresolved".
"""
import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np

import mtdirac
from mtdirac import blas
from mtdirac.cli import main as mtdirac_main
from mtdirac.conservation import (
    QuadratureSpec,
    acceptance_family,
    bump_surface,
    normalization_report,
)
from mtdirac.current import continuity_residual, tensor_current
from mtdirac.geometry import sample_spacelike
from mtdirac.interaction import (
    closed_form_packet,
    default_slice_grid,
    schmidt_spectrum,
    single_time_slice,
    wavepacket_scenario,
)
from mtdirac.profiles import smooth_bump
from mtdirac.ranges import read_points
from mtdirac.scenario import Component2D, InitialData, Phase, load_scenario
from mtdirac.solver import evaluate_fields, pde_residual

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# the sampling box of `verify` on mirror_bump: support hull (-2, 2.5) padded
T_SPAN, Z_SPAN = (-3.25, 3.25), (-3.0, 3.5)
H = 1e-4
WARM_UP_S = 0.5
# perfbench's SETUP_CODE (perfbench/run.py), run with a config path argument
SETUP_CODE = (
    "import sys; from pathlib import Path; import mtdirac.cli as cli; "
    "cli.load_scenario(Path(sys.argv[1]).read_text())"
)
PEAK_CODE = "; print(Path('/proc/self/status').read_text().split('VmHWM:')[1].split()[0])"


def timed(fn, repeats: int) -> tuple[dict, object]:
    """Median and samples of repeats calls of fn after a warm-up; its last result."""
    start = time.perf_counter()
    out = fn()
    while time.perf_counter() - start < WARM_UP_S:
        out = fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        samples.append(time.perf_counter() - t0)
    return {"median_s": statistics.median(samples), "samples_s": samples}, out


def peak_mb(fn) -> float:
    """The tracemalloc peak of one call of fn, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def interquartile_range(samples: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q3 - q1


def resolved(base: dict, layer: dict) -> bool:
    """Whether two timings of a layer differ by more than their spread."""
    spread = max(interquartile_range(t["samples_s"]) for t in (base, layer))
    return abs(base["median_s"] - layer["median_s"]) > spread


def residuals(s, pts) -> float:
    probes = (*pde_residual(s, *pts, H), *continuity_residual(s, *pts, H))
    return max(float(np.max(np.abs(r))) for r in probes)


def write_points(path: Path) -> None:
    """2^18 seeded space-like rows on the verify box, every tenth a coincidence."""
    rng = np.random.default_rng(4)
    pts = np.stack(sample_spacelike(rng, 2**18, T_SPAN, Z_SPAN), axis=1)
    pts[::10, 2:] = pts[::10, :2]
    with open(path, "w", newline="\n") as fh:
        fh.write("t1,z1,t2,z2\n")
        fh.writelines("%r,%r,%r,%r\n" % tuple(row) for row in pts.tolist())


def run_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if mtdirac_main(argv) != 0:
            raise RuntimeError(f"mtdirac {' '.join(argv)} failed")


def startup(repeats: int) -> dict:
    """Wall time and peak RSS of fresh processes that run SETUP_CODE."""
    src = Path(mtdirac.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-c", SETUP_CODE + PEAK_CODE, str(CONFIGS / "mirror_bump.json")]
    peaks = []

    def fresh_process() -> None:
        done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        peaks.append(int(done.stdout) / 1024.0)  # VmHWM is in kB

    layer, _ = timed(fresh_process, repeats)
    layer["peak_rss_mb"] = statistics.median(peaks[-repeats:])
    return layer


def measure() -> dict:
    s, _ = load_scenario((CONFIGS / "mirror_bump.json").read_text())
    layers = {}

    pts = sample_spacelike(np.random.default_rng(1), 2**18, T_SPAN, Z_SPAN)
    layers["evaluate_fields"], psi = timed(lambda: evaluate_fields(s, *pts), 9)
    layers["evaluate_fields"]["points_per_s"] = 2**18 / layers["evaluate_fields"]["median_s"]
    spinors = np.tile(psi, 4)
    layers["tensor_current"], _ = timed(lambda: tensor_current(spinors), 25)

    surf = bump_surface(0.0, 0.3, 5.0)
    for panels, repeats in ((64, 7), (128, 5)):
        q = QuadratureSpec(panels=panels)
        layers[f"normalization_{panels}"], _ = timed(
            lambda: normalization_report(s, surf, q), repeats
        )

    def by_function(half):
        return tuple(g if g.is_zero else Component2D(fn=g.__call__, box=g.box) for g in half)

    fn_data = replace(s, initial=InitialData(*map(by_function, (s.initial.half1, s.initial.half2))))
    whole_grid_values = []
    for panels, repeats in ((16, 15), (64, 9), (128, 7)):
        q = QuadratureSpec(panels=panels)
        layers[f"whole_grid_{panels}"], rep = timed(
            lambda: normalization_report(fn_data, surf, q), repeats
        )
        whole_grid_values.append(rep.value)

    z = default_slice_grid(s, [1.5], n=256)

    def slice_svd():
        return schmidt_spectrum(single_time_slice(s, 1.5, z))

    layers["slice_svd"], _ = timed(slice_svd, 7)
    layers["slice_svd"]["peak_mb"] = peak_mb(slice_svd)

    probe = sample_spacelike(np.random.default_rng(2), 64, T_SPAN, Z_SPAN, margin=4 * H)
    layers["residual_probes"], worst_residual = timed(lambda: residuals(s, probe), 5)

    with tempfile.TemporaryDirectory() as tmp:
        points = Path(tmp) / "points.csv"
        write_points(points)
        argv = ["evaluate", "--scenario", str(CONFIGS / "mirror_bump.json"),
                "--points", str(points), "--out", str(Path(tmp) / "out")]
        layers["evaluate_points"], _ = timed(lambda: run_cli(argv), 5)
        layers["evaluate_points"]["peak_mb"] = peak_mb(lambda: run_cli(argv))
        layers["read_points"], _ = timed(lambda: read_points(points), 7)
        layers["read_points"]["peak_mb"] = peak_mb(lambda: read_points(points))
        argv = ["verify", "--scenario", str(CONFIGS / "mirror_bump.json"),
                "--panels", "128", "--out", str(Path(tmp) / "out")]
        layers["verify_128"], _ = timed(lambda: run_cli(argv), 21)
        layers["verify_128"]["peak_mb"] = peak_mb(lambda: run_cli(argv))
        argv = ["scatter", "--scenario", str(CONFIGS / "wavepacket.json"),
                "--out", str(Path(tmp) / "out")]
        layers["scatter_packet"], _ = timed(lambda: run_cli(argv), 11)
        layers["scatter_packet"]["peak_mb"] = peak_mb(lambda: run_cli(argv))

    layers["startup"] = startup(21)

    accuracy = {"max_pde_residual": worst_residual, "whole_grid_values": whole_grid_values}
    for panels in (64, 128):
        q = QuadratureSpec(panels=panels)
        values = [normalization_report(s, f, q).value for f in acceptance_family()]
        accuracy[f"surface_values_{panels}"] = values
        accuracy[f"surface_drift_{panels}"] = max(values) - min(values)

    phi = smooth_bump(-3.0, -1.0, normalize=True)
    chi = smooth_bump(1.0, 3.0, normalize=True)
    theta = Phase(0.7)
    packet = wavepacket_scenario(-3.0, -1.0, 1.0, 3.0, phi, chi, theta)
    cpts = sample_spacelike(np.random.default_rng(3), 4096, (-2.5, 2.5), (-4.0, 4.0))
    diff = evaluate_fields(packet, *cpts) - closed_form_packet(phi, chi, theta, *cpts)
    accuracy["closed_form_defect"] = float(np.max(np.abs(diff)))
    return {"layers": layers, "accuracy": accuracy}


def machine() -> dict:
    return {
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "blas_threads": blas.threads(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--label", default="", help="name of the measured tree")
    ap.add_argument("--baseline", help="an earlier output of this script to compare with")
    args = ap.parse_args()

    report = {"label": args.label, "machine": machine(), **measure()}
    if args.baseline:
        base = json.loads(Path(args.baseline).read_text())
        report["baseline"] = {k: base[k] for k in ("label", "machine", "layers", "accuracy")}
        # a layer that the baseline's script did not measure is not compared
        shared = {k: v for k, v in report["layers"].items() if k in base["layers"]}
        report["speedup"] = {
            name: base["layers"][name]["median_s"] / layer["median_s"]
            for name, layer in shared.items()
        }
        report["resolved"] = {
            name: resolved(base["layers"][name], layer) for name, layer in shared.items()
        }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for name, layer in report["layers"].items():
        extra = ""
        if name in report.get("speedup", {}):
            gain = report["speedup"][name]
            state = "resolved" if report["resolved"][name] else "unresolved"
            extra = f"  x{gain:.2f} vs {report['baseline']['label']} ({state})"
        print(f"{name:<18} {layer['median_s']:.4f} s{extra}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
