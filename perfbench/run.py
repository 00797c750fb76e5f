"""Benchmark of the mtdirac command line: one seeded workload per run.

    python3 perfbench/run.py --workload verify-mirror128 --seed 1 --seconds 60 --trace 0

Run from the root of a checkout.  Each workload is a closed loop of one
client in one process: `mtdirac.cli.main` is called back to back until
--seconds have passed, every call is gated on the README guarantees (see
workloads.py), and MTDIRAC_THREADS is removed so the package runs one
worker.  With --trace 0 the last stdout line reports the end-to-end metrics
(cmd_s, setup_s, peak_rss_mb); the setup probes run between the calls, spread
over the run.  With --trace 1 the first half of the time runs
untraced calls and the second half traced ones (tracer.py), and the last line
reports the per-layer metrics per command call plus trace.overhead_s.  The
line before it holds diagnostics: environment, acc.* gate values, output
digests and the failed-operation share.  Full reports and spans go to
.perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import ROOT, WORKLOADS, load_program, run_op

SETUP_PROBES = 21
SETUP_CODE = (
    "import sys; from pathlib import Path; import mtdirac.cli as cli; "
    "cli.load_scenario(Path(sys.argv[1]).read_text())"
)


def _blas_threads() -> int | None:
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                return int(getattr(lib, fn)())
    return None


def _git_commit() -> str | None:
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
    except OSError:  # no git on this machine
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "MTDIRAC_THREADS": os.environ.get("MTDIRAC_THREADS"),
        "commit": _git_commit(),
    }


def setup_probe(config: str) -> float:
    """Wall time of a fresh process that imports the CLI and loads the config."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT / config)],
                   cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """(p, value) for the highest percentile with at least ten samples above it."""
    n = len(values)
    if n < 20:
        return None
    k = n - 10  # nearest rank: ten values beyond index k - 1
    return 100.0 * k / n, sorted(values)[k - 1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli = load_program()
    workload = WORKLOADS[args.workload]
    os.environ.pop("MTDIRAC_THREADS", None)
    env = environment()

    work = ROOT / ".perfbench" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = workload.prepare(args.seed, work)
    setup_times: list[float] = []
    if not args.trace:
        setup_probe(workload.config)  # warms file caches and bytecode; not counted

    tracer = totals = spans_fh = None
    if args.trace:
        from tracer import LayerTotals, Tracer, write_spans

        tracer, totals = Tracer(), LayerTotals()
        spans_fh = open(work / "spans.csv", "w")
        spans_fh.write("id,parent,name,start,end,points,extra\n")
        next_id = 0
    phases = [(None, args.seconds)] if not args.trace else [
        (None, 0.5 * args.seconds), (tracer, args.seconds)]

    ops, traced_ops = [], []
    digest = None
    start = perf_counter()
    for phase_tracer, phase_end in phases:
        # closed loop: start a call only if a typical call (with its gate)
        # still ends inside the phase; every phase makes at least one call
        cycles = []
        while not cycles or perf_counter() - start + statistics.median(cycles) <= phase_end:
            t0 = perf_counter()
            op = run_op(workload, ctx, work / "out", cli.main, phase_tracer, digest)
            digest = digest or op.digest or None
            (traced_ops if phase_tracer else ops).append(op)
            if phase_tracer is not None:
                spans = tracer.drain()
                totals.add(spans)
                next_id = write_spans(spans, spans_fh, next_id)
            # setup probes are spread over the run, so they see the same host as the calls
            while not args.trace and (
                    len(setup_times) < SETUP_PROBES * (perf_counter() - start) / args.seconds):
                setup_times.append(setup_probe(workload.config))
            cycles.append(perf_counter() - t0)
    while not args.trace and len(setup_times) < SETUP_PROBES:
        setup_times.append(setup_probe(workload.config))
    if spans_fh is not None:
        spans_fh.close()

    all_ops = ops + traced_ops
    failed = [op for op in all_ops if not op.ok]
    cmd_s = statistics.median(op.seconds for op in ops)
    acc = {}
    for op in all_ops:
        for key, value in op.acc.items():
            acc[f"acc.{key}"] = max(acc.get(f"acc.{key}", value), value)
    diagnostics = {
        "workload": workload.name,
        "seed": args.seed,
        "env": env,
        "cmd_s_samples": [op.seconds for op in ops],
        "cmd_s_tail": tail_percentile([op.seconds for op in ops]),
        "traced_cmd_s_samples": [op.seconds for op in traced_ops],
        "ops_failed_share": len(failed) / len(all_ops),
        "failures": sorted({op.reason for op in failed}),
        "digests": {workload.output: digest},
        **acc,
    }
    if args.trace:
        from mtdirac.conservation import worker_count

        traced_s = statistics.median(op.seconds for op in traced_ops)
        metrics = totals.metrics(len(traced_ops), worker_count(),
                                 sum(op.bytes_written for op in traced_ops))
        metrics["trace.overhead_s"] = (traced_s - cmd_s, "s")
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"cmd_s": (cmd_s, "s"), "setup_s": (statistics.median(setup_times), "s"),
                   "peak_rss_mb": (peak_mb, "MB")}
    result = {
        "correct": not failed,
        "attempted": len(all_ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (work / "report.json").write_text(json.dumps({**diagnostics, **result}, indent=1) + "\n")
    shutil.rmtree(work / "out")  # large and reproducible from the seed; digests are kept
    (work / "points.csv").unlink(missing_ok=True)
    print(json.dumps(diagnostics))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
