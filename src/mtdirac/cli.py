"""mtdirac command line: evaluate fields, verify invariants, run scattering.

Subcommands
-----------
evaluate  field values at configurations from --points or an equal-time --grid
verify    run every invariant check on a scenario, JSON report + exit code
scatter   equal-time mass and Schmidt time series for a scattering scenario

Outputs are deterministic: a fixed scenario file, options and --seed yield
byte-identical files (floats printed with %.17g, LF line endings, raw
config echoed in headers).  The Schmidt values of verify and scatter come
from BLAS, so both commands run at one BLAS thread (blas.one_thread): their
bytes hold for a fixed numpy/BLAS build on any number of CPUs; evaluate
calls no BLAS.  On a large input evaluate runs one worker process per
usable CPU, each holding only its own range of rows, and writes the same
bytes for any number of them: ranges cuts, solves and formats the rows,
and evaluate here owns the output file.  On two or more usable CPUs verify
forks one worker process that computes the surface quadrature beside the
other checks, to the same report.  The quadrature's whole-grid path (data
given by functions, which no config expresses) runs one thread per usable
CPU, from 256 node rows each, with the same bits for any number of them.
Limit them all with taskset.  Exit codes: 0 success / all checks pass, 1 at
least one verification failure, 2 usage or config errors or an output that
cannot be written.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

# each command imports the layers it runs when it starts, so a process
# compiles only what its command needs: scenario (and profiles) here
from .scenario import Scenario, ScenarioConfigError, load_scenario


def _echo_lines(command: str, raw: str, seed: int) -> list[str]:
    return [
        f"# mtdirac {command}",
        f"# config: {json.dumps(raw)}",
        f"# seed: {seed}",
    ]


@contextlib.contextmanager
def _replacing(dest: Path, binary: bool = False):
    """A file that becomes dest only if the block finishes.

    It is written as a hidden temporary file next to dest (the directory is
    made if needed) and renamed onto dest by os.replace; if the block
    raises, the temporary file is removed, so a failing command leaves no
    partial output.  It is a text file with LF line ends, or a binary one.
    """
    dest.parent.mkdir(parents=True, exist_ok=True)
    tmp = dest.with_name(f".{dest.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", newline="\n") as fh:
            yield fh
        os.replace(tmp, dest)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


GRID = 256  # default slice grid points


def _write_fields(s: Scenario, jobs: list, dest: Path, head: list[str]) -> tuple[int, int]:
    """Write dest from jobs, each (rows, blocks) of a range: (rows, flagged).

    jobs[0] runs here and each other job in a forked worker; the parent
    writes head and its own rows, then appends each worker's part in order.
    """
    from .ranges import Workers, write_blocks

    with Workers(dest) as workers:
        for job in jobs[1:]:
            workers.fork(job, functools.partial(write_blocks, s))
        n, blocks = jobs[0]()
        n += sum(workers.receive(k) for k in range(len(jobs) - 1))
        if n == 0:  # the ranges cover the points file, so it has no rows
            raise ScenarioConfigError("points file has no rows")
        with _replacing(dest, binary=True) as fh:
            for line in head:
                fh.write(line.encode() + b"\n")
            workers.go()
            flagged = write_blocks(s, blocks, fh)
            for k in range(len(jobs) - 1):
                flagged += workers.receive(k)
                workers.append(k, fh)
    return n, flagged


def cmd_evaluate(args: argparse.Namespace) -> int:
    given = [f for f, v in (("--grid", args.grid), ("--time", args.time)) if v is not None]
    if args.points is not None and given:
        raise ScenarioConfigError(f"{given[0]} and --points exclude each other")
    s, raw = _load(args.scenario)
    from . import ranges  # compiled by evaluate only

    if args.points is not None:
        jobs = ranges.point_ranges(Path(args.points))
    else:
        time = 0.0 if args.time is None else args.time
        from .interaction import default_slice_grid

        z = default_slice_grid(s, [time], n=args.grid or GRID)
        jobs = ranges.grid_ranges(s, time, z)
    header = ["t1", "z1", "t2", "z2", "region"]
    for i in range(1, 5):
        header += [f"re_psi{i}", f"im_psi{i}"]
    head = [*_echo_lines("evaluate", raw, args.seed), ",".join(header)]
    dest = Path(args.out) / "fields.csv"
    n, flagged = _write_fields(s, jobs, dest, head)
    print(f"wrote {dest} ({n} rows, {flagged} outside the space-like domain)")
    return 0


def _check(value: float, tol: float, **extra) -> dict:
    entry = {"value": float(value), "tolerance": float(tol), "pass": bool(value <= tol)}
    entry.update(extra)
    return entry


def _sample_box(s: Scenario) -> tuple[tuple[float, float], tuple[float, float]]:
    """(t_span, z_span) covering where the evolved field can be nonzero."""
    hull = s.initial.support_hull() or (-1.0, 1.0)
    w = hull[1] - hull[0]
    t_half = 0.5 * w + 1.0
    return (-t_half, t_half), (hull[0] - 1.0, hull[1] + 1.0)


def _verify_checks(s: Scenario, args: argparse.Namespace, forks) -> dict[str, dict]:
    """The entries of verify's checks, by name in the report's order.

    The conservation entries are computed by a worker forked on forks when
    two or more CPUs are usable, beside the other checks, else here.
    """
    from . import blas, conservation, interaction, lorentz
    from .current import coincidence_flux, continuity_residual
    from .forks import send
    from .geometry import sample_spacelike
    from .solver import bc_defect, check_compatibility, evaluate_fields, pde_residual
    from .spin import exchange

    rng = np.random.default_rng(args.seed)
    q = conservation.QuadratureSpec(panels=args.panels)
    checks: dict[str, dict] = {}

    def run(names: str | tuple[str, ...], fn) -> None:
        # fn returns the entry of one name, or one entry per name of a tuple;
        # a raising fn fails every check it feeds, and the report goes on
        single = isinstance(names, str)
        group = (names,) if single else names
        try:
            entries = (fn(),) if single else fn()
        except Exception as err:
            error = f"{type(err).__name__}: {err}"
            entries = [{"pass": False, "error": error} for _ in group]
        checks.update(zip(group, entries))

    conserved = ("conservation_diffs", "excluded_pairs")

    def conservation_diffs() -> list[dict]:
        family = conservation.acceptance_family()
        reports = [conservation.normalization_report(s, surf, q) for surf in family]
        values = [r.value for r in reports]
        drift = max(values) - min(values) if values else 0.0
        excluded = int(sum(r.excluded_pairs for r in reports))
        entry = _check(
            drift, 1e-6, surfaces=[surf.label for surf in family], values=values
        )
        if all(r.box is None for r in reports):
            entry["degenerate"] = True  # zero scenario, integral vanishes
        return [entry, _check(float(excluded), 0.0)]

    if conservation.worker_count() > 1 and hasattr(os, "fork"):
        # the quadrature reads no other check and calls no BLAS, so a worker
        # runs it beside the other checks; it sends its entries as run made
        # them, so that an error of it is reported as one here would be

        def worker(reply) -> None:
            run(conserved, conservation_diffs)  # into the worker's copy of checks
            send(reply, [checks[name] for name in conserved])

        forks.fork(worker)

    def compatibility() -> list[dict]:
        # per condition the seam gaps of orders 0..2; conditions reports
        # order 0, the match in value
        maxima = check_compatibility(s)
        worst = np.max([np.zeros(3), *maxima.values()], axis=0)  # NaN stays NaN
        conditions = {name: float(m[0]) for name, m in maxima.items()}
        return [
            _check(worst[0], 1e-12, conditions=conditions),
            _check(worst[1], 1e-5),
            _check(worst[2], 1e-2),
        ]

    run(("compatibility", "seam_c1", "seam_c2"), compatibility)

    h = 1e-4
    t_span, z_span = _sample_box(s)
    t1, z1, t2, z2 = sample_spacelike(rng, 64, t_span, z_span, margin=4 * h)

    def residuals() -> list[dict]:
        pde_max, cont_max = (
            float(np.max(np.abs(probe(s, t1, z1, t2, z2, h))))
            for probe in (pde_residual, continuity_residual)
        )
        return [
            _check(pde_max, 1e-6, h=h, samples=int(t1.size)),
            _check(cont_max, 1e-5, h=h, samples=int(t1.size)),
        ]

    run(("pde_residuals", "continuity"), residuals)

    tt = rng.uniform(t_span[0], t_span[1], 1000)
    zz = rng.uniform(z_span[0], z_span[1], 1000)

    def both_sides(probe) -> float:
        # np.max, not max: a NaN on either side fails the check
        return float(np.max(np.abs([probe(s, tt, zz, side) for side in (1, 2)])))

    run("boundary_condition", lambda: _check(both_sides(bc_defect), 1e-13, samples=1000))
    run(
        "coincidence_flux",
        lambda: _check(both_sides(coincidence_flux), 1e-12, samples=1000),
    )

    if forks.pids:  # the worker's entries, received below, take this place
        checks.update(dict.fromkeys(conserved))
    else:
        run(conserved, conservation_diffs)

    b = lorentz.Boost(0.5)

    def covariance() -> dict:
        cov = lorentz.covariance_report(s, b, (t1, z1, t2, z2))
        parts = {
            "pde": _check(cov.pde_max, 1e-6),
            "boundary": _check(lorentz.jump_covariance_defect(b), 1e-12),
            "commutation": _check(lorentz.commutation_defect(b), 1e-13),
            "current": _check(lorentz.current_covariance_defect(b), 1e-12),
        }
        worst = float(np.max([p["value"] / p["tolerance"] for p in parts.values()]))
        return {
            "value": worst,
            "tolerance": 1.0,
            "pass": all(p["pass"] for p in parts.values()),
            "beta": b.beta,
            "parts": parts,
        }

    run("covariance", covariance)

    for side in (1, 2):
        phase = s.phase.on(side)
        if lorentz.manifest_sign(phase) is not None:
            run(
                f"manifest_form_side{side}",
                lambda phase=phase: _check(lorentz.manifest_defect(phase), 1e-13),
            )

    if s.antisymmetric:
        def antisymmetry() -> dict:
            psi = evaluate_fields(s, t1, z1, t2, z2)
            swapped = exchange(evaluate_fields(s, t2, z2, t1, z1))
            return _check(
                float(np.max(np.abs(psi + swapped))), 1e-13, samples=int(t1.size)
            )

        run("antisymmetry", antisymmetry)

    def schmidt() -> dict:
        values = interaction.schmidt_spectrum(sl)
        top = [float(v) for v in values[:4]]
        error = abs(float(np.sum(values**2)) - 1.0)
        # the BLAS thread count the SVD ran at: None where it cannot be read
        return _check(error, 1e-12, top_values=top, blas_threads=blas.threads())

    z = interaction.default_slice_grid(s, [0.0], n=args.grid)
    sl = interaction.single_time_slice(s, 0.0, z)
    if sl.block.size:  # an identically zero slice has no spectrum
        run("schmidt", schmidt)

    if forks.pids:
        run(conserved, lambda: forks.receive(0))
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    s, raw = _load(args.scenario)
    from .blas import one_thread
    from .forks import Forks

    # one BLAS thread: the Schmidt values are the same bytes on any host,
    # and the SVD leaves the other CPUs to the conservation worker
    with one_thread(), Forks("verify's conservation worker") as forks:
        checks = _verify_checks(s, args, forks)
    all_pass = all(entry["pass"] for entry in checks.values())
    report = {
        "command": "verify",
        "seed": args.seed,
        "panels": args.panels,
        "config_echo": raw,
        "checks": checks,
        "all_pass": all_pass,
    }
    dest = Path(args.out) / "verify.json"
    with _replacing(dest) as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, entry in checks.items():
        status = "PASS" if entry["pass"] else "FAIL"
        if "error" in entry:
            print(f"{status} {name}: {entry['error']}")
        else:
            print(f"{status} {name}: {entry['value']:.3e} (tol {entry['tolerance']:.1e})")
    print(f"report: {dest}")
    if all_pass:
        print("all checks passed")
        return 0
    print("verification FAILED")
    return 1


def _parse_times(spec: str) -> np.ndarray:
    try:
        start, stop, count = spec.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as err:
        raise ScenarioConfigError("--times must be start:stop:count") from err
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ScenarioConfigError(f"--times start and stop must be finite, got {spec}")
    if count < 1:
        raise ScenarioConfigError(f"--times count must be at least 1, got {count}")
    return np.linspace(start, stop, count)


def cmd_scatter(args: argparse.Namespace) -> int:
    s, raw = _load(args.scenario)
    from . import blas, conservation, fmt17, interaction

    hull = s.initial.support_hull()
    if hull is None:
        raise ScenarioConfigError("scatter needs a scenario with nonzero data")
    if args.times is not None:
        times = _parse_times(args.times)
    else:  # from 0 to the last of verify's sampling times
        t_span, _ = _sample_box(s)
        times = np.linspace(0.0, t_span[1], 17)
    q = conservation.QuadratureSpec(panels=args.panels)
    z = interaction.default_slice_grid(s, times, n=args.grid)

    rows = []
    with blas.one_thread():  # the Schmidt values are the same bytes on any host
        for t in times:
            masses = conservation.component_masses(s, float(t), q)
            sl = interaction.single_time_slice(s, float(t), z)
            if sl.block.size:  # an identically zero slice has no spectrum
                sigma = interaction.schmidt_spectrum(sl)[:4]
            else:
                sigma = np.zeros(4)
            rows.append((float(t), masses, sigma))

    dest = Path(args.out) / "scatter.csv"
    with _replacing(dest) as fh:
        for line in _echo_lines("scatter", raw, args.seed):
            fh.write(line + "\n")
        header = (
            ["t"]
            + [f"mass{i}" for i in range(1, 5)]
            + ["mass_total"]
            + [f"sigma{i}" for i in range(1, 5)]
        )
        fh.write(",".join(header) + "\n")
        table = [[t, *masses, float(np.sum(masses)), *sigma] for t, masses, sigma in rows]
        fh.write(fmt17.join_rows(*fmt17.format17(table)).decode("ascii"))

    totals = [float(np.sum(m)) for _, m, _ in rows]
    print(f"wrote {dest} ({len(rows)} times)")
    print(
        f"total mass min {min(totals):.12f} max {max(totals):.12f} "
        f"drift {max(totals) - min(totals):.3e}"
    )
    return 0


def _load(path: str) -> tuple[Scenario, str]:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ScenarioConfigError(f"cannot read scenario file: {err}") from err
    return load_scenario(text)


def _at_least(low: int):
    """argparse type for an int >= low, so that a bad value names its flag."""

    def parse(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n

    parse.__name__ = "int"  # a ValueError then reads "invalid int value"
    return parse


def _finite(text: str) -> float:
    """argparse type for a finite float, so that nan or inf names its flag."""
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return x


_finite.__name__ = "float"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtdirac",
        description="two-particle multi-time transport with contact interaction",
        epilog="evaluate runs one worker process per usable CPU, verify one worker"
        " for its quadrature on two or more, and the quadrature's whole-grid path"
        " one thread per usable CPU from 256 rows on (limit them with taskset).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="field values at configurations")
    p_verify = sub.add_parser("verify", help="run all invariant checks")
    p_scatter = sub.add_parser("scatter", help="mass and Schmidt time series")
    for p in (p_eval, p_verify, p_scatter):
        p.add_argument("--scenario", required=True, help="scenario config JSON file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=0, help="sampling seed")
        p.add_argument("--grid", type=_at_least(2), default=GRID, help="slice grid points")
    for p in (p_verify, p_scatter):  # evaluate integrates nothing
        p.add_argument(
            "--panels", type=_at_least(1), default=64, help="quadrature panels per axis"
        )

    p_eval.add_argument(
        "--points",
        help="CSV file with a header naming columns t1,z1,t2,z2 (other columns"
        " ignored); no comment lines; excludes --grid and --time",
    )
    p_eval.add_argument("--time", type=_finite, help="grid slice time (default 0)")
    # None marks a grid flag as not given, which --points requires
    p_eval.set_defaults(fn=cmd_evaluate, grid=None)
    p_verify.set_defaults(fn=cmd_verify)
    p_scatter.add_argument("--times", help="time samples as start:stop:count")
    p_scatter.set_defaults(fn=cmd_scatter)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as err:  # ScenarioConfigError among them
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
