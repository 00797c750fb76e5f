"""mtdirac command line: evaluate fields, verify invariants, run scattering.

Subcommands
-----------
evaluate  field values at configurations from --points or an equal-time --grid
verify    run every invariant check on a scenario, JSON report + exit code
scatter   equal-time mass and Schmidt time series for a scattering scenario

Outputs are deterministic: a fixed scenario file, options and --seed yield
byte-identical files (floats printed with %.17g, LF line endings, raw
config echoed in headers).  MTDIRAC_THREADS caps evaluation threads and
never changes results.  Exit codes: 0 success / all checks pass, 1 at
least one verification failure, 2 usage or config errors or an output
that cannot be written.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import conservation, fmt17, interaction, lorentz
from .geometry import REGIONS, Region, regions, sample_spacelike
from .scenario import Scenario, ScenarioConfigError, check_compatibility, load_scenario
from .solver import (
    bc_defect,
    evaluate_fields,
    evaluate_grid,
    pde_residual,
    seam_mismatch,
)
from .current import coincidence_flux, continuity_residual
from .spin import exchange


def _echo_lines(command: str, raw: str, seed: int) -> list[str]:
    return [
        f"# mtdirac {command}",
        f"# config: {json.dumps(raw)}",
        f"# seed: {seed}",
    ]


@contextlib.contextmanager
def _replacing(dest: Path):
    """A text file that becomes dest only if the block finishes.

    It is written as a hidden temporary file next to dest (the directory is
    made if needed) and renamed onto dest by os.replace; if the block
    raises, the temporary file is removed, so a failing command leaves no
    partial output.
    """
    dest.parent.mkdir(parents=True, exist_ok=True)
    tmp = dest.with_name(f".{dest.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="\n") as fh:
            yield fh
        os.replace(tmp, dest)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_points(path: Path) -> np.ndarray:
    """The (4, n) coordinates t1, z1, t2, z2 of a CSV file, columns found by name.

    The file is UTF-8, with or without a byte-order mark.  The header is one
    csv row; a repeated name means its last column.  The
    rows are parsed by np.loadtxt on the same handle: blank lines and extra
    columns are skipped, quoted cells accepted, and a short row, a "#" or an
    unparsable cell is a "bad points file".
    """
    cols = ("t1", "z1", "t2", "z2")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header = next(csv.reader(fh), [])
        index = {name: k for k, name in enumerate(header)}
        if any(c not in index for c in cols):
            msg = f"points file needs columns {cols}, its header has {tuple(header)}"
            raise ScenarioConfigError(msg)
        try:
            with warnings.catch_warnings():  # a header-only file is reported below
                warnings.filterwarnings(
                    "ignore", "loadtxt: input contained no data", UserWarning
                )
                pts = np.loadtxt(
                    fh,
                    delimiter=",",
                    usecols=[index[c] for c in cols],
                    ndmin=2,
                    quotechar='"',
                    comments=None,  # "#" is not a comment: such a line is an error
                )
        except ValueError as err:
            raise ScenarioConfigError(f"bad points file: {err}") from err
    if pts.shape[0] == 0:
        raise ScenarioConfigError("points file has no rows")
    return pts.T


_SPACELIKE = (Region.OMEGA1, Region.OMEGA2)


def cmd_evaluate(args: argparse.Namespace) -> int:
    s, raw = _load(args.scenario)
    if args.points is not None:
        pts = _read_points(Path(args.points))
        label = regions(*pts)
        live = np.isin(label, [REGIONS.index(r) for r in _SPACELIKE])
        psi = np.zeros((4, label.size), dtype=complex)
        if live.any():
            psi[:, live] = evaluate_fields(s, *(p[live] for p in pts))
    else:  # the pairs (z_i, z_j), i-major
        z = interaction.default_slice_grid(s, [args.time], n=args.grid)
        tz = np.full(z.size, args.time)
        psi, bad = evaluate_grid(s, tz, z, tz, z)
        psi, live = psi.reshape(4, -1), ~bad.reshape(-1)
        t = np.full(z.size**2, args.time)
        pts = np.stack([t, np.repeat(z, z.size), t, np.tile(z, z.size)])
        label = regions(*pts)

    names = [r.value.encode() for r in REGIONS]
    name_pool = np.frombuffer(b"".join(names), dtype=np.uint8)
    name_length = np.array([len(b) for b in names])
    name_start = np.cumsum(name_length) - name_length
    dest = Path(args.out) / "fields.csv"
    with _replacing(dest) as fh:
        for line in _echo_lines("evaluate", raw, args.seed):
            fh.write(line + "\n")
        header = ["t1", "z1", "t2", "z2", "region"]
        for i in range(1, 5):
            header += [f"re_psi{i}", f"im_psi{i}"]
        fh.write(",".join(header) + "\n")
        for first in range(0, label.size, 4096):  # bounded text, bounded peak memory
            part = slice(first, first + 4096)
            rows, on = label[part], live[part]
            coords = pts[:, part].T
            words = psi[:, part].T[on].view(float)  # re, im of psi1..psi4
            pool, start, length = fmt17.format17(
                np.concatenate([coords.reshape(-1), words.reshape(-1)])
            )
            # (start, length) of each row's cells: four coordinates, the region
            # name, eight psi words (empty on a flagged row)
            cell = np.stack([start, length])
            split = 4 * rows.size
            cells = np.zeros((2, rows.size, 13), dtype=np.int64)
            cells[:, :, :4] = cell[:, :split].reshape(2, -1, 4)
            cells[:, :, 4] = pool.size + name_start[rows], name_length[rows]
            cells[:, on, 5:] = cell[:, split:].reshape(2, -1, 8)
            text = fmt17.join_rows(np.concatenate([pool, name_pool]), *cells)
            fh.write(text.decode("ascii"))
    flagged = int((~live).sum())
    print(f"wrote {dest} ({label.size} rows, {flagged} outside the space-like domain)")
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


def cmd_verify(args: argparse.Namespace) -> int:
    s, raw = _load(args.scenario)
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

    def compatibility() -> dict:
        rep = check_compatibility(s)
        return _check(rep.max_violation, 1e-12, conditions=rep.condition_maxima)

    run("compatibility", compatibility)

    hull = s.initial.support_hull()
    if hull is not None:
        def seams() -> list[dict]:
            vs = np.linspace(hull[0], hull[1], 101)
            worst = np.zeros(3)
            for comp in (2, 3):
                for half in (1, 2):
                    worst = np.maximum(
                        worst, seam_mismatch(s, comp, half, vs).max(axis=1)
                    )
            return [_check(w, tol) for w, tol in zip(worst, (1e-10, 1e-5, 1e-2))]

        run(("seam_c0", "seam_c1", "seam_c2"), seams)

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
        return max(float(np.max(np.abs(probe(s, tt, zz, side)))) for side in (1, 2))

    run("boundary_condition", lambda: _check(both_sides(bc_defect), 1e-13, samples=1000))
    run(
        "coincidence_flux",
        lambda: _check(both_sides(coincidence_flux), 1e-12, samples=1000),
    )

    def conservation_diffs() -> list[dict]:
        family = conservation.acceptance_family()
        reports = [conservation.normalization_report(s, surf, q) for surf in family]
        values = [r.value for r in reports]
        drift = max(values) - min(values) if values else 0.0
        excluded = int(sum(r.excluded_pairs for r in reports))
        entry = _check(
            drift,
            1e-6,
            surfaces=[surf.label for surf in family],
            values=values,
            excluded_pairs=excluded,
        )
        if all(r.box is None for r in reports):
            entry["degenerate"] = True  # zero scenario, integral vanishes
        return [entry, _check(float(excluded), 0.0)]

    run(("conservation_diffs", "excluded_pairs"), conservation_diffs)

    b = lorentz.Boost(0.5)

    def covariance() -> dict:
        cov = lorentz.covariance_report(s, b, (t1, z1, t2, z2), (tt, zz))
        tc1, zc1, tc2, zc2 = sample_spacelike(rng, 256, t_span, z_span)
        parts = {
            "pde": _check(cov.pde_max, 1e-6),
            "boundary": _check(cov.bc_max, 1e-12),
            "commutation": _check(lorentz.commutation_defect(b), 1e-13),
            "current": _check(
                lorentz.current_covariance_defect(s, b, tc1, zc1, tc2, zc2), 1e-12
            ),
        }
        worst = max(p["value"] / p["tolerance"] for p in parts.values())
        return {
            "value": worst,
            "tolerance": 1.0,
            "pass": all(p["pass"] for p in parts.values()),
            "beta": b.beta,
            "parts": parts,
        }

    run("covariance", covariance)

    for side in (1, 2):
        if s.phase.on(side).kind in ("plus_i", "minus_i"):
            run(
                f"manifest_form_side{side}",
                lambda side=side: _check(
                    float(np.max(np.abs(lorentz.manifest_defect(s, tt, zz, side)))),
                    1e-13,
                ),
            )

    if s.antisymmetric:
        def antisymmetry() -> dict:
            psi = evaluate_fields(s, t1, z1, t2, z2)
            swapped = exchange(evaluate_fields(s, t2, z2, t1, z1))
            return _check(
                float(np.max(np.abs(psi + swapped))), 1e-13, samples=int(t1.size)
            )

        run("antisymmetry", antisymmetry)

    if hull is not None:
        def schmidt() -> dict:
            values = interaction.schmidt_spectrum(sl)
            top = [float(v) for v in values[:4]]
            return _check(abs(float(np.sum(values**2)) - 1.0), 1e-12, top_values=top)

        z = interaction.default_slice_grid(s, [0.0], n=args.grid)
        sl = interaction.single_time_slice(s, 0.0, z)
        if sl.matrix.any():  # an identically zero slice has no spectrum
            run("schmidt", schmidt)

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
    hull = s.initial.support_hull()
    if hull is None:
        raise ScenarioConfigError("scatter needs a scenario with nonzero data")
    if args.times is not None:
        times = _parse_times(args.times)
    else:
        horizon = 0.5 * (hull[1] - hull[0]) + 1.0
        times = np.linspace(0.0, horizon, 17)
    q = conservation.QuadratureSpec(panels=args.panels)
    z = interaction.default_slice_grid(s, times, n=args.grid)

    rows = []
    for t in times:
        masses = conservation.component_masses(s, float(t), q)
        sl = interaction.single_time_slice(s, float(t), z)
        if sl.matrix.any():  # an identically zero slice has no spectrum
            sigma = interaction.schmidt_spectrum(sl)[:4]
        else:
            sigma = np.zeros(4)
        rows.append((float(t), masses, np.asarray(sigma)))

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
        table = [
            [t, *masses, float(np.sum(masses)), *np.pad(sigma, (0, 4 - sigma.size))]
            for t, masses, sigma in rows
        ]
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
        epilog="MTDIRAC_THREADS caps evaluation threads (default 1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", required=True, help="scenario config JSON file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=0, help="sampling seed")
        p.add_argument(
            "--panels", type=_at_least(1), default=64, help="quadrature panels per axis"
        )
        p.add_argument("--grid", type=_at_least(2), default=256, help="slice grid points")

    p_eval = sub.add_parser("evaluate", help="field values at configurations")
    common(p_eval)
    p_eval.add_argument(
        "--points",
        help="CSV file with a header naming columns t1,z1,t2,z2 (other columns"
        " ignored); no comment lines",
    )
    p_eval.add_argument("--time", type=_finite, default=0.0, help="grid slice time")
    p_eval.set_defaults(fn=cmd_evaluate)

    p_verify = sub.add_parser("verify", help="run all invariant checks")
    common(p_verify)
    p_verify.set_defaults(fn=cmd_verify)

    p_scatter = sub.add_parser("scatter", help="mass and Schmidt time series")
    common(p_scatter)
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
