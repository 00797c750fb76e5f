"""The benchmark's workloads, one `mtdirac` command each, and their gates.

A workload prepares its inputs from the seed, builds the argument list of
one command call, and checks the call's output against the guarantees the
README states.  `run_op` runs one call in this process through
`mtdirac.cli.main` and gates it; a nonzero exit, an exception or a broken
gate makes the operation failed.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import points as point_gen

ROOT = Path(__file__).resolve().parent.parent


class GateError(Exception):
    """An operation's output breaks a guarantee."""


def load_program():
    """Import mtdirac.cli from this checkout's src/, or exit with an error.

    tests/ goes on the path too, for the solver-free oracle in tests/tracing.py.
    """
    src = ROOT / "src"
    if not (src / "mtdirac" / "cli.py").is_file():
        sys.exit(f"error: no mtdirac sources under {src}")
    if not (ROOT / "tests" / "tracing.py").is_file():
        sys.exit(f"error: no tests/tracing.py under {ROOT}")
    sys.path.insert(0, str(src))
    sys.path.append(str(ROOT / "tests"))
    import mtdirac.cli

    if Path(mtdirac.cli.__file__).resolve().parent != src / "mtdirac":
        sys.exit(f"error: mtdirac imported from {mtdirac.cli.__file__}, not {src}")
    return mtdirac.cli


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise GateError(reason)


class Verify:
    """mtdirac verify on mirror_bump at 128 panels."""

    name = "verify-mirror128"
    output = "verify.json"

    def __init__(self, config: str = "configs/mirror_bump.json", panels: int = 128):
        self.config = config
        self.panels = panels

    def prepare(self, seed: int, work: Path) -> dict:
        return {"seed": seed}

    def argv(self, ctx: dict, out: Path) -> list[str]:
        return ["verify", "--scenario", str(ROOT / self.config), "--panels",
                str(self.panels), "--out", str(out), "--seed", str(ctx["seed"])]

    def gate(self, ctx: dict, out: Path) -> dict:
        report = json.loads((out / self.output).read_text())
        checks = report["checks"]
        failing = sorted(k for k, v in checks.items() if not v["pass"])
        _require(report["all_pass"] and not failing, f"failing checks {failing}")
        return {
            k: checks[k]["value"]
            for k in ("conservation_diffs", "pde_residuals", "boundary_condition")
        }


class Evaluate:
    """mtdirac evaluate on mirror_bump at seeded scattered points."""

    name = "evaluate-points"
    output = "fields.csv"
    config = "configs/mirror_bump.json"

    def __init__(self, rows: int = 2**18, samples: int = 1024):
        self.rows = rows
        self.samples = samples

    def prepare(self, seed: int, work: Path) -> dict:
        pts, kinds = point_gen.generate(seed, self.rows)
        path = work / "points.csv"
        point_gen.write_csv(pts, path)
        rng = np.random.default_rng([seed, 0x0AC1E])
        sample = np.sort(rng.choice(self.rows, min(self.samples, self.rows), replace=False))
        from mtdirac.scenario import load_scenario
        from tracing import reference_value

        scenario, _ = load_scenario((ROOT / self.config).read_text())
        return {
            "seed": seed,
            "points_csv": path,
            "points": pts,
            "kinds": kinds,
            "flagged": int(np.count_nonzero(kinds != point_gen.SPACELIKE)),
            "sample": sample.tolist(),
            "scenario": scenario,
            "oracle": reference_value,
        }

    def argv(self, ctx: dict, out: Path) -> list[str]:
        return ["evaluate", "--scenario", str(ROOT / self.config), "--points",
                str(ctx["points_csv"]), "--out", str(out), "--seed", str(ctx["seed"])]

    def gate(self, ctx: dict, out: Path) -> dict:
        pts, kinds = ctx["points"], ctx["kinds"]
        # streamed, so the gate does not raise the process's peak memory above the call's
        wanted = iter(ctx["sample"])
        k_next = next(wanted, None)
        picked = []
        rows = flagged = 0
        with open(out / self.output, "rb") as fh:
            lines = (line for line in fh if not line.startswith(b"#"))
            next(lines, None)  # header; an empty file fails the row count below
            for k, line in enumerate(lines):
                rows += 1
                if b",Omega" not in line:
                    flagged += 1
                if k == k_next:
                    picked.append((k, line))
                    k_next = next(wanted, None)
        _require(rows == len(pts), f"{rows} rows written, expected {len(pts)}")
        _require(flagged == ctx["flagged"], f"{flagged} rows flagged, expected {ctx['flagged']}")
        worst = max(
            self._check_row(ctx, k, line.decode().rstrip("\n").split(","), pts[k], kinds[k])
            for k, line in picked
        )
        _require(worst <= 1e-12, f"sampled rows differ from the oracle by {worst:.3e}")
        return {"flagged_rows": flagged, "oracle_max_diff": worst}

    def _check_row(self, ctx: dict, k: int, cells: list[str], p, kind: int) -> float:
        _require([float(c) for c in cells[:4]] == list(p), f"row {k} coordinates changed")
        if kind != point_gen.SPACELIKE:
            want = point_gen.REGION_OF_KIND[kind]
            _require(cells[4] == want, f"row {k} is {cells[4]}, expected {want}")
            _require(all(c == "" for c in cells[5:]), f"row {k} is flagged but has values")
            return 0.0
        want = "Omega1" if p[1] < p[3] else "Omega2"
        _require(cells[4] == want, f"row {k} is {cells[4]}, expected {want}")
        ref = ctx["oracle"](ctx["scenario"], *p)
        got = [complex(float(cells[5 + 2 * i]), float(cells[6 + 2 * i])) for i in range(4)]
        return max(abs(a - b) for a, b in zip(got, ref))


WORKLOADS = {w.name: w for w in (Verify(), Evaluate())}


@dataclass
class Op:
    seconds: float
    ok: bool
    reason: str = ""
    acc: dict = field(default_factory=dict)
    digest: str = ""
    bytes_written: int = 0


def run_op(workload, ctx: dict, out: Path, main, tracer=None, digest: str | None = None) -> Op:
    """One command call, timed, then gated; tracer (if given) is live only for the call.

    digest, when given, is the output digest the call must reproduce: outputs
    are deterministic for a fixed scenario, options and seed.
    """
    out.mkdir(parents=True, exist_ok=True)
    for old in out.iterdir():
        old.unlink()
    argv = workload.argv(ctx, out)
    if tracer is not None:
        main = tracer.wrap("cli", main)
        tracer.install()
    error = ""
    t0 = perf_counter()
    try:
        with redirect_stdout(io.StringIO()):  # the CLI's summary lines
            code = main(argv)
    except SystemExit as err:
        code = err.code
    except Exception as err:  # a crash is a failed operation, not a failed run
        code, error = None, f"{type(err).__name__}: {err}"
    seconds = perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    op = Op(seconds=seconds, ok=False,
            bytes_written=sum(p.stat().st_size for p in out.iterdir()))
    if code != 0:
        op.reason = error or f"exit code {code}"
        return op
    try:
        op.acc = workload.gate(ctx, out)
        op.digest = sha256(out / workload.output)
        _require(digest is None or op.digest == digest, "output differs from the run's first call")
    except (GateError, OSError, ValueError, KeyError, IndexError) as err:
        op.reason = f"{type(err).__name__}: {err}"
        return op
    op.ok = True
    return op
