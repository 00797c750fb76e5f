"""Self-tests of the benchmark: python3 -m pytest perfbench -q (about half a minute)."""

import json
import sys

import numpy as np
import pytest

import points
import workloads
from tracer import LayerTotals, Tracer
from workloads import ROOT, Evaluate, Verify, run_op

cli = workloads.load_program()


def test_generator_is_byte_identical_for_a_seed(tmp_path):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    points.write_csv(points.generate(7, 4096)[0], a)
    points.write_csv(points.generate(7, 4096)[0], b)
    points.write_csv(points.generate(8, 4096)[0], c)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_generator_kinds_match_the_program_classification():
    from mtdirac.geometry import Configuration, classify

    pts, kinds = points.generate(3, 4096)
    assert np.isfinite(pts).all()
    share = np.mean(kinds != points.SPACELIKE)
    assert 0.09 < share < 0.11
    assert {points.TIMELIKE, points.LIGHTLIKE, points.COINCIDENCE} <= set(kinds.tolist())
    for p, kind in zip(pts.tolist(), kinds.tolist()):
        region = classify(Configuration(*p)).value
        if kind == points.SPACELIKE:
            assert region == ("Omega1" if p[1] < p[3] else "Omega2")
        else:
            assert region == points.REGION_OF_KIND[kind]


def test_gate_counts_a_failing_verify_as_failed(tmp_path):
    cfg = json.loads((ROOT / "configs/mirror_bump.json").read_text())
    cfg["initial"]["g4"]["omega1"]["support"] = [[-1, -0.5], [1.5, 2]]
    path = tmp_path / "narrow_g4.json"
    path.write_text(json.dumps(cfg))
    op = run_op(Verify(config=str(path), panels=64), {"seed": 0}, tmp_path / "out", cli.main)
    assert not op.ok
    assert op.reason == "exit code 1"


def test_gate_catches_a_wrong_field_value(tmp_path):
    wl = Evaluate(rows=512, samples=512)
    ctx = wl.prepare(5, tmp_path)
    out = tmp_path / "out"
    assert run_op(wl, ctx, out, cli.main).ok
    lines = (out / wl.output).read_text().splitlines(keepends=True)
    k = next(i for i, line in enumerate(lines) if ",Omega" in line)
    cells = lines[k].split(",")
    cells[5] = repr(float(cells[5]) + 1e-9)
    lines[k] = ",".join(cells)
    (out / wl.output).write_text("".join(lines))
    with pytest.raises(workloads.GateError, match="oracle"):
        wl.gate(ctx, out)


@pytest.mark.parametrize(
    "wl", [Verify(panels=64), Evaluate(rows=4096)], ids=lambda w: w.name
)
def test_traced_and_untraced_outputs_have_identical_digests(tmp_path, wl):
    ctx = wl.prepare(11, tmp_path)
    plain = run_op(wl, ctx, tmp_path / "plain", cli.main)
    tracer = Tracer()
    traced = run_op(wl, ctx, tmp_path / "traced", cli.main, tracer, plain.digest)
    assert plain.ok and traced.ok, (plain.reason, traced.reason)
    assert traced.digest == plain.digest
    spans = tracer.drain()
    assert {rec[0] for rec in spans} >= {"cli", "solver.evaluate_fields", "scenario.component"}
    totals = LayerTotals()
    totals.add(spans)
    assert totals.metrics(1, 1, traced.bytes_written)["scenario.evals_per_field_point"][0] > 0
    # nothing stays installed after the call
    from mtdirac.profiles import Profile1D
    from mtdirac.scenario import Component2D

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "mtdirac":
            assert all(getattr(v, "__name__", "") != "traced" for v in vars(mod).values())
    assert Component2D.__call__.__name__ == Profile1D.__call__.__name__ == "__call__"
