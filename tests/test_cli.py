import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from mtdirac.cli import main
from mtdirac.conservation import QuadratureSpec, component_masses
from mtdirac.geometry import (
    REGIONS,
    Configuration,
    Region,
    classify,
    regions,
    sample_spacelike,
)
from mtdirac.interaction import default_slice_grid
from mtdirac.scenario import load_scenario
from mtdirac.solver import evaluate_fields

PACKET_CFG = "configs/wavepacket.json"
MIRROR_CFG = "configs/mirror_bump.json"


def _read(path):
    with open(path, newline="") as fh:
        return fh.read()


def test_evaluate_points_roundtrip(tmp_path):
    pts = tmp_path / "points.csv"
    pts.write_text(
        "t1,z1,t2,z2\n"
        "0.25,-1.5,0.125,1.5\n"
        "0.0,0.0,1.0,1.0\n"  # light-like: flagged
        "0.5,-2.0,0.5,2.0\n"
        "0.3,0.5,0.3,0.5\n"  # coincidence: flagged
    )
    out = tmp_path / "out"
    rc = main(
        ["evaluate", "--scenario", PACKET_CFG, "--out", str(out), "--points", str(pts)]
    )
    assert rc == 0
    lines = _read(out / "fields.csv").splitlines()
    raw = _read(PACKET_CFG)
    assert lines[0] == "# mtdirac evaluate"
    assert lines[1] == "# config: " + json.dumps(raw)
    assert lines[2] == "# seed: 0"
    header = lines[3].split(",")
    assert header[:5] == ["t1", "z1", "t2", "z2", "region"]
    assert header[5:7] == ["re_psi1", "im_psi1"] and len(header) == 13
    rows = [line.split(",") for line in lines[4:]]
    assert len(rows) == 4
    assert rows[0][4] == "Omega1" and rows[2][4] == "Omega1"
    assert rows[1][4] == "LightLike" and rows[3][4] == "Coincidence"
    assert all(cell == "" for cell in rows[1][5:])
    assert all(cell == "" for cell in rows[3][5:])
    # %.17g round-trips doubles exactly
    s, _ = load_scenario(raw)
    psi = evaluate_fields(s, 0.25, -1.5, 0.125, 1.5)
    for i in range(4):
        assert float(rows[0][5 + 2 * i]) == psi[i].real
        assert float(rows[0][6 + 2 * i]) == psi[i].imag


def _evaluate_points(tmp_path, name, lines):
    pts = tmp_path / f"{name}.csv"
    pts.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    out = tmp_path / name
    argv = ["evaluate", "--scenario", PACKET_CFG, "--out", str(out), "--points"]
    return main(argv + [str(pts)]), out


def _rows(out):
    return [line.split(",") for line in _read(out / "fields.csv").splitlines()[4:]]


def test_evaluate_flags_nonfinite_rows(tmp_path, capsys):
    good = ["0.25,-1.5,0.125,1.5", "0.0,0.0,1.0,1.0", "0.5,2.0,0.25,-2.0"]
    bad = ["nan,0,0,1", "0.5,inf,0.5,0", "0,0,-inf,nan"]
    rc, clean = _evaluate_points(tmp_path, "clean", ["t1,z1,t2,z2"] + good)
    assert rc == 0
    mixed = [bad[0], good[0], bad[1], good[1], good[2], bad[2]]
    rc, out = _evaluate_points(tmp_path, "mixed", ["t1,z1,t2,z2"] + mixed)
    assert rc == 0
    assert "6 rows, 4 outside the space-like domain" in capsys.readouterr().out
    rows = _rows(out)
    flagged = [rows[k] for k in (0, 2, 5)]
    assert [r[:4] for r in flagged] == [
        ["nan", "0", "0", "1"], ["0.5", "inf", "0.5", "0"], ["0", "0", "-inf", "nan"]
    ]
    for r in flagged:
        assert r[4] == "NonFinite" and r[5:] == [""] * 8
    assert [rows[k] for k in (1, 3, 4)] == _rows(clean)


@pytest.mark.filterwarnings("error")
def test_evaluate_rejects_header_only_points_file(tmp_path, capsys):
    rc, out = _evaluate_points(tmp_path, "empty", ["t1,z1,t2,z2"])
    assert rc == 2
    assert capsys.readouterr().err == "error: points file has no rows\n"
    assert not out.exists()


def test_evaluate_reads_quoted_cells_and_skips_blank_lines(tmp_path):
    plain = ["t1,z1,t2,z2", "0.25,-1.5,0.125,1.5", "0.5,-2.0,0.5,2.0"]
    rc, clean = _evaluate_points(tmp_path, "plain", plain)
    assert rc == 0 and len(_rows(clean)) == 2
    variants = {
        "quoted": ["t1,z1,t2,z2", "", '"0.25",-1.5,0.125,"1.5"', "", "0.5,-2.0,0.5,2.0"],
        "crlf": [line + "\r" for line in plain[:2] + [""] + plain[2:]],
        "repeated": ["t1,z1,t2,t1,z2", "9,-1.5,0.125,0.25,1.5", "9,-2.0,0.5,0.5,2.0"],
        "ragged": ["t1,z1,t2,z2,note", "0.25,-1.5,0.125,1.5,a", "0.5,-2.0,0.5,2.0"],
        "bom": ["\ufeff" + plain[0], *plain[1:]],  # as spreadsheet exports write it
    }
    for name, lines in variants.items():
        rc, out = _evaluate_points(tmp_path, name, lines)
        assert rc == 0, name
        assert _rows(out) == _rows(clean), name


def test_evaluate_names_the_header_it_read(tmp_path, capsys):
    rc, out = _evaluate_points(tmp_path, "names", ["t1,z1,t2,Z2", "0.5,-2.0,0.5,2.0"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: points file needs columns ('t1', 'z1', 't2', 'z2'), "
        "its header has ('t1', 'z1', 't2', 'Z2')\n"
    )
    assert not out.exists()


# "1_0" and a non-ASCII digit are floats to Python's float(), not to the reader
@pytest.mark.parametrize(
    "row",
    [
        "0.25,-1.5,0.125",
        "0.25,abc,0.125,1.5",
        "#x",
        "1,2,3,4#c",
        "   ",
        "0.25,,0.125,1.5",
        "1_0,-1.5,0.125,1.5",
        "0.25,-1.5,0.125,\u0663",
    ],
    ids=[
        "short_row",
        "bad_cell",
        "hash_line",
        "hash_in_cell",
        "whitespace_line",
        "empty_cell",
        "underscore",
        "non_ascii_digit",
    ],
)
def test_evaluate_rejects_a_bad_points_row(tmp_path, capsys, row):
    rc, out = _evaluate_points(tmp_path, "bad", ["t1,z1,t2,z2", "0.5,-2.0,0.5,2.0", row])
    assert rc == 2
    assert "error: bad points file" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_regions_match_the_per_row_rule(tmp_path):
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2.0, 2.0, (200, 4))
    pts[::7, 2:] = pts[::7, :2]  # coincidence
    k = np.arange(3, 200, 11)
    dt = rng.integers(1, 9, k.size) / 8.0
    pts[k, :2] = np.round(pts[k, :2] * 8.0) / 8.0  # dyadic, so light-like is exact
    pts[k, 2] = pts[k, 0] - dt
    pts[k, 3] = pts[k, 1] + dt * np.where(k % 2 == 0, 1.0, -1.0)  # both directions
    lines = ["extra,t2,z2,t1,z1"] + [
        f"x,{t2!r},{z2!r},{t1!r},{z1!r}" for t1, z1, t2, z2 in pts.tolist()
    ]
    rc, out = _evaluate_points(tmp_path, "mixed", lines)
    assert rc == 0
    rows = _rows(out)
    assert len(rows) == 200
    want = [classify(Configuration(*p)).value for p in pts.tolist()]
    assert [r[4] for r in rows] == want
    assert {"Omega1", "Omega2", "Coincidence", "LightLike", "TimeLike"} <= set(want)
    assert [[float(c) for c in r[:4]] for r in rows] == pts.tolist()


def _oracle_lines(s, pts):
    """fields.csv data lines built cell by cell from regions and evaluate_fields."""
    label = regions(*pts)
    spacelike = np.isin(label, [REGIONS.index(r) for r in (Region.OMEGA1, Region.OMEGA2)])
    psi = np.zeros((4, label.size), dtype=complex)
    psi[:, spacelike] = evaluate_fields(s, *(p[spacelike] for p in pts))
    lines = []
    for k in range(label.size):
        cells = [format(x, ".17g") for x in pts[:, k]] + [REGIONS[label[k]].value]
        if spacelike[k]:
            cells += [format(x, ".17g") for v in psi[:, k] for x in (v.real, v.imag)]
        else:
            cells += [""] * 8
        lines.append(",".join(cells) + "\n")
    return lines, label, psi[:, spacelike]


# coordinates that the %.17g kernel leaves to Python (a tie, a subnormal, a
# value past 1e280) or writes without digits (-0.0), and the ends of fixed
# notation (1e16, 1e-5)
FALLBACK_ROWS = [
    [0.0, 123456789012345.625, 0.0, 0.5],
    [5e-324, -1.0, 0.0, 1.0],
    [1e300, 1e300, 0.5, -1.0],  # |dt| = |dz| = 1e300 once rounded: LightLike
    [-0.0, -0.0, 0.5, 1.0],
    [1e16, 0.0, 1e16, 1.0],
    [1e-5, 0.3, -1e-5, -0.4],
]


@pytest.mark.parametrize("source", ["points", "grid", "fallback"])
def test_evaluate_writes_every_cell_as_format_17g(tmp_path, source):
    s, _ = load_scenario(_read(MIRROR_CFG))
    out = tmp_path / "out"
    argv = ["evaluate", "--scenario", MIRROR_CFG, "--out", str(out)]
    if source in ("points", "fallback"):
        rng = np.random.default_rng(11)
        pts = rng.uniform([-3.25, -3.0, -3.25, -3.0], [3.25, 3.5, 3.25, 3.5], (600, 4))
        pts[::50, 2:] = pts[::50, :2]  # coincidence
        pts[7::50] = [0.5, 0.25, 0.0, 0.75]  # light-like, exact in binary
        pts[9::50, 1] = np.nan
        if source == "fallback":
            pts[20 : 20 + len(FALLBACK_ROWS)] = FALLBACK_ROWS
        path = tmp_path / "points.csv"
        rows = ("%r,%r,%r,%r\n" % tuple(p) for p in pts.tolist())
        path.write_text("t1,z1,t2,z2\n" + "".join(rows))
        argv += ["--points", str(path)]
        pts = pts.T
    else:
        z = default_slice_grid(s, [1.5], n=8)
        t = np.full(z.size**2, 1.5)
        pts = np.stack([t, np.repeat(z, z.size), t, np.tile(z, z.size)])
        argv += ["--grid", "8", "--time", "1.5"]
    assert main(argv) == 0
    want, label, psi = _oracle_lines(s, pts)
    with open(out / "fields.csv", newline="") as fh:
        assert fh.readlines()[4:] == want
    # every kind of row: all +0.0, zero but with a -0.0 cell, nonzero, each flagged region
    words = np.ascontiguousarray(psi.T).view(float)
    plus_zero = ~words.view(np.uint64).any(axis=1)
    zero = (words == 0).all(axis=1)
    assert plus_zero.any() and (zero & ~plus_zero).any() and (~zero).any()
    spacelike = {Region.OMEGA1, Region.OMEGA2}
    flagged = {Region.COINCIDENCE} if source == "grid" else set(REGIONS) - spacelike
    assert {REGIONS[k] for k in label} == flagged | spacelike


def _word_kinds(m):
    """(m, 8) psi words of twelve kinds of row in turn: all +0.0, a -0.0, one
    nonzero word in each of the eight places, a NaN word, no zero word."""
    rng = np.random.default_rng(31)
    words = np.zeros((m, 8))
    kind = np.arange(m) % 12
    words[kind == 1, 3] = -0.0
    for place in range(8):
        words[kind == 2 + place, place] = rng.uniform(-2.0, 2.0, np.count_nonzero(kind == 2 + place))
    words[kind == 10, 5] = np.nan
    words[kind == 11] = rng.uniform(-2.0, 2.0, (np.count_nonzero(kind == 11), 8))
    return words


@pytest.mark.parametrize("source", ["points", "grid"])
def test_evaluate_writes_zero_rows_as_every_other_row(tmp_path, monkeypatch, source):
    # rows of all-+0.0 words are written as one tail: the bytes are those
    # of the cells one by one, beside flagged rows and rows of -0.0, of
    # one nonzero word and of a NaN
    s, _ = load_scenario(_read(MIRROR_CFG))
    out = tmp_path / "out"
    argv = ["evaluate", "--scenario", MIRROR_CFG, "--out", str(out)]
    if source == "points":
        rng = np.random.default_rng(32)
        pts = rng.uniform([-3.25, -3.0, -3.25, -3.0], [3.25, 3.5, 3.25, 3.5], (300, 4))
        pts[::13, 2:] = pts[::13, :2]  # coincidence
        pts[5::17, 0] = np.nan
        argv += ["--points", str(_write_points(tmp_path / "points.csv", pts))]
        pts = pts.T

        def patterned(s, t1, z1, t2, z2):
            return _word_kinds(np.size(t1)).view(complex).T

        monkeypatch.setattr("mtdirac.solver.evaluate_fields", patterned)
    else:
        z = default_slice_grid(s, [1.5], n=24)
        t = np.full(z.size**2, 1.5)
        pts = np.stack([t, np.repeat(z, z.size), t, np.tile(z, z.size)])
        argv += ["--grid", "24", "--time", "1.5"]

        def patterned(s, t1, z1, t2, z2):
            m = np.size(z1) * np.size(z2)
            psi = np.zeros((4, m), dtype=complex)
            on = regions(np.repeat(t1, np.size(z2)), np.repeat(z1, np.size(z2)),
                         np.tile(t2, np.size(z1)), np.tile(z2, np.size(z1)))
            on = np.isin(on, [REGIONS.index(r) for r in (Region.OMEGA1, Region.OMEGA2)])
            psi[:, on] = _word_kinds(np.count_nonzero(on)).view(complex).T
            return psi.reshape(4, np.size(z1), np.size(z2)), None

        monkeypatch.setattr("mtdirac.solver.evaluate_grid", patterned)
    assert main(argv) == 0
    label = regions(*pts)
    on = np.isin(label, [REGIONS.index(r) for r in (Region.OMEGA1, Region.OMEGA2)])
    words = _word_kinds(np.count_nonzero(on))
    assert np.count_nonzero(on) > 24 and not on.all()
    want, live = [], iter(words.tolist())
    for k in range(label.size):
        cells = [format(x, ".17g") for x in pts[:, k]] + [REGIONS[label[k]].value]
        cells += [format(x, ".17g") for x in next(live)] if on[k] else [""] * 8
        want.append(",".join(cells) + "\n")
    with open(out / "fields.csv", newline="") as fh:
        assert fh.readlines()[4:] == want


def _write_points(path, pts):
    """A points file of the (n, 4) rows pts, each coordinate as repr."""
    rows = ("%r,%r,%r,%r\n" % tuple(p) for p in np.asarray(pts).tolist())
    path.write_text("t1,z1,t2,z2\n" + "".join(rows))
    return path


MIRROR_BOX = ((-3.25, 3.25), (-3.0, 3.5))  # verify's box on mirror_bump: its hull padded


def test_evaluate_points_across_block_seams(tmp_path, capsys):
    # a first block with non-finite rows, a whole block without a space-like
    # row and a short last block
    import mtdirac.cli as cli

    block = cli._BLOCK
    (t_lo, t_hi), (z_lo, z_hi) = MIRROR_BOX
    rng = np.random.default_rng(12)
    low, high = [t_lo, z_lo, t_lo, z_lo], [t_hi, z_hi, t_hi, z_hi]
    pts = rng.uniform(low, high, (2 * block + 17, 4))
    pts[9:block:50, 1] = np.nan
    pts[block - 1, 2] = np.inf
    pts[-5, 3] = -np.inf
    flagged_block = pts[block : 2 * block]
    dz = np.abs(flagged_block[:, 1] - flagged_block[:, 3])
    flagged_block[:, 2] = flagged_block[:, 0] + dz + 0.5  # time-like
    flagged_block[::3, 2:] = flagged_block[::3, :2]  # coincidence
    s, _ = load_scenario(_read(MIRROR_CFG))
    want, label, _ = _oracle_lines(s, pts.T)
    halves = [REGIONS.index(r) for r in (Region.OMEGA1, Region.OMEGA2)]
    spacelike = np.isin(label, halves)
    assert not spacelike[block : 2 * block].any()
    assert spacelike[:block].any() and spacelike[2 * block :].any()
    assert np.count_nonzero(label == REGIONS.index(Region.NONFINITE)) > 2
    out = tmp_path / "out"
    argv = ["evaluate", "--scenario", MIRROR_CFG, "--out", str(out), "--points"]
    assert main(argv + [str(_write_points(tmp_path / "points.csv", pts))]) == 0
    assert capsys.readouterr().out == (
        f"wrote {out / 'fields.csv'} ({pts.shape[0]} rows, "
        f"{np.count_nonzero(~spacelike)} outside the space-like domain)\n"
    )
    with open(out / "fields.csv", newline="") as fh:
        assert fh.readlines()[4:] == want


def test_evaluate_points_memory_grows_with_the_points_only(tmp_path, monkeypatch):
    # each block of rows is solved, formatted and written before the next, so
    # the peak grows by the (4, n) float points (32 bytes a row) and no more;
    # on one CPU, so that one process holds every row
    import os

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    peaks = []
    for n in (2**13, 2**15):
        pts = np.stack(sample_spacelike(np.random.default_rng(n), n, *MIRROR_BOX))
        pts[2:, ::10] = pts[:2, ::10]  # coincidence
        path = _write_points(tmp_path / f"points{n}.csv", pts.T)
        argv = ["evaluate", "--scenario", MIRROR_CFG, "--out", str(tmp_path / "out")]
        argv += ["--points", str(path)]
        assert main(argv) == 0  # warm: imports and caches are not counted
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / (2**15 - 2**13) < 48


def test_evaluate_failing_mid_stream_leaves_no_output(tmp_path, monkeypatch, capsys):
    # the first block is written before the second one fails
    import mtdirac.cli as cli

    calls = []

    def fails_second(*args):
        calls.append(args)
        if len(calls) == 2:
            raise ValueError("solver failed")
        return evaluate_fields(*args)

    monkeypatch.setattr("mtdirac.solver.evaluate_fields", fails_second)
    rng = np.random.default_rng(13)
    pts = np.stack(sample_spacelike(rng, 2 * cli._BLOCK, *MIRROR_BOX))
    out = tmp_path / "out"
    argv = ["evaluate", "--scenario", MIRROR_CFG, "--out", str(out), "--points"]
    assert main(argv + [str(_write_points(tmp_path / "points.csv", pts.T))]) == 2
    assert capsys.readouterr().err == "error: solver failed\n"
    assert len(calls) == 2
    assert list(out.iterdir()) == []  # neither fields.csv nor a .fields.csv.*.tmp


@pytest.fixture
def deadline():
    """Fail a test that waits on worker processes for more than a minute."""
    import signal

    def expire(signum, frame):
        raise TimeoutError("evaluate did not finish within 60 s")

    before = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, before)


def _workers(monkeypatch, count):
    """Make evaluate use count workers on any input; return the forks made."""
    import os

    import mtdirac.cli as cli

    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(cli, "_RANGE", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    monkeypatch.setattr(os, "fork", counted)
    return forks


def _no_child_left():
    import os

    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _split_points_file(path, quoted=False):
    """A points file of every row kind and line end.

    The header (after a byte-order mark) names an extra column and t1 twice,
    so the last t1 column is read; the rows end in LF, CRLF and CR in turn,
    with blank lines, non-finite, time-like and coincident rows, and a row
    count that leaves a short last block.  With quoted, one row's extra cell
    is quoted and holds a newline at exactly half the file's bytes, where a
    cut is sought when the file is split in two.
    """
    import mtdirac.cli as cli

    rng = np.random.default_rng(21)
    (t_lo, t_hi), (z_lo, z_hi) = MIRROR_BOX
    pts = rng.uniform([t_lo, z_lo, t_lo, z_lo], [t_hi, z_hi, t_hi, z_hi], (cli._BLOCK + 333, 4))
    pts[3::40, 1] = np.nan
    pts[5::40, 3] = -np.inf
    pts[7::9, 2:] = pts[7::9, :2]  # coincidence
    pts[8::9, 2] = pts[8::9, 0] + np.abs(pts[8::9, 1] - pts[8::9, 3]) + 0.5  # time-like
    ends = ["\n", "\r\n", "\r"]
    lines = [
        f"x{k},{k % 7},{z1!r},{t2!r},{z2!r},{t1!r}{ends[k % 3]}" + ("\n" if k % 50 == 0 else "")
        for k, (t1, z1, t2, z2) in enumerate(pts.tolist())
    ]
    head = "\ufeffnote,t1,z1,t2,z2,t1\r\n".encode()
    if not quoted:
        path.write_bytes(head + "".join(lines).encode())
        return path
    r = 2 * len(lines) // 5
    before = head + "".join(lines[:r]).encode()
    after = "".join(lines[r + 1 :]).encode()
    t1, z1, t2, z2 = pts[r].tolist()
    tail = f'",9,{z1!r},{t2!r},{z2!r},{t1!r}\n'.encode()
    # the newline sits at len(before) + 2 + len(a); the file holds len(rest) + len(a)
    rest = len(before) + 2 + 1 + len(tail) + len(after)
    a = rest - 2 * (len(before) + 2)
    data = before + b'"q' + b"a" * a + b"\n" + tail + after
    assert data[len(data) // 2 : len(data) // 2 + 1] == b"\n"
    path.write_bytes(data)
    return path


@pytest.mark.parametrize("quoted", [False, True])
def test_evaluate_is_byte_identical_for_any_worker_count(
    tmp_path, monkeypatch, capsys, deadline, quoted
):
    path = _split_points_file(tmp_path / "points.csv", quoted)
    argv = ["evaluate", "--scenario", MIRROR_CFG, "--points", str(path), "--out"]
    assert main(argv + [str(tmp_path / "alone")]) == 0
    want = _read(tmp_path / "alone" / "fields.csv")
    stdout = capsys.readouterr().out.replace("alone", "{}")
    assert "4429 rows" in stdout
    assert all(f",{r}," in want for r in ("Coincidence", "NonFinite", "TimeLike", "Omega1"))
    assert want.count(",Coincidence,") > 400 and want.count(",TimeLike,") > 400
    for count in (1, 2, 3):
        forks = _workers(monkeypatch, count)
        out = tmp_path / str(count)
        assert main(argv + [str(out)]) == 0
        assert len(forks) == (0 if quoted else count - 1)  # a file with a quote is not cut
        assert capsys.readouterr().out == stdout.format(count)
        assert _read(out / "fields.csv") == want
        assert [p.name for p in out.iterdir()] == ["fields.csv"]
        _no_child_left()
        monkeypatch.undo()


def test_evaluate_grid_is_byte_identical_for_any_worker_count(tmp_path, monkeypatch, capsys, deadline):
    argv = ["evaluate", "--scenario", MIRROR_CFG, "--grid", "128", "--time", "1.5", "--out"]
    assert main(argv + [str(tmp_path / "alone")]) == 0
    want = _read(tmp_path / "alone" / "fields.csv")
    stdout = capsys.readouterr().out.replace("alone", "{}")
    for count in (2, 3):
        forks = _workers(monkeypatch, count)
        out = tmp_path / str(count)
        assert main(argv + [str(out)]) == 0
        assert len(forks) == count - 1
        assert capsys.readouterr().out == stdout.format(count)
        assert _read(out / "fields.csv") == want
        _no_child_left()
        monkeypatch.undo()


@pytest.mark.parametrize("scan", [1, 1 << 16])
def test_cuts_fall_at_row_starts(tmp_path, monkeypatch, scan):
    from mtdirac import ranges

    monkeypatch.setattr(ranges, "_SCAN", scan)  # read a byte at a time too
    path = tmp_path / "points.csv"
    path.write_bytes(
        "\ufeffnote,t1,z1,t2,z2\r\n".encode()
        + b"a,1,2,3,4\nb,5,6,7,8\r\n\r\nc,9,1,2,3\r\r d,4,5,6,7\n\n,8,9,1,2\r,2,3,4,5"
    )
    data = path.read_bytes()
    whole = ranges.read_points(path)
    cuts = []
    for target in range(1, len(data) + 1):
        # the first row start at or after target follows a line end at target - 1 or later
        end = re.compile(rb"[\r\n]").search(data, target - 1)
        assert ranges.row_starts(path, [target]) == ([end.end()] if end else [])
        cut = end.end() if end else len(data)
        cuts += [cut] if end else []
        halves = [ranges.read_points(path, *bounds) for bounds in ((0, cut), (cut, len(data)))]
        assert np.array_equal(np.concatenate(halves, axis=1), whole), target
    assert ranges.row_starts(path, list(range(1, len(data) + 1))) == cuts
    # a quoted cell can hold a line end, so a file with a quote is not cut
    path.write_bytes(b'note,t1,z1,t2,z2\n"a\nb",1,2,3,4\n' + b"c,5,6,7,8\n" * 3)
    assert ranges.row_starts(path, [path.stat().st_size - 1]) is None


def test_evaluate_worker_failure_leaves_nothing(tmp_path, monkeypatch, capsys, deadline):
    import os

    parent = os.getpid()
    path = _split_points_file(tmp_path / "points.csv")
    argv = ["evaluate", "--scenario", MIRROR_CFG, "--points", str(path), "--out"]
    for error in (ValueError("solver failed in a worker"), ZeroDivisionError("its own type")):

        def fails_in_a_worker(*args, error=error):
            if os.getpid() != parent:
                raise error
            return evaluate_fields(*args)

        _workers(monkeypatch, 3)
        monkeypatch.setattr("mtdirac.solver.evaluate_fields", fails_in_a_worker)
        out = tmp_path / type(error).__name__
        if isinstance(error, ValueError):
            assert main(argv + [str(out)]) == 2
            assert capsys.readouterr().err == "error: solver failed in a worker\n"
        else:
            with pytest.raises(ZeroDivisionError, match="its own type"):
                main(argv + [str(out)])
        assert list(out.iterdir()) == []  # no fields.csv, .tmp or .part file
        _no_child_left()
        monkeypatch.undo()


def test_evaluate_worker_that_dies_is_reported(tmp_path, monkeypatch, capsys, deadline):
    import os

    parent = os.getpid()

    def dies_in_a_worker(*args):
        if os.getpid() != parent:
            os._exit(3)
        return evaluate_fields(*args)

    _workers(monkeypatch, 2)
    monkeypatch.setattr("mtdirac.solver.evaluate_fields", dies_in_a_worker)
    out = tmp_path / "out"
    path = _split_points_file(tmp_path / "points.csv")
    argv = ["evaluate", "--scenario", MIRROR_CFG, "--points", str(path), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: an evaluate worker ended without a report\n"
    assert list(out.iterdir()) == []
    _no_child_left()


@pytest.mark.parametrize("bad", ["cell in the last range", "no rows"])
def test_evaluate_bad_file_is_reported_as_one_read_reports_it(
    tmp_path, monkeypatch, capsys, deadline, bad
):
    data = _split_points_file(tmp_path / "points.csv").read_bytes()
    path = tmp_path / "bad.csv"
    if bad == "no rows":
        path.write_bytes(data[: data.index(b"\n") + 1] + b"\r\n" * 4096)
        message = "error: points file has no rows\n"
    else:
        path.write_bytes(data + b"x9,0.5,abc,0.25,1.5,0.5\n")
        message = "at row 4429, column 3"
    argv = ["evaluate", "--scenario", MIRROR_CFG, "--points", str(path), "--out"]
    assert main(argv + [str(tmp_path / "alone")]) == 2
    want = capsys.readouterr().err
    assert want.startswith("error: ") and message in want
    for count in (2, 3):
        _workers(monkeypatch, count)
        out = tmp_path / str(count)
        assert main(argv + [str(out)]) == 2
        assert capsys.readouterr().err == want
        assert not out.exists()  # every range is read before anything is written
        _no_child_left()
        monkeypatch.undo()


def test_evaluate_grid(tmp_path):
    out = tmp_path / "out"
    rc = main(
        [
            "evaluate",
            "--scenario",
            PACKET_CFG,
            "--out",
            str(out),
            "--grid",
            "6",
            "--time",
            "0.5",
        ]
    )
    assert rc == 0
    lines = _read(out / "fields.csv").splitlines()
    rows = [line.split(",") for line in lines[4:]]
    assert len(rows) == 36
    flagged = [r for r in rows if r[4] == "Coincidence"]
    assert len(flagged) == 6  # the grid diagonal
    assert all(r[0] == "0.5" for r in rows)


def test_evaluate_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert (
            main(
                [
                    "evaluate",
                    "--scenario",
                    PACKET_CFG,
                    "--out",
                    str(out),
                    "--grid",
                    "16",
                ]
            )
            == 0
        )
    assert _read(a / "fields.csv") == _read(b / "fields.csv")


def test_verify_passes_on_packet(tmp_path):
    out = tmp_path / "out"
    rc = main(
        [
            "verify",
            "--scenario",
            PACKET_CFG,
            "--out",
            str(out),
            "--panels",
            "64",
            "--grid",
            "128",
        ]
    )
    assert rc == 0
    report = json.loads(_read(out / "verify.json"))
    assert report["all_pass"] is True
    assert report["config_echo"] == _read(PACKET_CFG)
    checks = report["checks"]
    for name in (
        "compatibility",
        "seam_c1",
        "seam_c2",
        "pde_residuals",
        "continuity",
        "boundary_condition",
        "coincidence_flux",
        "conservation_diffs",
        "excluded_pairs",
        "covariance",
        "schmidt",
    ):
        assert name in checks, name
        assert checks[name]["pass"] is True, name
    assert "degenerate" not in checks["conservation_diffs"]
    # excluded pairs are reported once, by their own check
    assert "excluded_pairs" not in checks["conservation_diffs"]
    assert checks["excluded_pairs"]["value"] == 0.0
    assert "seam_c0" not in checks
    assert len(checks["conservation_diffs"]["values"]) == 5
    assert checks["covariance"]["parts"]["commutation"]["pass"] is True


def test_verify_zero_scenario_is_degenerate(tmp_path):
    cfg = tmp_path / "zero.json"
    cfg.write_text("{}\n")
    out = tmp_path / "out"
    rc = main(
        ["verify", "--scenario", str(cfg), "--out", str(out), "--panels", "8"]
    )
    assert rc == 0
    report = json.loads(_read(out / "verify.json"))
    assert report["all_pass"] is True
    assert report["checks"]["conservation_diffs"]["degenerate"] is True
    assert "schmidt" not in report["checks"]
    # the compatibility conditions are checked, and trivially met
    for name in ("compatibility", "seam_c1", "seam_c2"):
        assert report["checks"][name]["value"] == 0.0, name
        assert report["checks"][name]["pass"] is True, name
    assert report["checks"]["compatibility"]["conditions"] == {}


def test_verify_fails_on_incompatible_data(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(
        json.dumps(
            {
                "initial": {
                    "g2": {
                        "omega1": {
                            "preset": "product",
                            "params": {
                                "x": {"lo": -1.0, "hi": 1.0, "normalize": True},
                                "y": {"lo": -1.0, "hi": 1.0, "normalize": True},
                            },
                        }
                    }
                }
            }
        )
    )
    out = tmp_path / "out"
    rc = main(
        ["verify", "--scenario", str(cfg), "--out", str(out), "--panels", "16"]
    )
    assert rc == 1
    report = json.loads(_read(out / "verify.json"))
    assert report["all_pass"] is False
    assert report["checks"]["compatibility"]["pass"] is False
    text = capsys.readouterr().out
    assert "FAIL compatibility" in text
    assert "verification FAILED" in text


def test_scatter_series(tmp_path):
    out = tmp_path / "out"
    rc = main(
        [
            "scatter",
            "--scenario",
            PACKET_CFG,
            "--out",
            str(out),
            "--times",
            "0:3.2:5",
            "--panels",
            "32",
            "--grid",
            "96",
        ]
    )
    assert rc == 0
    lines = _read(out / "scatter.csv").splitlines()
    assert lines[0] == "# mtdirac scatter"
    header = lines[3].split(",")
    assert header == [
        "t",
        "mass1",
        "mass2",
        "mass3",
        "mass4",
        "mass_total",
        "sigma1",
        "sigma2",
        "sigma3",
        "sigma4",
    ]
    rows = [line.split(",") for line in lines[4:]]
    assert len(rows) == 5
    times = [float(r[0]) for r in rows]
    assert times == pytest.approx(list(np.linspace(0.0, 3.2, 5)))
    s, _ = load_scenario(_read(PACKET_CFG))
    q = QuadratureSpec(panels=32)
    for r in rows:
        masses = component_masses(s, float(r[0]), q)
        for i in range(4):
            assert float(r[1 + i]) == masses[i]
        assert float(r[5]) == pytest.approx(masses.sum(), abs=1e-15)
    # the swap: psi2 full at t = 0, psi3 full at t = 3.2
    assert float(rows[0][2]) == pytest.approx(1.0, abs=1e-5)
    assert float(rows[0][3]) == 0.0
    assert float(rows[-1][2]) == 0.0
    assert float(rows[-1][3]) == pytest.approx(1.0, abs=1e-5)


def test_scatter_deterministic_and_thread_invariant(tmp_path, monkeypatch):
    # from 32 rows a thread 4 CPUs would split the 192 node rows of 24 panels;
    # a config cannot give data by a function, so every branch here factors
    # and no grid is split (tests/test_conservation.py splits them)
    import os

    from mtdirac import conservation

    monkeypatch.setattr(conservation, "THREAD_ROWS", 32)
    outs = []
    for name, cpus in (("a", 1), ("b", 1), ("c", 4)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        out = tmp_path / name
        rc = main(
            [
                "scatter",
                "--scenario",
                PACKET_CFG,
                "--out",
                str(out),
                "--times",
                "0:2:3",
                "--panels",
                "24",
                "--grid",
                "64",
            ]
        )
        assert rc == 0
        outs.append(_read(out / "scatter.csv"))
    assert outs[0] == outs[1] == outs[2]


def test_usage_errors_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["verify", "--scenario", "no_such_file.json", "--out", str(out)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["verify", "--scenario", str(bad), "--out", str(out)]) == 2
    assert (
        main(
            [
                "scatter",
                "--scenario",
                PACKET_CFG,
                "--out",
                str(out),
                "--times",
                "0;1;2",
            ]
        )
        == 2
    )
    pts = tmp_path / "pts.csv"
    pts.write_text("a,b\n1,2\n")
    assert (
        main(
            [
                "evaluate",
                "--scenario",
                PACKET_CFG,
                "--out",
                str(out),
                "--points",
                str(pts),
            ]
        )
        == 2
    )
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("evaluate", "--grid", "1"),
        ("evaluate", "--grid", "0"),
        ("verify", "--grid", "1"),
        ("verify", "--panels", "0"),
        ("scatter", "--panels", "-2"),
        ("scatter", "--grid", "two"),
        ("evaluate", "--time", "nan"),
        ("evaluate", "--time", "inf"),
        ("scatter", "--times", "nan:1:3"),
        ("scatter", "--times", "0:inf:3"),
        ("evaluate", "--panels", "8"),  # evaluate integrates nothing
        ("evaluate --points", "--grid", "256"),  # the grid flags are unread there
        ("evaluate --points", "--time", "0.0"),
    ],
)
def test_size_flags_rejected_before_any_output(tmp_path, capsys, command, flag, value):
    # argparse rejects its typed flags and the flags a command lacks; --times,
    # and --grid or --time next to --points, are rejected by the command itself
    out = tmp_path / "out"
    argv = command.split() + ["--scenario", PACKET_CFG, "--out", str(out), flag, value]
    if "--points" in argv:
        pts = tmp_path / "pts.csv"
        pts.write_text("t1,z1,t2,z2\n0,0,0,1\n")
        argv.insert(argv.index("--points") + 1, str(pts))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if flag == "--times" or "--points" in argv:
            assert main(argv) == 2
            named = f"error: {flag} "
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            known = flag != "--panels" or command != "evaluate"
            named = f"argument {flag}:" if known else f"unrecognized arguments: {flag}"
    err = capsys.readouterr().err
    assert named in err
    if "--points" in argv:
        assert f"{flag} and --points" in err
    assert not out.exists()


def test_scatter_rejects_zero_scenario(tmp_path):
    cfg = tmp_path / "zero.json"
    cfg.write_text("{}\n")
    assert (
        main(["scatter", "--scenario", str(cfg), "--out", str(tmp_path / "o")]) == 2
    )


def test_scatter_rejects_empty_time_list(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(
        ["scatter", "--scenario", PACKET_CFG, "--out", str(out), "--times", "0:4:0"]
    )
    assert rc == 2
    assert "--times count must be at least 1" in capsys.readouterr().err
    assert not (out / "scatter.csv").exists()


def test_scatter_zero_fills_only_an_all_zero_slice(tmp_path):
    # two grid points sit outside the data, so every slice is zero
    out = tmp_path / "out"
    argv = ["scatter", "--scenario", PACKET_CFG, "--out", str(out), "--grid", "2"]
    assert main(argv + ["--panels", "4", "--times", "0:1:2"]) == 0
    rows = [line.split(",") for line in _read(out / "scatter.csv").splitlines()[4:]]
    assert len(rows) == 2 and all(r[6:] == ["0", "0", "0", "0"] for r in rows)


def test_scatter_fails_on_non_finite_data(tmp_path, monkeypatch, capsys):
    # the masses of the first time reject the data, before its slice does
    import mtdirac.cli as cli
    from test_interaction import nan_data

    monkeypatch.setattr(cli, "_load", lambda path: (nan_data(), "{}"))
    out = tmp_path / "out"
    argv = ["scatter", "--scenario", "nan.json", "--out", str(out), "--grid", "32"]
    assert main(argv + ["--panels", "4", "--times", "0:1:3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: psi2 has ") and "on surface flat; no integral" in err
    assert not (out / "scatter.csv").exists()


def test_verify_fails_conservation_on_non_finite_data(tmp_path, monkeypatch, capsys):
    import mtdirac.cli as cli
    from test_interaction import nan_data

    monkeypatch.setattr(cli, "_load", lambda path: (nan_data(), "{}"))
    out = tmp_path / "out"
    argv = ["verify", "--scenario", "nan.json", "--out", str(out), "--grid", "32"]
    assert main(argv + ["--panels", "4"]) == 1
    checks = json.loads(_read(out / "verify.json"))["checks"]
    entry = checks["conservation_diffs"]
    assert entry["pass"] is False and entry["error"].startswith("ValueError: psi2 has ")
    assert "on surface flat" in entry["error"]
    assert "FAIL conservation_diffs: ValueError: psi2 has " in capsys.readouterr().out


def test_scatter_does_not_hide_a_failing_svd(tmp_path, monkeypatch, capsys):
    import mtdirac.interaction as interaction

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(interaction.np.linalg, "svd", no_convergence)
    out = tmp_path / "out"
    argv = ["scatter", "--scenario", PACKET_CFG, "--out", str(out), "--grid", "32"]
    assert main(argv + ["--panels", "4", "--times", "0:1:2"]) == 2
    assert "error: SVD did not converge" in capsys.readouterr().err
    assert not (out / "scatter.csv").exists()


def test_verify_takes_the_svd_of_the_nonzero_block(tmp_path, monkeypatch):
    # mirror_bump's t = 0 slice is 512 x 512; 252 rows and 280 columns are
    # not all zero, and only those reach the SVD
    import mtdirac.interaction as interaction

    svd = interaction.np.linalg.svd
    shapes = []

    def spy(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(interaction.np.linalg, "svd", spy)
    argv = ["verify", "--scenario", MIRROR_CFG, "--out", str(tmp_path / "o")]
    assert main(argv + ["--panels", "128"]) == 0
    assert shapes == [(252, 280)]


def test_verify_records_every_check_of_a_raising_probe(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("probe broke")

    for name in ("solver.check_compatibility", "solver.pde_residual",
                 "current.continuity_residual", "conservation.normalization_report"):
        monkeypatch.setattr(f"mtdirac.{name}", broken)
    out = tmp_path / "out"
    rc = main(
        ["verify", "--scenario", PACKET_CFG, "--out", str(out), "--panels", "16"]
    )
    assert rc == 1
    checks = json.loads(_read(out / "verify.json"))["checks"]
    fed = ("compatibility", "seam_c1", "seam_c2", "pde_residuals", "continuity",
           "conservation_diffs", "excluded_pairs")
    for name in fed:
        assert checks[name] == {"pass": False, "error": "RuntimeError: probe broke"}
    assert checks["boundary_condition"]["pass"] and checks["schmidt"]["pass"]
    assert "FAIL seam_c2: RuntimeError: probe broke" in capsys.readouterr().out


def test_verify_fails_on_a_nan_trace_of_either_side(tmp_path, monkeypatch, capsys):
    # a NaN on side 2 only must not drop out of the maximum over the sides,
    # nor a NaN part, the last one, out of the covariance's worst ratio
    import mtdirac.current as current
    import mtdirac.solver as solver

    def nan_on_side_2(probe):
        def probed(s, t, z, side):
            values = probe(s, t, z, side)
            return np.where(side == 2, np.nan, values)

        return probed

    for module, name in ((solver, "bc_defect"), (current, "coincidence_flux")):
        monkeypatch.setattr(module, name, nan_on_side_2(getattr(module, name)))
    monkeypatch.setattr("mtdirac.lorentz.current_covariance_defect", lambda b: np.nan)
    out = tmp_path / "out"
    rc = main(["verify", "--scenario", MIRROR_CFG, "--out", str(out), "--panels", "16"])
    assert rc == 1
    checks = json.loads(_read(out / "verify.json"))["checks"]
    for name in ("boundary_condition", "coincidence_flux", "covariance"):
        assert checks[name]["pass"] is False, name
        assert np.isnan(checks[name]["value"]), name
    text = capsys.readouterr().out
    assert "FAIL boundary_condition: nan" in text
    assert "FAIL coincidence_flux: nan" in text


def test_verify_evaluates_each_probe_in_one_call(tmp_path, monkeypatch):
    # the residual probes stack every configuration's stencil into one call
    import sys

    import mtdirac.solver as solver

    calls = {"evaluate_fields": [], "boundary_trace_fields": []}

    def counting(name):
        original = getattr(solver, name)

        def counted(s, *coords):
            calls[name].append(np.broadcast(*coords).size)
            return original(s, *coords)

        for key, module in list(sys.modules.items()):
            if key.startswith("mtdirac") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)

    for name in calls:
        counting(name)
    out = tmp_path / "out"
    rc = main(["verify", "--scenario", MIRROR_CFG, "--out", str(out), "--panels", "128"])
    assert rc == 0
    # the pde and continuity probes (8 stencil points at each of 64
    # configurations) and the boosted probe; the current covariance is
    # decided on the basis spinors and evaluates no field
    points = calls["evaluate_fields"]
    assert len(points) == 3 and points[:2] == [64 * 8, 64 * 8]
    # the traces of each side, read by the jump condition and by the flux;
    # its boost and its manifest form are identities on 4x4 matrices
    assert calls["boundary_trace_fields"] == [1000] * 4


@pytest.mark.parametrize("config", [PACKET_CFG, "configs/spin_product.json", MIRROR_CFG])
def test_verify_boost_probes_read_live_field(tmp_path, config):
    # the boosted probes read verify's own draw, mapped through the boost, so
    # they land on live field: a probe that reads 0.0 checks nothing
    out = tmp_path / "out"
    assert main(["verify", "--scenario", config, "--out", str(out), "--seed", "0"]) == 0
    parts = json.loads(_read(out / "verify.json"))["checks"]["covariance"]["parts"]
    assert parts["pde"]["value"] > 0.0
    # the jump condition's covariance is an identity on the pair factor,
    # exact for S1 S2 = diag(e^beta, 1, 1, e^-beta)
    assert parts["boundary"]["value"] == 0.0


G4_X = "initial.g4.omega1.params.x"
G4_Y = "initial.g4.omega1.params.y"


@pytest.mark.parametrize("command", ["evaluate", "verify", "scatter"])
@pytest.mark.parametrize(
    "path, old, new, where",
    [
        (MIRROR_CFG, '"lo": -1.5', '"lo": -Infinity', f"{G4_X}.lo"),
        (MIRROR_CFG, '"value": 0.9', '"value": NaN', "phase.theta1.value"),
        (MIRROR_CFG, '"hi": 2.5', '"hi": 1e999', f"{G4_Y}.hi"),
        (MIRROR_CFG, '"hi": 2.5', '"hi": 1' + "0" * 400, f"{G4_Y}.hi"),
        (MIRROR_CFG, '"lo": -1.5', '"lo": "-Infinity"', f"{G4_X}.lo"),
        (MIRROR_CFG, '"value": 0.9', '"value": "nan"', "phase.theta1.value"),
        (MIRROR_CFG, '"amplitude": 0.7', '"amplitude": NaN', f"{G4_X}.amplitude"),
        (PACKET_CFG, '"d": 3.0', '"d": "1e999"', "params.d"),
    ],
    ids=[
        "profile_lo",
        "phase_value",
        "overflow",
        "int_overflow",
        "quoted_lo",
        "quoted_value",
        "amplitude",
        "quoted_preset_param",
    ],
)
def test_nonfinite_config_numbers_rejected_at_load(
    tmp_path, capsys, command, path, old, new, where
):
    text = _read(path)
    assert text.count(old) == 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text.replace(old, new))
    out = tmp_path / "out"
    assert main([command, "--scenario", str(cfg), "--out", str(out)]) == 2
    assert f"error: {where} must be a finite number, got " in capsys.readouterr().err
    assert not out.exists()


def test_mistyped_config_value_rejected_at_load(tmp_path, capsys):
    # a string where the config needs true or false would read as True
    cfg = json.loads(_read(MIRROR_CFG))
    cfg["antisymmetric"] = "false"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["verify", "--scenario", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "error: antisymmetric must be true or false, got 'false'" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_unknown_config_key_rejected_at_load(tmp_path, capsys):
    # a misspelt key would be ignored, and the run would read the default
    cfg = json.loads(_read(MIRROR_CFG))
    cfg["initial"]["g2"]["omega1"]["params"]["x"]["momentm"] = 2.0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["verify", "--scenario", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "error: unknown config key initial.g2.omega1.params.x.momentm" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_constant_quarter_turn_phase_gets_the_manifest_checks(tmp_path):
    # the manifest form is decided by the phase's value, not by its preset name
    cfg = json.loads(_read(PACKET_CFG))
    cfg["params"]["theta1"] = {"preset": "constant", "value": -0.5 * np.pi}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["verify", "--scenario", str(path), "--out", str(out)]) == 0
    checks = json.loads(_read(out / "verify.json"))["checks"]
    assert checks["manifest_form_side1"]["pass"] is True
    assert "manifest_form_side2" not in checks  # theta2 = 0 has no manifest form


@pytest.mark.parametrize("command", ["evaluate", "verify", "scatter"])
@pytest.mark.parametrize(
    "box, cause",
    [
        ([[0, -1.5], [1, 2.5]], "omega1: support ((0.0, -1.5), (1.0, 2.5)) must have"),
        ([[-1.5, 0], [1, "2.5"]], "omega1.support must be a finite number, got '2.5'"),
    ],
    ids=["reversed", "quoted"],
)
def test_bad_support_override_rejected(tmp_path, capsys, command, box, cause):
    cfg = json.loads(_read(MIRROR_CFG))
    cfg["initial"]["g4"]["omega1"]["support"] = box
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([command, "--scenario", str(path), "--out", str(out)]) == 2
    assert f"error: initial.g4.{cause}" in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_output_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    argv = ["evaluate", "--scenario", PACKET_CFG, "--grid", "8"]
    assert main(argv + ["--out", str(blocker / "out")]) == 2
    assert "error: " in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
    assert blocker.read_text() == "not a directory\n"


class _FailingWrites:
    """A text file whose third write raises, as a full disk would."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def write(self, text):
        self.writes += 1
        if self.writes == 3:
            raise OSError("no space left on device")
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)


@pytest.mark.parametrize(
    "argv, name",
    [
        (["evaluate", "--grid", "16"], "fields.csv"),
        (["verify", "--grid", "16", "--panels", "4"], "verify.json"),
        (["scatter", "--grid", "16", "--panels", "4", "--times", "0:1:1"], "scatter.csv"),
    ],
    ids=["evaluate", "verify", "scatter"],
)
def test_failing_write_leaves_no_partial_output(
    tmp_path, monkeypatch, capsys, argv, name
):
    import builtins

    import mtdirac.cli

    def failing_open(*args, **kwargs):
        return _FailingWrites(builtins.open(*args, **kwargs))

    out = tmp_path / "out"
    cmd = argv + ["--scenario", PACKET_CFG, "--out", str(out)]
    monkeypatch.setattr(mtdirac.cli, "open", failing_open, raising=False)
    assert main(cmd) == 2
    assert "error: no space left" in capsys.readouterr().err
    assert list(out.iterdir()) == []  # neither the output nor a temporary file
    # a finished output is replaced whole or not at all
    monkeypatch.undo()
    assert main(cmd) in (0, 1)  # verify fails at 4 panels and still writes its report
    before = _read(out / name)
    monkeypatch.setattr(mtdirac.cli, "open", failing_open, raising=False)
    assert main(cmd) == 2
    assert "error: no space left" in capsys.readouterr().err
    assert _read(out / name) == before and [p.name for p in out.iterdir()] == [name]


_LOADED = """
import contextlib, io, json, sys
from pathlib import Path
import mtdirac.cli as cli

def loaded():
    return [m for m in sys.modules if m.startswith(("mtdirac.", "concurrent."))]

cli.load_scenario(Path(sys.argv[1]).read_text())
seen = {"start": loaded()}
with contextlib.redirect_stdout(io.StringIO()):
    if cli.main(sys.argv[2:]) != 0:
        sys.exit("the command failed")
seen["command"] = loaded()
print(json.dumps(seen))
"""


@pytest.mark.parametrize("source", ["points", "grid"])
def test_each_command_compiles_only_the_layers_it_runs(tmp_path, source):
    # in a fresh interpreter, start-up (the import and a config load, as
    # perfbench's setup probe does) loads no layer and no thread pool, and
    # evaluate loads none of the verifiers
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    config = str(root / MIRROR_CFG)
    argv = ["evaluate", "--scenario", config, "--out", str(tmp_path / "out")]
    if source == "points":
        pts = [[0.25, -1.5, 0.125, 1.5], [0.0, 0.0, 1.0, 1.0]]
        argv += ["--points", str(_write_points(tmp_path / "points.csv", pts))]
    else:
        argv += ["--grid", "16"]
    paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    done = subprocess.run([sys.executable, "-c", _LOADED, config, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)

    layers = ("geometry", "solver", "spin", "current", "conservation", "lorentz",
              "interaction", "fmt17", "ranges")
    assert [m for m in seen["start"] if m.removeprefix("mtdirac.") in layers] == []
    assert "concurrent.futures" not in seen["start"]
    verifiers = {f"mtdirac.{m}" for m in ("conservation", "lorentz", "current")}
    assert verifiers.isdisjoint(seen["command"])
    assert ("mtdirac.interaction" in seen["command"]) == (source == "grid")
