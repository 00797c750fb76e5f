"""The points reader: the integer route of read_points gives np.loadtxt's bits."""

import io
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mtdirac import ranges
from mtdirac.scenario import ScenarioConfigError

ROOT = Path(__file__).resolve().parent.parent


def _loadtxt_only(monkeypatch):
    """Make read_points read every file with np.loadtxt alone, as before the integer route."""
    monkeypatch.setattr(ranges, "_chunked_rows", lambda *args: None)


def _read(path):
    """read_points' array, or its error message."""
    try:
        return ranges.read_points(path)
    except ScenarioConfigError as err:
        return str(err)


def _same(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _bits_of_loadtxt(text: str) -> np.ndarray:
    """np.loadtxt's (4, n) array of a points file with a plain header line."""
    body = text.split("\n", 1)[1]
    return np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2, comments=None).T


CELLS = [
    "9007199254740993",  # a tie between two doubles: to even, 2^53
    "9007199254740995",  # a tie: up to even
    "9007199254740993.0",
    "4503599627370497.5",  # ties with a fraction
    "-4503599627370498.5",
    "4503599627370497.49",
    "0.30000000000000004",
    "0.1",
    "-0.0",
    "-0",
    "-000.000",
    "+0",
    "5.",
    ".5",
    "-.5",
    "+.5",
    "007.5",
    "123456789012345678",  # 18 digits
    "-999999999999999999",
    "1234567890123456789",  # 19 digits: past the integer route
    "9999999999999999999",  # past an int64
    "0.1234567890123456789012",  # 22 digits after the point
    "0.12345678901234567890123",  # 23
    "0.0000000000000000000001",
    "1.7976931348623157",
    "2.2250738585072014e-308",
    "4.9e-324",
    "1e-05",
    "2.5e+17",
    "-1.7976931348623157e+308",
]


@pytest.mark.parametrize("chunk", [16, 1 << 16])
def test_reader_equals_loadtxt_on_edge_cells(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(ranges, "_CHUNK", chunk)  # a few rows a chunk too
    rows = [",".join(CELLS[(k + j) % len(CELLS)] for j in range(4)) for k in range(len(CELLS))]
    text = "t1,z1,t2,z2\n" + "\n".join(rows) + "\n"
    path = tmp_path / "edge.csv"
    path.write_text(text)
    got = ranges.read_points(path)
    assert _same(got, _bits_of_loadtxt(text))
    assert got[0, 0] == 2.0**53 and np.signbit(got[0, CELLS.index("-0.0")])


_FORMATS = ["%r", "%.17g", "%.6f", "%.3e", "int"]


def _cell(x: float, form: str) -> str:
    if form == "int":
        return "%d" % x
    return form % x


@given(
    st.lists(
        st.tuples(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4),
            st.lists(st.sampled_from(_FORMATS), min_size=4, max_size=4),
        ),
        min_size=1,
        max_size=40,
    ),
    st.sampled_from([24, 64, 1 << 16]),
    st.booleans(),
)
def test_reader_equals_loadtxt_bit_for_bit(rows, chunk, last_line_end):
    lines = [",".join(_cell(x, f) for x, f in zip(xs, fs)) for xs, fs in rows]
    text = "t1,z1,t2,z2\n" + "\n".join(lines) + ("\n" if last_line_end else "")
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(ranges, "_CHUNK", chunk)
        path = Path(tmp) / "points.csv"
        path.write_text(text)
        assert _same(ranges.read_points(path), _bits_of_loadtxt(text))


def test_scaled_proves_only_correct_quotients():
    # n / 10^k against Python's correctly rounded int / int, ties included;
    # an unproven quotient lies within 2^-39 of its smaller gap of a midpoint
    rng = np.random.default_rng(7)
    n = np.concatenate([
        rng.integers(0, 10**18, 4000),
        rng.integers(0, 2**53, 2000),
        (2 * rng.integers(2**52, 2**53, 2000) + 1) * 10 ** rng.integers(0, 2, 2000),
    ])
    n[::3] *= -1
    k = rng.integers(0, 23, n.size)
    k[-2000:] = np.where(np.abs(n[-2000:]) % 10 == 0, 1, 0)  # exact halves
    values, proven = ranges._scaled(n, k)
    want = np.array([int(a) / 10**int(b) for a, b in zip(n.tolist(), k.tolist())])
    assert np.array_equal(values[proven], want[proven])
    assert not proven[-2000:].any()
    for j in np.flatnonzero(~proven).tolist():
        x = Fraction(int(n[j]), 10 ** int(k[j]))
        gap = abs(Fraction(want[j]) - Fraction(np.nextafter(want[j], 0.0)))
        assert abs(x - Fraction(want[j])) >= gap / 2 - gap / 2**39, (n[j], k[j])
    assert proven[:6000].mean() > 0.99


# the variants that test_cli reads as the plain file does, and the bad rows it rejects
READ = {
    "quoted": ["t1,z1,t2,z2", "", '"0.25",-1.5,0.125,"1.5"', "", "0.5,-2.0,0.5,2.0"],
    "crlf": ["t1,z1,t2,z2\r", "0.25,-1.5,0.125,1.5\r", "\r", "0.5,-2.0,0.5,2.0\r"],
    "repeated": ["t1,z1,t2,t1,z2", "9,-1.5,0.125,0.25,1.5", "9,-2.0,0.5,0.5,2.0"],
    "ragged": ["t1,z1,t2,z2,note", "0.25,-1.5,0.125,1.5,a", "0.5,-2.0,0.5,2.0"],
    "bom": ["﻿t1,z1,t2,z2", "0.25,-1.5,0.125,1.5", "0.5,-2.0,0.5,2.0"],
    "blank_last": ["t1,z1,t2,z2", "0.25,-1.5,0.125,1.5", "0.5,-2.0,0.5,2.0", ""],
    "empty_extra": ["t1,z1,t2,z2", "0.25,-1.5,0.125,1.5,", "0.5,-2.0,0.5,2.0"],
}
BAD_ROWS = [
    "0.25,-1.5,0.125",
    "0.25,abc,0.125,1.5",
    "#x",
    "1,2,3,4#c",
    "   ",
    "0.25,,0.125,1.5",
    "1_0,-1.5,0.125,1.5",
    "0.25,-1.5,0.125,٣",
    "1.2.3,0,0,0",
    "1-2,0,0,0",
    "-,0,0,0",
    ".,0,0,0",
    "e,0,0,0",
    "1e,0,0,0",
    ".-5,0,0,0",  # a sign after the point: no integer -5
    ".+5,0,0,0",
    ".-0,0,0,0",
    "0,5.-,0,0",
]


@pytest.mark.parametrize("chunk", [8, 1 << 16])
@pytest.mark.parametrize(
    "lines",
    [*READ.values(), *(["t1,z1,t2,z2", "0.5,-2.0,0.5,2.0", row] for row in BAD_ROWS)],
    ids=[*READ, *(f"bad{k}" for k in range(len(BAD_ROWS)))],
)
def test_reader_reads_or_fails_as_loadtxt_alone(tmp_path, monkeypatch, chunk, lines):
    path = tmp_path / "points.csv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    monkeypatch.setattr(ranges, "_CHUNK", chunk)
    got = _read(path)
    _loadtxt_only(monkeypatch)
    want = _read(path)
    assert _same(got, want)
    if lines in READ.values():
        assert not isinstance(want, str)
    else:  # every bad row is an error, at its row, whichever route met it first
        assert want.startswith("bad points file")


def _point_gen():
    """perfbench's seeded points generator."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import points as point_gen
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return point_gen


def _counted_loadtxt(monkeypatch) -> dict:
    """The cells np.loadtxt reads from now on, as "int" (int64) and "float"."""
    loadtxt = np.loadtxt
    read = {"float": 0, "int": 0}

    def counted(fname, *args, dtype=float, **kwargs):
        out = loadtxt(fname, *args, dtype=dtype, **kwargs)
        read["int" if dtype is np.int64 else "float"] += out.size
        return out

    monkeypatch.setattr(np, "loadtxt", counted)
    return read


def test_only_exponent_cells_are_read_as_floats(tmp_path, monkeypatch):
    # on the benchmark's points, np.loadtxt reads floats only for the cells
    # in exponent notation: every other cell takes the integer route
    point_gen = _point_gen()
    read = _counted_loadtxt(monkeypatch)
    exponent = 0
    for seed in (1, 2, 3):
        pts, _ = point_gen.generate(seed, 2**16)
        path = tmp_path / f"points{seed}.csv"
        point_gen.write_csv(pts, path)
        before = dict(read)
        got = ranges.read_points(path)
        assert np.array_equal(got, pts.T)  # %r round-trips
        cells = len(re.findall(rb"[^,\n]*e[^,\n]*", path.read_bytes()))
        assert read["float"] - before["float"] == cells
        assert read["int"] - before["int"] == pts.size
        exponent += cells
    assert exponent > 0


@pytest.mark.parametrize("chunk", [512, 1 << 16])
def test_crlf_file_takes_the_integer_route(tmp_path, monkeypatch, chunk):
    # a CRLF file reads the bits of its LF twin, and as it does: np.loadtxt
    # reads floats only for the cells in exponent notation, in the whole
    # file and in each range of it, a range cut after a CR included
    monkeypatch.setattr(ranges, "_CHUNK", chunk)
    pts, _ = _point_gen().generate(6, 4096)
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    _point_gen().write_csv(pts, lf)
    with open(lf, "ab") as fh:  # two cells in exponent notation
        fh.write(b"1e-05,0.5,2.5e+17,-0.25\n")
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    want = ranges.read_points(lf)
    read = _counted_loadtxt(monkeypatch)
    assert _same(ranges.read_points(crlf), want)
    exponent = len(re.findall(rb"[^,\n]*e[^,\n]*", lf.read_bytes()))
    assert read == {"int": want.size, "float": exponent} and exponent >= 2
    data = crlf.read_bytes()
    cut = data.index(b"\r", len(data) // 2) + 1  # as row_starts cuts: after the CR
    assert ranges.row_starts(crlf, [cut - 1]) == [cut]
    read.update(int=0, float=0)
    halves = [ranges.read_points(crlf, *bounds) for bounds in ((0, cut), (cut, len(data)))]
    assert _same(np.concatenate(halves, axis=1), want)
    assert read == {"int": want.size, "float": exponent}


@pytest.mark.parametrize("chunk", [8, 1 << 16])
@pytest.mark.parametrize(
    "lines",
    [*READ.values(), *(["t1,z1,t2,z2", "0.5,-2.0,0.5,2.0", row] for row in BAD_ROWS)],
    ids=[*READ, *(f"bad{k}" for k in range(len(BAD_ROWS)))],
)
def test_crlf_reader_reads_or_fails_as_loadtxt_alone(tmp_path, monkeypatch, chunk, lines):
    # the same rows, or the same error at the same row, as np.loadtxt alone;
    # a CR that ends no CRLF (the last line) reads as the whole file does
    path = tmp_path / "points.csv"
    for end in (b"", b"\r"):
        path.write_bytes("".join(line + "\r\n" for line in lines).encode() + end)
        monkeypatch.setattr(ranges, "_CHUNK", chunk)
        got = _read(path)
        with monkeypatch.context() as mp:
            _loadtxt_only(mp)
            want = _read(path)
        assert _same(got, want)
        assert isinstance(want, str) != (lines in READ.values())
