"""How `evaluate` cuts its rows into ranges and blocks, and solves and formats them.

No row needs another row's value, so `evaluate` cuts a large input into
contiguous ranges, one per usable CPU, each of _RANGE rows or more, and
each range into blocks of about _BLOCK rows.  point_ranges cuts a points
file at row starts (row_starts) and reads each range (read_points);
grid_ranges cuts the slice grid's pairs by z1 rows; write_blocks
classifies, solves, formats and writes a range's blocks; Workers forks a
process for each range after the first.  Only `evaluate` imports this
module, and only when it runs, so that the command line's start-up does
not compile it.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import os
import re
import warnings
from pathlib import Path

import numpy as np

from . import fmt17
from .forks import Forks, send, worker_count
from .scenario import Scenario, ScenarioConfigError

ROW_BYTES = 64  # a points file counts a row per this many bytes (%r rows take ~77)
_BLOCK = 4096  # rows classified, solved, formatted and written at a time
_RANGE = 4 * _BLOCK  # rows a range needs for a worker: a fork does not pay below 2-4 blocks


class _Window(io.RawIOBase):
    """Bytes [start, stop) of a file, as a raw stream."""

    def __init__(self, path: Path, start: int, stop: int):
        self._fh = open(path, "rb", buffering=0)
        self._fh.seek(start)
        self._left = stop - start

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._fh.readinto(memoryview(buffer)[: self._left])
        self._left -= n
        return n

    def close(self) -> None:
        self._fh.close()
        super().close()


def read_points(path: Path, start: int = 0, stop: int | None = None) -> np.ndarray:
    """The (4, n) coordinates t1, z1, t2, z2 of a CSV file, columns found by name.

    The file is UTF-8, with or without a byte-order mark.  The header is one
    csv row; a repeated name means its last column.  The rows read as
    np.loadtxt parses them on the same handle: blank lines and extra
    columns are skipped, quoted cells accepted, and a short row, a "#" or
    an unparsable cell is a "bad points file"; no rows is no error.  With
    stop given, only the rows in bytes [start, stop) are read, a range that
    begins at 0 or at a row start (see row_starts).  A regular file is
    read in chunks by _chunked_rows where it can be, to the same bits; the
    rest, and every error, by np.loadtxt on the whole range.
    """
    cols = ("t1", "z1", "t2", "z2")

    def text(first: int) -> io.TextIOBase:
        if stop is None:
            return open(path, newline="", encoding="utf-8-sig")
        # a range starts at a row, so it splits no UTF-8 sequence and only
        # the first one can start with a byte-order mark
        encoding = "utf-8" if first else "utf-8-sig"
        raw = io.BufferedReader(_Window(path, first, stop))
        return io.TextIOWrapper(raw, encoding=encoding, newline="")

    def rows(fh) -> np.ndarray:
        try:
            with warnings.catch_warnings():  # no rows is no error
                warnings.filterwarnings(
                    "ignore", "loadtxt: input contained no data", UserWarning
                )
                return np.loadtxt(
                    fh,
                    delimiter=",",
                    usecols=usecols,
                    ndmin=2,
                    quotechar='"',
                    comments=None,  # "#" is not a comment: such a line is an error
                )
        except ValueError as err:
            raise ScenarioConfigError(f"bad points file: {err}") from err

    with text(0) as fh:
        header = next(csv.reader(fh), [])
        index = {name: k for k, name in enumerate(header)}
        if any(c not in index for c in cols):
            msg = f"points file needs columns {cols}, its header has {tuple(header)}"
            raise ScenarioConfigError(msg)
        usecols = [index[c] for c in cols]
        pts = _chunked_rows(path, start, stop, len(header), usecols) if path.is_file() else None
        if pts is None and not start:
            pts = rows(fh)
    if pts is None:
        with text(start) as fh:
            pts = rows(fh)
    return pts.T


_CHUNK = 1 << 16  # bytes of a points file parsed at a time by _chunked_rows
_LF, _COMMA, _POINT, _MINUS, _PLUS, _ZERO = b"\n,.-+0"
_PLAIN = b"0123456789-.,e+\n"  # the bytes of a plain chunk
_FRACTION = 22  # 10^22 is the last power of ten that is an exact double
_HUGE = 10**18  # an integer of up to 18 digits is below this


def _chunked_rows(
    path: Path, first: int, stop: int | None, fields: int, usecols: list[int]
) -> np.ndarray | None:
    """The (n, 4) columns usecols of bytes [first, stop) of a file; None if not read.

    first 0 is the start of the file, whose header line (to its LF) is
    skipped; stop None is its end.  A range that starts at the LF of a
    CRLF (row_starts cuts after the CR) starts after it: that LF ends a
    blank line.  The LFs are counted first, so that the points are held
    once; then the rows are read in chunks of about _CHUNK bytes cut after
    an LF, each by _plain_chunk.  None, and the caller reads the whole
    range with np.loadtxt, where there is no row, where the header holds a
    quote (a quoted cell can hold a line end) or a CR other than one just
    before its LF (a line end other than an LF or CRLF), and where a chunk
    is not plain (which rules out both in the rows): a whole read reports
    an error with its row in the file.
    """
    with open(path, "rb") as fh:
        if first == 0:
            head = fh.readline()
            if b'"' in head or b"\r" in head[:-2] or not head.endswith(b"\n"):
                return None
            first = len(head)
        else:
            fh.seek(first - 1)
            if fh.read(2) == b"\r\n":
                first += 1
        end = os.fstat(fh.fileno()).st_size if stop is None else stop
        fh.seek(first)
        lines = 0
        for chunk in _chunks(fh, end - first):
            lines += int(np.count_nonzero(np.frombuffer(chunk, dtype=np.uint8) == _LF))
        out = np.empty((lines + 1, 4))  # the last line may have no LF
        n = 0
        rest = b""
        fh.seek(first)
        for chunk in itertools.chain(_chunks(fh, end - first), [b""]):  # b"": the end
            data = rest + chunk
            cut = data.rfind(b"\n") + 1 if chunk else len(data)
            data, rest = data[:cut], data[cut:]
            if not data:
                continue
            if not chunk:  # the last line, without its LF
                data += b"\n"
            rows = _plain_chunk(data, fields, usecols)
            if rows is None:
                return None
            out[n : n + len(rows)] = rows
            n += len(rows)
    return out[:n] if n else None


def _chunks(fh, size: int):
    """The next size bytes of fh, _CHUNK at a time."""
    while size > 0 and (chunk := fh.read(min(_CHUNK, size))):
        size -= len(chunk)
        yield chunk


def _plain_chunk(data: bytes, fields: int, usecols: list[int]) -> np.ndarray | None:
    """The (m, 4) columns usecols of data, whole LF-ended rows; None if not plain.

    data is plain when it holds only the bytes 0-9 - . , e + and LF, and
    each row has fields cells; where its only CRs are those of CRLF line
    ends, they are dropped first.  A cell of at most one point, no "e" and
    no sign right after its point is read as N / 10^k, N the integer of its
    digits and k the count of them after the point: np.loadtxt reads each N
    as an int64 from data without its points (so the sign of a cell it
    reads is its first byte), and _scaled scales it.  A zero takes its sign
    from the cell's first byte, so that -0 is -0.0.  A cell with an "e",
    more than one point, a sign after its point or k > 22, one with |N| of
    10^18 or more, and a quotient that _scaled cannot prove correctly
    rounded are read by np.loadtxt as floats, as the whole file would be;
    where np.loadtxt fails the chunk is not plain.
    """
    if data.translate(None, _PLAIN):  # only here: a plain chunk pays no CR test
        crs = data.count(b"\r")
        if not crs or crs != data.count(b"\r\n"):
            return None
        data = data.replace(b"\r\n", b"\n")
        if data.translate(None, _PLAIN):
            return None
    b = np.frombuffer(data, dtype=np.uint8)
    line_end = b == _LF
    sep = np.flatnonzero(line_end | (b == _COMMA))  # the end of each cell
    rows = int(np.count_nonzero(line_end))
    if sep.size != rows * fields or (b[sep[fields - 1 :: fields]] != _LF).any():
        return None
    point = np.flatnonzero(b == _POINT)
    if point.size == sep.size and (point < sep).all() and (point[1:] > sep[:-1]).all():
        at, odd = point, np.zeros(sep.size, dtype=bool)  # a point in each cell
    else:
        owner = np.searchsorted(sep, point)  # the cell of each point
        at = sep - 1  # k = 0 where a cell has no point
        at[owner] = point
        odd = np.bincount(owner, minlength=sep.size) > 1
    if b"e" in data:
        odd[np.searchsorted(sep, np.flatnonzero(b == ord("e")))] = True
    after = b[point + 1]  # a data's last byte is an LF
    signed = (after == _MINUS) | (after == _PLUS)
    if signed.any():  # ".-5" would read -5 with its point dropped
        odd[np.searchsorted(sep, point[signed])] = True
    cells = (np.arange(rows)[:, None] * fields + usecols).ravel()
    k = sep[cells] - at[cells] - 1
    odd = odd[cells] | (k > _FRACTION)
    digits = data
    if odd.any():  # each odd cell reads as 0 here, as a float below
        b = b.copy()
        begin, end = _bounds(sep, cells[odd])
        length = end - begin
        b[np.repeat(begin - (np.cumsum(length) - length), length) + np.arange(length.sum())] = _ZERO
        k[odd] = 0
        digits = b.tobytes()
    try:
        ints = np.loadtxt(
            io.BytesIO(digits.replace(b".", b"")),  # ASCII, so any 8-bit encoding reads it
            delimiter=",",
            dtype=np.int64,
            usecols=usecols,
            ndmin=2,
            comments=None,
        ).ravel()
    except ValueError:
        return None
    huge = np.abs(ints) >= _HUGE
    if huge.any():
        odd |= huge
        ints[huge] = 0
    values, proven = _scaled(ints, k)
    zero = np.flatnonzero(ints == 0)
    negative = b[_bounds(sep, cells[zero])[0]] == _MINUS
    values[zero[negative]] = -0.0
    redo = np.flatnonzero(odd | ~proven)
    if redo.size:
        begin, end = _bounds(sep, cells[redo])
        batch = b",".join(data[i:j] for i, j in zip(begin.tolist(), end.tolist()))
        try:
            values[redo] = np.loadtxt(io.BytesIO(batch), delimiter=",", ndmin=1, comments=None)
        except ValueError:
            return None
    return values.reshape(-1, 4)


def _bounds(sep: np.ndarray, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The byte range [begin, end) of each of cells, given the end of every cell."""
    return np.where(cells > 0, sep[cells - 1] + 1, 0), sep[cells]


def _scaled(n: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """n / 10^k correctly rounded, for |n| < 10^18 and 0 <= k <= 22; where proven.

    q = n 10^-k, from doubles, misses x = n / 10^k by a few ulps at most,
    and the residual d = n - q 10^k decides between q and its neighbours.
    Dekker's exact product q 10^k = ph + pl (10^k is an exact double), with
    n = nh + nl (nh = n rounded, nl exact), gives d = ((nh - ph) - pl) + nl,
    where nh - ph is exact (Sterbenz) and the rest is off by ~1e-31
    relative to n.  Then r = q + d 10^-k rounds x correctly unless x lies
    within ~1e-15 ulp of a midpoint between two doubles: t = (q + d 10^-k)
    - r is exact (Fast2Sum), and r is proven where |t| stays 2^-40 below
    half the gap from r to its neighbour towards zero (the smaller of its
    two gaps).  Below 2^53, where n is an exact double, a proven r is the
    one IEEE division n / 10^k of Clinger's fast path, found here without
    dividing.
    """
    hi, split_head, split_tail, _ = fmt17._powers()
    one = 16 - fmt17._K_MIN  # the row of 10^0: 10^k lies k rows before it, 10^-k k after
    ten, inverse = hi.take(one - k), hi.take(one + k)
    nh = n.astype(np.float64)
    q = nh * inverse
    nl = (n - nh.astype(np.int64)).astype(np.float64)
    ph = q * ten
    qh, qt = fmt17.split(q)
    head, tail = split_head.take(one - k), split_tail.take(one - k)
    pl = ((qh * head - ph) + qh * tail + qt * head) + qt * tail
    c = (((nh - ph) - pl) + nl) * inverse
    r = q + c
    t = c - (r - q)
    gap = r - (r.view(np.int64) - 1).view(np.float64)  # a bit pattern less: towards zero
    return r, (np.abs(t) < np.abs(gap) * (0.5 - 2.0**-41)) | (n == 0)


_ROW_END = re.compile(rb"[\r\n]")


def row_starts(path: Path, targets: list[int]) -> list[int] | None:
    """The first row start at or after each of the increasing byte offsets targets.

    A row ends at "\n" or "\r" (a range that starts inside "\r\n" starts
    with a blank line, which is skipped).  A target past the last row start
    gets none.  None if the bytes read to find them (up to the last start, in
    chunks of _CHUNK) hold a quote: a quoted cell can hold a line end, so
    such a file is not cut.
    """
    starts: list[int] = []
    pending = iter(targets)
    target = next(pending, None)
    offset = 0  # of chunk in the file
    with open(path, "rb") as fh:
        chunks = _chunks(fh, os.fstat(fh.fileno()).st_size)
        while target is not None and (chunk := next(chunks, b"")):
            if b'"' in chunk:
                return None
            # a row starts at target if a line end is at target - 1
            while target is not None and (m := _ROW_END.search(chunk, max(0, target - 1 - offset))):
                starts.append(offset + m.end())
                target = next(pending, None)
            offset += len(chunk)
    return starts


def range_count(rows: int) -> int:
    """Ranges for rows of input: one per usable CPU, each with _RANGE rows or more."""
    return max(1, min(worker_count(), rows // _RANGE))


def point_ranges(path: Path) -> list:
    """Jobs that read the points file, one per worker: each returns (rows, blocks).

    blocks yields (coords, None) of _BLOCK rows at a time.  A regular file
    large enough is cut at row starts into byte ranges of about equal size,
    each of _RANGE rows or more; any other file, or one with a quote before
    its last cut, is read whole, as one range.  A range that starts past 0
    and fails to read reads the whole file, so that a bad row is reported
    with its row number in the file.
    """

    def job(start: int = 0, stop: int | None = None):
        try:
            pts = read_points(path, start, stop)
        except ScenarioConfigError:
            if start:  # its rows count from start: one read of the whole file numbers them
                read_points(path)
            raise
        return pts.shape[1], ((pts[:, k:k + _BLOCK], None) for k in range(0, pts.shape[1], _BLOCK))

    size = path.stat().st_size if path.is_file() else 0
    count = range_count(size // ROW_BYTES)
    starts = row_starts(path, [size * k // count for k in range(1, count)]) if count > 1 else None
    if not starts:  # one range: the file is read whole
        return [job]
    bounds = sorted({0, *starts, size})
    return [lambda a=a, b=b: job(a, b) for a, b in zip(bounds, bounds[1:])]


def grid_ranges(s: Scenario, time: float, z: np.ndarray) -> list:
    """Jobs for the slice grid, at most one per worker: each returns (rows, blocks).

    blocks yields (coords, psi) of the grid's pairs (z_i, z_j), i-major, in
    whole z1 rows, about _BLOCK pairs at a time: coords is (4, m) and psi
    (4, m), zero where a pair is not space-like.
    """
    step = max(1, _BLOCK // z.size)
    starts = range(0, z.size, step)
    count = min(range_count(z.size**2), len(starts))
    bounds = [starts[len(starts) * k // count] for k in range(count)] + [z.size]

    def blocks(first: int, stop: int):
        from .solver import evaluate_grid

        tz = np.full(z.size, time)
        for i in range(first, stop, step):
            z1 = z[i:min(i + step, stop)]
            psi, _ = evaluate_grid(s, tz[:z1.size], z1, tz, z)
            t = np.full(z1.size * z.size, time)
            yield np.stack([t, np.repeat(z1, z.size), t, np.tile(z, z1.size)]), psi.reshape(4, -1)

    return [lambda a=a, b=b: ((b - a) * z.size, blocks(a, b)) for a, b in zip(bounds, bounds[1:])]


def write_blocks(s: Scenario, blocks, fh) -> int:
    """Classify, solve, format and write each (coords, psi) block; the rows flagged.

    psi is None for points, which are solved here.
    """
    from .geometry import REGIONS, Region, regions
    from .solver import evaluate_fields

    spacelike = (Region.OMEGA1, Region.OMEGA2)
    on_codes = [REGIONS.index(r) for r in spacelike]
    # a row's tail: its region name and then eight empty cells (a flagged
    # row) or eight "0" (a space-like row whose psi words are all +0.0)
    names = [r.value.encode() for r in REGIONS]
    tails = [n + (b",0" if r in spacelike else b",") * 8 for n, r in zip(names, REGIONS)]
    tail_pool = np.frombuffer(b"".join(tails), dtype=np.uint8)
    tail_length = np.array([len(t) for t in tails])
    tail_start = np.cumsum(tail_length) - tail_length
    name_length = np.array([len(n) for n in names])
    flagged = 0
    # no row needs another row's value, so each block is classified,
    # solved, formatted and written before the next: beyond a file's
    # points the memory does not grow with the rows
    for coords, psi in blocks:
        rows = regions(*coords)
        on = np.flatnonzero(np.isin(rows, on_codes))
        flagged += rows.size - on.size
        values = evaluate_fields(s, *coords[:, on]) if psi is None else psi[:, on]
        # re, im of psi1..psi4 on each space-like row
        words = np.ascontiguousarray(values.T).view(float)
        del values  # not held while the next block is solved
        nonzero = words.view(np.uint64).any(axis=1)  # a word other than +0.0
        live = np.zeros(rows.size, dtype=bool)
        live[on[nonzero]] = True
        pool, start, length = fmt17.format17(
            np.concatenate([coords.T.reshape(-1), words[nonzero].reshape(-1)])
        )
        # (start, length) of each row's cells: four coordinates, then its
        # tail, or its region name and eight psi words on a live row
        cell = np.stack([start, length])
        split = 4 * rows.size
        cells = np.zeros((2, rows.size, 13), dtype=np.int64)
        cells[:, :, :4] = cell[:, :split].reshape(2, -1, 4)
        cells[0, :, 4] = pool.size + tail_start[rows]
        cells[1, :, 4] = np.where(live, name_length[rows], tail_length[rows])
        cells[:, live, 5:] = cell[:, split:].reshape(2, -1, 8)
        width = np.where(live, 13, 5)
        fh.write(fmt17.join_rows(np.concatenate([pool, tail_pool]), *cells, width))
    return flagged


class Workers(Forks):
    """Forked processes, each of which reads, solves and formats one range.

    A worker reports twice over its pipe (forks.send): its row count once
    its range is read, then its flagged count once its rows are in its part
    file (a hidden file next to the output).  Between the two the worker
    waits for go, so that nothing is written before every range has been
    read.  On leaving the with block the part files are removed.  evaluate
    is elementwise numpy, so the workers call no BLAS.
    """

    def __init__(self, dest: Path):
        super().__init__("an evaluate worker")
        self.dest = dest
        self.parts: list[Path] = []
        self.start, self.go_signal = os.pipe()

    def __exit__(self, kind, *rest) -> None:
        super().__exit__(kind, *rest)
        os.close(self.start)
        os.close(self.go_signal)
        for part in self.parts:
            part.unlink(missing_ok=True)

    def fork(self, job, write) -> None:
        """Run job() -> (rows, blocks) in a new worker, then write(blocks, fh) -> flagged."""
        part = self.dest.with_name(f".{self.dest.name}.{os.getpid()}.{len(self.pids) + 1}.part")
        self.parts.append(part)
        super().fork(functools.partial(_work, job, write, part, self.start), self.go_signal)

    def go(self) -> None:
        os.write(self.go_signal, b"g" * len(self.pids))

    def append(self, k: int, fh) -> None:
        """Copy part k to the end of fh, a binary file."""
        fh.flush()
        with open(self.parts[k], "rb") as part:
            offset = 0
            while sent := os.sendfile(fh.fileno(), part.fileno(), offset, 1 << 30):
                offset += sent


def _work(job, write, part: Path, start: int, reply) -> None:
    """A worker's body: read its range, then on go write its rows into part."""
    try:
        rows, blocks = job()
        send(reply, rows)
        if os.read(start, 1) != b"g":  # the parent is gone
            return
        with open(part, "wb") as fh:
            flagged = write(blocks, fh)
        send(reply, flagged)
    except Exception as err:  # an interrupt reaches the parent itself
        send(reply, err)
