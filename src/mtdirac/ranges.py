"""Row ranges of `evaluate`'s input, and the worker processes that run them.

No row needs another row's value, so `evaluate` cuts a large input into
contiguous ranges, one per usable CPU, and forks a worker process for each
range after the first.  read_points reads a points file, or one byte range
of it; point_ranges cuts a file at row starts (row_starts); Workers runs
the ranges.  Only `evaluate` imports this module, and only when it runs,
so that the command line's start-up does not compile it.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
import pickle
import re
import warnings
from pathlib import Path

import numpy as np

from . import fmt17
from .scenario import ScenarioConfigError

ROW_BYTES = 64  # a points file counts a row per this many bytes (%r rows take ~77)


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
    an unparsable cell is a "bad points file".  With stop given, only the
    rows in bytes [start, stop) are read, a range that begins at 0 or at a
    row start (see row_starts), and no rows is no error.  A regular file is
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
            with warnings.catch_warnings():  # a header-only file is reported below
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
    if stop is None and pts.shape[0] == 0:
        raise ScenarioConfigError("points file has no rows")
    return pts.T


_CHUNK = 1 << 16  # bytes of a points file parsed at a time by _chunked_rows
_LF, _COMMA, _POINT, _MINUS, _PLUS, _ZERO = b"\n,.-+0"
_PLAIN = b"0123456789-.,e+\n"  # the bytes of a plain chunk
_FRACTION = 22  # 10^22 is the last power of ten that is an exact double
_HUGE = 10**18  # an integer of up to 18 digits is below this
_TEN = np.array([float(10**k) for k in range(_FRACTION + 1)])
_INVERSE = 1.0 / _TEN
_TEN_HEAD, _TEN_TAIL = fmt17.split(_TEN)


def _chunked_rows(
    path: Path, first: int, stop: int | None, fields: int, usecols: list[int]
) -> np.ndarray | None:
    """The (n, 4) columns usecols of bytes [first, stop) of a file; None if not read.

    first 0 is the start of the file, whose header line (to its LF) is
    skipped; stop None is its end.  The lines are counted first, so that
    the points are held once; then the rows are read in chunks of about
    _CHUNK bytes cut after an LF, each by _plain_chunk.  None, and the
    caller reads the whole range with np.loadtxt, where there is no row,
    where the header or a row holds a quote (a quoted cell can hold a line
    end) or a CR (a line end other than an LF), and where a chunk is not
    plain: a whole read reports an error with its row in the file.
    """
    with open(path, "rb") as fh:
        if first == 0:
            head = fh.readline()
            if b'"' in head or b"\r" in head or not head.endswith(b"\n"):
                return None
            first = len(head)
        end = os.fstat(fh.fileno()).st_size if stop is None else stop
        fh.seek(first)
        lines = 0
        for chunk in _chunks(fh, end - first):
            if b'"' in chunk or b"\r" in chunk:
                return None
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
    each row has fields cells.  A cell of at most one point, no "e" and no
    sign right after its point is read as N / 10^k, N the integer of its
    digits and k the count of them after the point: np.loadtxt reads each N
    as an int64 from data without its points (so the sign of a cell it
    reads is its first byte), and _scaled scales it.  A zero takes its sign
    from the cell's first byte, so that -0 is -0.0.  A cell with an "e",
    more than one point, a sign after its point or k > 22, one with |N| of
    10^18 or more, and a quotient that _scaled cannot prove correctly
    rounded are read by np.loadtxt as floats, as the whole file would be;
    where np.loadtxt fails the chunk is not plain.
    """
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
    ten, inverse = _TEN.take(k), _INVERSE.take(k)
    nh = n.astype(np.float64)
    q = nh * inverse
    nl = (n - nh.astype(np.int64)).astype(np.float64)
    ph = q * ten
    qh, qt = fmt17.split(q)
    head, tail = _TEN_HEAD.take(k), _TEN_TAIL.take(k)
    pl = ((qh * head - ph) + qh * tail + qt * head) + qt * tail
    c = (((nh - ph) - pl) + nl) * inverse
    r = q + c
    t = c - (r - q)
    gap = r - (r.view(np.int64) - 1).view(np.float64)  # a bit pattern less: towards zero
    return r, (np.abs(t) < np.abs(gap) * (0.5 - 2.0**-41)) | (n == 0)


_SCAN = 1 << 16  # bytes read at a time while a points file is cut into ranges
_ROW_END = re.compile(rb"[\r\n]")


def row_starts(path: Path, targets: list[int]) -> list[int] | None:
    """The first row start at or after each of the increasing byte offsets targets.

    A row ends at "\n" or "\r" (a range that starts inside "\r\n" starts
    with a blank line, which is skipped).  A target past the last row start
    gets none.  None if the bytes read to find them (up to the last start, in
    chunks of _SCAN) hold a quote: a quoted cell can hold a line end, so
    such a file is not cut.
    """
    starts: list[int] = []
    pending = iter(targets)
    target = next(pending, None)
    offset = 0  # of chunk in the file
    with open(path, "rb") as fh:
        while target is not None and (chunk := fh.read(_SCAN)):
            if b'"' in chunk:
                return None
            # a row starts at target if a line end is at target - 1
            while target is not None and (m := _ROW_END.search(chunk, max(0, target - 1 - offset))):
                starts.append(offset + m.end())
                target = next(pending, None)
            offset += len(chunk)
    return starts


def worker_count(rows: int, least: int) -> int:
    """Processes for rows of input: one per usable CPU, each with least rows or more."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), rows // least))


def point_ranges(path: Path, least: int, block: int) -> list:
    """Jobs that read the points file, one per worker: each returns (rows, blocks).

    blocks yields (coords, None) of block rows at a time.  A regular file
    large enough is cut at row starts into byte ranges of about equal size,
    each of least rows or more; any other file, or one with a quote before
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
        return pts.shape[1], ((pts[:, k:k + block], None) for k in range(0, pts.shape[1], block))

    size = path.stat().st_size if path.is_file() else 0
    count = worker_count(size // ROW_BYTES, least)
    starts = row_starts(path, [size * k // count for k in range(1, count)]) if count > 1 else None
    if not starts:  # one range: the file is read whole
        return [job]
    bounds = sorted({0, *starts, size})
    return [lambda a=a, b=b: job(a, b) for a, b in zip(bounds, bounds[1:])]


class Workers:
    """Forked processes, each of which reads, solves and formats one range.

    A worker reports twice over its pipe: its row count once its range is
    read, then its flagged count once its rows are in its part file (a
    hidden file next to the output).  Either report can be an exception
    instead, which receive raises with the worker's type and message.
    Between the two the worker waits for go, so that nothing is written
    before every range has been read.  On leaving the with block every
    worker is reaped, and killed first if the block raised.  Workers call
    no BLAS: a forked process holds none of its parent's BLAS threads
    (Python 3.12 and later warn on a fork while threads run), and evaluate
    is elementwise numpy.
    """

    def __init__(self, dest: Path):
        self.dest = dest
        self.pids: list[int] = []
        self.replies: list = []
        self.parts: list[Path] = []
        self.start, self.go_signal = os.pipe()

    def __enter__(self) -> Workers:
        return self

    def __exit__(self, kind, *_) -> None:
        if kind is not None:
            import signal  # only a failing command kills its workers

            for pid in self.pids:
                os.kill(pid, signal.SIGKILL)
        for pid in self.pids:
            os.waitpid(pid, 0)
        for fh in self.replies:
            fh.close()
        os.close(self.start)
        os.close(self.go_signal)
        for part in self.parts:
            part.unlink(missing_ok=True)

    def fork(self, job, write) -> None:
        """Run job() -> (rows, blocks) in a new worker, then write(blocks, fh) -> flagged."""
        part = self.dest.with_name(f".{self.dest.name}.{os.getpid()}.{len(self.pids) + 1}.part")
        self.parts.append(part)
        read, reply = os.pipe()
        pid = os.fork()
        if pid == 0:  # a worker never returns into its caller
            try:
                os.close(read)
                os.close(self.go_signal)
                with os.fdopen(reply, "wb") as fh:
                    _work(job, write, part, self.start, fh)
            finally:
                os._exit(0)
        os.close(reply)
        self.pids.append(pid)
        self.replies.append(os.fdopen(read, "rb"))

    def receive(self, k: int) -> int:
        try:
            value = pickle.load(self.replies[k])
        except EOFError:
            raise ChildProcessError("an evaluate worker ended without a report") from None
        if isinstance(value, BaseException):
            raise value
        return value

    def go(self) -> None:
        os.write(self.go_signal, b"g" * len(self.pids))

    def append(self, k: int, fh) -> None:
        """Copy part k to the end of fh, a binary file."""
        fh.flush()
        with open(self.parts[k], "rb") as part:
            offset = 0
            while sent := os.sendfile(fh.fileno(), part.fileno(), offset, 1 << 30):
                offset += sent


def _send(reply, value) -> None:
    # an exception that does not pickle ends the worker without a report
    pickle.dump(value, reply)
    reply.flush()


def _work(job, write, part: Path, start: int, reply) -> None:
    """A worker's body: read its range, then on go write its rows into part."""
    try:
        rows, blocks = job()
        _send(reply, rows)
        if os.read(start, 1) != b"g":  # the parent is gone
            return
        with open(part, "wb") as fh:
            flagged = write(blocks, fh)
        _send(reply, flagged)
    except Exception as err:  # an interrupt reaches the parent itself
        _send(reply, err)
