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
import os
import pickle
import re
import warnings
from pathlib import Path

import numpy as np

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
    csv row; a repeated name means its last column.  The
    rows are parsed by np.loadtxt on the same handle: blank lines and extra
    columns are skipped, quoted cells accepted, and a short row, a "#" or an
    unparsable cell is a "bad points file".  With stop given, only the rows
    in bytes [start, stop) are read, a range that begins at 0 or at a row
    start (see row_starts), and no rows is no error.
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
        if not start:
            pts = rows(fh)
    if start:
        with text(start) as fh:
            pts = rows(fh)
    if stop is None and pts.shape[0] == 0:
        raise ScenarioConfigError("points file has no rows")
    return pts.T


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
