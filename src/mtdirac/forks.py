"""Forked worker processes that send their reports back over a pipe.

A worker runs a body in a child of this process (os.fork); the body sends
its reports by send, each a picklable value or an exception, and receive
returns them in order in the parent, raising an exception with the
worker's type and message.  A worker that ends without a report (killed,
os._exit, or an exception that does not pickle) makes receive raise
ChildProcessError, naming the worker.  On leaving the with block every
worker is reaped, and killed first if the block raised.  A worker never
returns into its caller: it ends by os._exit, so that no buffer, atexit
hook or enclosing frame of the parent runs twice.  Workers call no BLAS: a
forked process holds none of its parent's BLAS threads (Python 3.12 and
later warn on a fork while threads run).  `evaluate` (ranges.Workers) and
`verify` fork through this module, and worker_count holds the one rule for
how many CPUs a run may use, also for the quadrature's threads.
"""

from __future__ import annotations

import os
import pickle


def worker_count() -> int:
    """Usable CPUs (os.sched_getaffinity) where a process can fork; else 1."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return len(os.sched_getaffinity(0))


class Forks:
    """Forked workers, each reporting over its own pipe; name says which in errors."""

    def __init__(self, name: str):
        self.name = name
        self.pids: list[int] = []
        self.replies: list = []

    def __enter__(self) -> Forks:
        return self

    def __exit__(self, kind, *_) -> None:
        if kind is not None:
            import signal  # only a failing caller kills its workers

            for pid in self.pids:
                os.kill(pid, signal.SIGKILL)
        for pid in self.pids:
            os.waitpid(pid, 0)
        for fh in self.replies:
            fh.close()

    def fork(self, body, *close: int) -> None:
        """Run body(reply) in a new worker, which first closes the descriptors close.

        reply is the binary end of the worker's pipe, for send.
        """
        read, reply = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                for fd in (read, *close):
                    os.close(fd)
                with os.fdopen(reply, "wb") as fh:
                    body(fh)
            finally:
                os._exit(0)
        os.close(reply)
        self.pids.append(pid)
        self.replies.append(os.fdopen(read, "rb"))

    def receive(self, k: int):
        """The next report of worker k; an exception it sent is raised here."""
        try:
            value = pickle.load(self.replies[k])
        except EOFError:
            raise ChildProcessError(f"{self.name} ended without a report") from None
        if isinstance(value, BaseException):
            raise value
        return value


def send(reply, value) -> None:
    """Report value, or an exception, to the parent."""
    data = pickle.dumps(value)  # one that does not pickle raises before a byte is sent
    reply.write(data)
    reply.flush()
