"""One BLAS thread for the commands whose bytes come from BLAS.

numpy's OpenBLAS starts one thread per usable CPU, and the sums of an SVD
follow that count, so the Schmidt values of `verify` and `scatter` would
move with the host's CPUs.  one_thread() runs a block at one thread, set
and restored in-process through OpenBLAS's own get and set functions,
found with ctypes in the library that numpy's wheel bundles (numpy.libs).
Where they are not found nothing is pinned and threads() reads None: the
bytes then hold for the build's own thread count.  Only `verify`,
`scatter` and interaction.schmidt_spectrum import this module, when they
run, so that `evaluate` and the command line's start-up do not load it.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from pathlib import Path

import numpy as np

# the (get, set) pairs of the OpenBLAS builds: numpy's scipy-openblas
# wheels, then OpenBLAS with 64-bit integers, then plain OpenBLAS
_NAMES = [
    (f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", ""))
]


@functools.cache
def _controls():
    """OpenBLAS's get and set of its thread count, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))  # numpy has loaded it: the same handle
        for get, set_ in _NAMES:
            if hasattr(lib, get) and hasattr(lib, set_):
                get, set_ = getattr(lib, get), getattr(lib, set_)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def threads() -> int | None:
    """The BLAS thread count, or None where it cannot be read."""
    controls = _controls()
    return None if controls is None else controls[0]()


@contextlib.contextmanager
def one_thread():
    """Run the block at one BLAS thread, then restore the count.

    Nothing is set where the count cannot be, or already is one: nested in
    another pin, a pin is a no-op.
    """
    before = threads()
    if before is None or before == 1:
        yield
        return
    set_threads = _controls()[1]
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)
