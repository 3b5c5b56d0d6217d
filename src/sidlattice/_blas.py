"""The thread count of the OpenBLAS that numpy loaded, set by its own calls through ctypes."""

import contextlib
import ctypes

_NAMES = [(f"{prefix}set_num_threads{suffix}", f"{prefix}get_num_threads{suffix}")
          for prefix in ("scipy_openblas_", "openblas_") for suffix in ("64_", "")]
_calls = None  # (setter, getter), or () where none is found: looked up at the first CLI call
_pool = 0  # the count recorded on entry to a one-thread call, 0 outside one


def _lookup() -> tuple:
    global _calls
    if _calls is None:
        libs = []  # none where /proc is missing or a library will not open
        with contextlib.suppress(OSError), open("/proc/self/maps", encoding="utf-8") as fh:
            libs = [ctypes.CDLL(path) for path in sorted(
                {line.split(None, 5)[5].strip() for line in fh if "openblas" in line.lower()})]
        _calls = next(((getattr(lib, set_), getattr(lib, get)) for lib in libs
                       for set_, get in _NAMES if hasattr(lib, set_) and hasattr(lib, get)), ())
    return _calls


@contextlib.contextmanager
def blas_threads(count: int = 0):
    """Run the block at count BLAS threads, or for 0 at the count the enclosing one-thread call
    recorded (nothing outside one); the count found on entry is restored, also if it raises."""
    global _pool
    setter, getter = (_lookup() if count or _pool else ()) or (lambda _: None, lambda: 0)
    own, outer = getter(), _pool
    _pool = outer or own
    setter(count or _pool)
    try:
        yield
    finally:
        setter(own)
        _pool = outer
