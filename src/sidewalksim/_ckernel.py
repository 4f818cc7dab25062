"""Build and load the package's C kernels.

_walkmap.c holds the single-point membership test, the lidar raycast loop,
which classifies its probes with that test, and the obstacles' bounding-disc
test; _gridnav.c the grid Dijkstra and the teacher's lookahead walk with its
line-of-sight checks.

A kernel is compiled on first use with the C compiler found on PATH into
__pycache__ beside its source, then loaded through ctypes. Without a compiler,
or when the build or the load fails, the caller warns once and uses its
pure-Python path, which returns the same values bit for bit, only slower.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import tempfile
import warnings

COMPILERS = ("cc", "gcc", "clang")
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_UNLOADED = object()
_ARG_KINDS = {"d": ctypes.c_double, "i": ctypes.c_int64, "p": ctypes.c_void_p}


def build(source: str) -> str:
    """Path of the shared object built from the source file and the flags.

    The file name carries a hash of both, so a stale object is never loaded.
    A build writes a private temporary file and renames it into place, so
    processes building at the same time never see a partial object. Raises
    OSError when no object can be built.
    """
    # imported here, not at module level: hashlib loads OpenSSL, which would
    # slow down every import of the package for a build that rarely runs
    import hashlib
    import subprocess

    with open(source, "rb") as f:
        key = hashlib.sha256(f.read() + " ".join(FLAGS).encode()).hexdigest()[:16]
    stem = os.path.splitext(os.path.basename(source))[0]
    cache_dir = os.path.join(os.path.dirname(source), "__pycache__")
    target = os.path.join(cache_dir, f"{stem}-{key}.so")
    if os.path.exists(target):
        return target
    compiler = next(filter(None, map(shutil.which, COMPILERS)), None)
    if compiler is None:
        raise OSError(f"no C compiler on PATH (tried {', '.join(COMPILERS)})")
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f"{stem}-", suffix=".so.tmp", dir=cache_dir)
    os.close(fd)
    try:
        subprocess.run([compiler, *FLAGS, "-o", tmp, source, "-lm"],
                       check=True, capture_output=True, timeout=120)
        os.replace(tmp, target)
    except subprocess.CalledProcessError as exc:
        raise OSError(f"{compiler} failed: {exc.stderr.decode(errors='replace')[-500:]}") from exc
    except subprocess.TimeoutExpired as exc:
        raise OSError(f"{compiler} timed out") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


class Kernel:
    """One int-returning C function of one source file beside this module.

    `signature` names the argument kinds in order: d = double, i = int64,
    p = pointer (a data address). `fallback` names the pure-Python path in
    the warning given when the kernel is unavailable.
    """

    def __init__(self, source: str, symbol: str, signature: str, fallback: str):
        self.source = os.path.join(os.path.dirname(os.path.abspath(__file__)), source)
        self.symbol = symbol
        self.argtypes = tuple(_ARG_KINDS[k] for k in signature)
        self.fallback = fallback
        self.fn = _UNLOADED  # the ctypes function, or None once found unavailable

    def load(self):
        """The function, built and loaded once per process; None if unavailable."""
        if self.fn is _UNLOADED:
            try:
                fn = getattr(ctypes.CDLL(build(self.source)), self.symbol)
            except (OSError, AttributeError) as exc:
                warnings.warn(f"compiled {self.symbol} unavailable, using the "
                              f"{self.fallback}: {exc}", RuntimeWarning, stacklevel=3)
                fn = None
            else:
                fn.argtypes = self.argtypes
                fn.restype = ctypes.c_int
            self.fn = fn
        return self.fn
