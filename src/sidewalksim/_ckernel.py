"""Build and load the package's C kernels.

_walkmap.c holds the single-point membership test, the lidar raycast loop,
which classifies its probes with that test, and the obstacles' bounding-disc
test; _gridnav.c the grid Dijkstra and the teacher's lookahead walk with its
line-of-sight checks.

Both sources are compiled on the first call to any kernel, with the C compiler
found on PATH, into __pycache__ beside them, then loaded through ctypes. The
kernels are available together or not at all: without a compiler, or when a
build or a load fails, load() warns once and every caller uses its pure-Python
path.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import tempfile
import types
import warnings

COMPILERS = ("cc", "gcc", "clang")
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_ARG_KINDS = {"d": ctypes.c_double, "i": ctypes.c_int64, "p": ctypes.c_void_p}
# symbol -> (its source beside this module, its argument kinds in order:
# d = double, i = int64, p = pointer, i.e. a data address); each returns an int
SYMBOLS = {
    "point_walkable": ("_walkmap.c", "ddpppi"),
    "raycast_loop": ("_walkmap.c", "ddddpidpippipppip"),
    "first_disc_holding": ("_walkmap.c", "dddipii"),
    "grid_dijkstra": ("_gridnav.c", "piiiiddp"),
    "grid_lookahead": ("_gridnav.c", "dddppiidddddp"),
}
_UNLOADED = object()
_loaded = _UNLOADED  # load()'s answer once it has run; None switches every kernel off


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


def load():
    """The five kernels as attributes named by their symbols, built and typed
    once per process; None, after one RuntimeWarning, when any source or
    symbol is unavailable. Then each call site takes its pure-Python path,
    which returns the same values bit for bit, only slower:

    - WalkableMap.is_walkable: the bbox loop, _is_walkable_python;
    - WalkableMap.sample_walkable_point: geometry.point_in_polygon on the
      polygon it drew;
    - WorldState.obstacles_near: the numpy broad phase;
    - sensors.raycast: the numpy path, _raycast_numpy, which classifies its
      probes with contains_points as raycast_loop classifies them with
      point_walkable;
    - gridnav's Dijkstra fields: _dijkstra_heapq;
    - DistanceField.lookahead_point: the Python walk, _lookahead_walk.
    """
    global _loaded
    if _loaded is _UNLOADED:
        here = os.path.dirname(os.path.abspath(__file__))
        libraries = {}
        functions = {}
        try:
            for symbol, (source, kinds) in SYMBOLS.items():
                if source not in libraries:
                    libraries[source] = ctypes.CDLL(build(os.path.join(here, source)))
                fn = functions[symbol] = getattr(libraries[source], symbol)
                fn.argtypes = tuple(_ARG_KINDS[k] for k in kinds)
                fn.restype = ctypes.c_int
        except (OSError, AttributeError) as exc:
            warnings.warn(f"compiled kernels unavailable, using their pure-Python paths: {exc}",
                          RuntimeWarning, stacklevel=3)
            _loaded = None
        else:
            _loaded = types.SimpleNamespace(**functions)
    return _loaded
