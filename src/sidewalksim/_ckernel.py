"""Build and load the package's C kernels.

_walkmap.c holds the single-point membership test, the lidar raycast loop,
which classifies its probes with that test, and the obstacles' bounding-disc
test; _gridnav.c the planning kernels: the grid Dijkstra, the teacher's
lookahead walk with its line-of-sight checks, the teacher's lidar corridor
query and the obstacle stamping of the free-space raster; _nets.c the
student's float32 Adam step. _kernels.c includes the three unchanged and
wraps each of the eight kernels as a function of one CPython extension
module, which takes numpy arrays of the dtype each kernel reads through the
buffer protocol.

The module is compiled on the first call to any kernel, with the C compiler
found on PATH and this interpreter's headers, into __pycache__ beside the
sources, then imported from there. The kernels are available together or not
at all: without a compiler or without Python.h, or when a build or a load
fails, load() warns once and every caller uses its pure-Python path.

Since _kernels.c includes the kernel sources whole, the built object exports
the eight kernel functions under their C names besides PyInit__kernels.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import shutil
import sysconfig
import tempfile
import warnings

COMPILERS = ("cc", "gcc", "clang")
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
SOURCE = "_kernels.c"
INCLUDED = ("_walkmap.c", "_gridnav.c", "_nets.c")  # the kernel sources SOURCE includes
# the module's functions, each wrapping the C function of the same name
KERNELS = ("point_walkable", "raycast_loop", "first_disc_holding", "grid_dijkstra",
           "grid_lookahead", "corridor_hit", "stamp_obstacles", "adam_step")
_UNLOADED = object()
_loaded = _UNLOADED  # load()'s answer once it has run; None switches every kernel off


def build(source: str) -> str:
    """Path of the extension module built from `source`, a _kernels.c with
    the kernel sources it includes beside it.

    The file name carries a hash of the four sources, the compiler flags
    (with the include directory of this interpreter's headers) and the
    interpreter's extension suffix, so a stale object, or one built for
    another interpreter, is never loaded. A build writes a private temporary
    file and renames it into place, so processes building at the same time
    never see a partial object. Raises OSError when no object can be built.
    """
    # imported here, not at module level: hashlib loads OpenSSL, which would
    # slow down every import of the package for a build that rarely runs
    import hashlib
    import subprocess

    directory = os.path.dirname(source)
    flags = (*FLAGS, "-I", sysconfig.get_paths()["include"])
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    digest = hashlib.sha256()
    for path in (source, *(os.path.join(directory, name) for name in INCLUDED)):
        with open(path, "rb") as f:
            digest.update(f.read() + b"\0")
    digest.update(" ".join((*flags, suffix)).encode())
    stem = os.path.splitext(os.path.basename(source))[0]
    cache_dir = os.path.join(directory, "__pycache__")
    target = os.path.join(cache_dir, f"{stem}-{digest.hexdigest()[:16]}{suffix}")
    if os.path.exists(target):
        return target
    compiler = next(filter(None, map(shutil.which, COMPILERS)), None)
    if compiler is None:
        raise OSError(f"no C compiler on PATH (tried {', '.join(COMPILERS)})")
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f"{stem}-", suffix=".tmp", dir=cache_dir)
    os.close(fd)
    try:
        subprocess.run([compiler, *flags, "-o", tmp, source, "-lm"],
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
    """The extension module, whose functions are the eight KERNELS, built and
    imported once per process; None, after one RuntimeWarning, when it cannot
    be built or imported. Then each call site takes its pure-Python path,
    which returns the same values bit for bit, only slower:

    - WalkableMap.is_walkable: the bbox loop, _is_walkable_python;
    - WalkableMap.sample_walkable_point: geometry.point_in_polygon on the
      polygon it drew;
    - WorldState.obstacles_near: the numpy broad phase;
    - sensors.raycast: the numpy path, _raycast_numpy, which classifies its
      probes with contains_points as raycast_loop classifies them with
      point_walkable;
    - gridnav's Dijkstra fields: _dijkstra_heapq;
    - DistanceField.lookahead_point: the Python walk, _lookahead_walk;
    - planner.corridor_hit: its Python loop over the rays;
    - gridnav.free_space_grid: the numpy stamping loop, _stamp_obstacles_numpy,
      with Obstacle.covers;
    - Adam.step on float32 parameters: the numpy loop, nets._adam_numpy.
    """
    global _loaded
    if _loaded is _UNLOADED:
        try:
            path = build(os.path.join(os.path.dirname(os.path.abspath(__file__)), SOURCE))
            loader = importlib.machinery.ExtensionFileLoader(f"{__package__}._kernels", path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(loader.name, path, loader=loader))
            loader.exec_module(module)
        except (OSError, ImportError) as exc:
            warnings.warn(f"compiled kernels unavailable, using their pure-Python paths: {exc}",
                          RuntimeWarning, stacklevel=3)
            _loaded = None
        else:
            _loaded = module
    return _loaded
