import math
import shutil
import subprocess
import tomllib
import warnings
from pathlib import Path

import numpy as np
import pytest

import sidewalksim
from sidewalksim import _ckernel, gridnav, sensors, suites
from sidewalksim.episode import PLAN_INFLATE
from sidewalksim.gridnav import DistanceField, dijkstra_distances, free_space_grid
from sidewalksim.world import AGENT_RADIUS, collision_check, populate_obstacles

from tests.conftest import needs_c_compiler
from tests.test_world import make_world

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(sidewalksim.__file__).resolve().parent


def symbols_by_source() -> dict:
    """The symbols of _ckernel.SYMBOLS, by source path."""
    symbols = {}
    for symbol, (source, _) in _ckernel.SYMBOLS.items():
        symbols.setdefault(PACKAGE / source, set()).add(symbol)
    return symbols


def test_every_c_source_is_package_data():
    with open(ROOT / "pyproject.toml", "rb") as f:
        data = tomllib.load(f)["tool"]["setuptools"]["package-data"]["sidewalksim"]
    sources = sorted(p.name for p in PACKAGE.glob("*.c"))
    assert sources
    assert sorted(data) == sources


@needs_c_compiler
def test_every_c_source_builds_and_exports_its_kernel():
    assert sorted(symbols_by_source()) == sorted(PACKAGE.glob("*.c"))
    kernels = _ckernel.load()
    assert kernels is not None, "the C kernels failed to build or load"
    assert sorted(vars(kernels)) == sorted(_ckernel.SYMBOLS)


def test_only_the_loader_opens_shared_objects():
    opening = [p.name for p in sorted(PACKAGE.glob("*.py")) if "CDLL" in p.read_text()]
    assert opening == ["_ckernel.py"]


@needs_c_compiler
def test_every_c_source_compiles_without_warnings():
    compiler = next(filter(None, map(shutil.which, _ckernel.COMPILERS)))
    for source in sorted(PACKAGE.glob("*.c")):
        result = subprocess.run(
            [compiler, *_ckernel.FLAGS, "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
             str(source)], capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, f"{source.name}:\n{result.stderr}"


@needs_c_compiler
@pytest.mark.skipif(shutil.which("nm") is None, reason="no nm on PATH to list exports")
def test_every_built_object_exports_only_the_functions_its_kernels_load():
    symbols = symbols_by_source()
    for source in sorted(PACKAGE.glob("*.c")):
        listing = subprocess.run(["nm", "-D", "--defined-only", _ckernel.build(str(source))],
                                 capture_output=True, text=True, check=True, timeout=60)
        exported = {fields[2] for fields in map(str.split, listing.stdout.splitlines())
                    if len(fields) == 3 and fields[1] == "T"}
        assert exported == symbols.get(source, set()), source.name


def test_failed_build_warns_once_and_every_query_takes_its_python_path(monkeypatch):
    rng = np.random.default_rng(3)
    cfg = suites.bench_config()
    wmap = cfg.map
    obstacles = populate_obstacles(wmap, cfg.obstacle_density, rng, pedestrian_fraction=0.5)
    minx, miny, maxx, maxy = wmap.bounds
    points = list(zip(rng.uniform(minx - 1.0, maxx + 1.0, 150).tolist(),
                      rng.uniform(miny - 1.0, maxy + 1.0, 150).tolist()))
    points += [(ob.x + dx, ob.y + dy) for ob in obstacles[:40]
               for dx, dy in rng.uniform(-0.6, 0.6, (2, 2)).tolist()]
    worlds = [make_world(wmap, x, y, float(rng.uniform(-math.pi, math.pi)), obstacles)
              for x, y in points[::5]]
    grid = free_space_grid(wmap, obstacles, inflate=PLAN_INFLATE)
    free_cells = np.argwhere(grid.free)
    sources = [tuple(int(v) for v in free_cells[rng.integers(len(free_cells))])
               for _ in range(3)]
    goal = grid.center_of(*sources[0])
    field = DistanceField(grid=grid, values=gridnav._dijkstra_heapq(grid, sources[0]),
                          goal=goal)
    starts = [p for p in points if field._lookahead_walk(*p, 1.2) is not None]

    def raycast_reference(w):
        a = w.agent
        if any(ob.contains(a.x, a.y) for ob in w.obstacles):
            return np.zeros(64)
        return sensors._raycast_numpy(w, a.x, a.y, math.cos(a.heading), math.sin(a.heading),
                                      sensors._ray_units(64)[0], 6.0)

    def first_hit(w):
        return next((i for i, ob in enumerate(w.obstacles)
                     if ob.distance_to(w.agent.x, w.agent.y) < AGENT_RADIUS), None)

    expected = {
        "is_walkable": [wmap._is_walkable_python(x, y) for x, y in points],
        "collision_check": [first_hit(w) for w in worlds],
        "raycast": [raycast_reference(w).tolist() for w in worlds],
        "dijkstra_distances": [gridnav._dijkstra_heapq(grid, s).tolist() for s in sources],
        "lookahead_point": [field._lookahead_walk(x, y, 1.2) for x, y in starts],
    }

    def failing_build(source):
        raise OSError("cc failed: error: unknown type name")

    monkeypatch.setattr(_ckernel, "build", failing_build)
    monkeypatch.setattr(_ckernel, "_loaded", _ckernel._UNLOADED)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        answers = {
            "is_walkable": [wmap.is_walkable(x, y) for x, y in points],
            "collision_check": [collision_check(w).obstacle_id for w in worlds],
            "raycast": [sensors.raycast(w, 64, 6.0).tolist() for w in worlds],
            "dijkstra_distances": [dijkstra_distances(grid, s).tolist() for s in sources],
            "lookahead_point": [field.lookahead_point(x, y, 1.2) for x, y in starts],
        }
    messages = [str(w.message) for w in caught]
    assert len(messages) == 1 and "pure-Python paths" in messages[0]
    assert [w.category for w in caught] == [RuntimeWarning]
    assert _ckernel.load() is None
    for query, values in expected.items():
        assert answers[query] == values, query
    walkable, hits = expected["is_walkable"], expected["collision_check"]
    assert any(walkable) and not all(walkable)
    assert any(h is not None for h in hits) and any(h is None for h in hits)
    assert len(starts) >= 50
