import math
import shutil
import subprocess
import sysconfig
import tomllib
import warnings
from pathlib import Path

import numpy as np
import pytest

import sidewalksim
from sidewalksim import _ckernel, gridnav, nets, sensors, suites
from sidewalksim.episode import PLAN_INFLATE
from sidewalksim.gridnav import DistanceField, dijkstra_distances, free_space_grid
from sidewalksim.nets import Adam, StudentNet
from sidewalksim.planner import FRONTAL_HALF_ANGLE, corridor_hit
from sidewalksim.world import AGENT_RADIUS, collision_check, populate_obstacles

from tests.conftest import needs_c_compiler
from tests.test_world import make_world

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(sidewalksim.__file__).resolve().parent


SOURCES = (_ckernel.SOURCE, *_ckernel.INCLUDED)


def test_every_c_source_is_package_data():
    with open(ROOT / "pyproject.toml", "rb") as f:
        data = tomllib.load(f)["tool"]["setuptools"]["package-data"]["sidewalksim"]
    sources = sorted(p.name for p in PACKAGE.glob("*.c"))
    assert sources
    assert sorted(data) == sources


@needs_c_compiler
def test_every_c_source_builds_and_exports_its_kernel():
    # every C file is the module's source or one it includes
    assert sorted(PACKAGE / name for name in SOURCES) == sorted(PACKAGE.glob("*.c"))
    kernels = _ckernel.load()
    assert kernels is not None, "the C kernels failed to build or load"
    assert sorted(name for name in vars(kernels) if not name.startswith("__")) == sorted(
        _ckernel.KERNELS)
    assert all(callable(getattr(kernels, name)) for name in _ckernel.KERNELS)


def test_only_the_loader_opens_shared_objects():
    texts = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert [name for name, text in texts.items() if "ctypes" in text] == []
    assert [name for name, text in texts.items() if "ExtensionFileLoader" in text] == [
        "_ckernel.py"]


@needs_c_compiler
def test_every_c_source_compiles_without_warnings():
    compiler = next(filter(None, map(shutil.which, _ckernel.COMPILERS)))
    include = sysconfig.get_paths()["include"]
    for source in sorted(PACKAGE.glob("*.c")):
        result = subprocess.run(
            [compiler, *_ckernel.FLAGS, "-I", include, "-Wall", "-Wextra", "-Werror",
             "-fsyntax-only", str(source)], capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, f"{source.name}:\n{result.stderr}"


@needs_c_compiler
@pytest.mark.skipif(shutil.which("nm") is None, reason="no nm on PATH to list exports")
def test_every_built_object_exports_only_the_functions_its_kernels_load():
    # the module's init function, and the kernels _kernels.c includes whole
    listing = subprocess.run(
        ["nm", "-D", "--defined-only", _ckernel.build(str(PACKAGE / _ckernel.SOURCE))],
        capture_output=True, text=True, check=True, timeout=60)
    exported = {fields[2] for fields in map(str.split, listing.stdout.splitlines())
                if len(fields) == 3 and fields[1] == "T"}
    assert exported == {"PyInit__kernels", *_ckernel.KERNELS}


@needs_c_compiler
def test_the_kernels_reject_arrays_of_another_layout_or_size():
    kernels = _ckernel.load()
    assert kernels is not None, "the C kernels failed to build or load"
    wmap = suites.bench_config().map
    edges, starts, boxes = wmap.edges, wmap.edge_start, wmap.bboxes
    assert kernels.point_walkable(0.0, 0.0, edges, starts, boxes) in (True, False)
    grid = free_space_grid(wmap)
    source = tuple(int(v) for v in np.argwhere(grid.free)[0])
    values = np.empty(grid.free.shape)
    kernels.grid_dijkstra(grid.free, *source, 1.0, 1.5, values)
    goal = grid.center_of(*source)
    units, out = sensors._ray_units(8), np.empty(8)
    tables = [np.zeros((0, 3)), np.zeros((0, 4)), np.zeros((0, 3))]
    bad_calls = [
        lambda: kernels.point_walkable(0.0, 0.0, np.asfortranarray(edges), starts, boxes),
        lambda: kernels.point_walkable(0.0, 0.0, edges, starts, boxes.astype(np.float32)),
        lambda: kernels.point_walkable(0.0, 0.0, edges, starts[:-1], boxes[:-1]),
        lambda: kernels.point_walkable(0.0, 0.0, edges, starts, boxes, len(boxes)),
        lambda: kernels.first_disc_holding(0.0, 0.0, 0.0, True, np.zeros(4), 0),
        lambda: kernels.raycast_loop(0.0, 0.0, 1.0, 0.0, 6.0, units, *tables, edges, starts,
                                     boxes, out.astype(np.float32)),
        lambda: kernels.raycast_loop(0.0, 0.0, 1.0, 0.0, 6.0, units, *tables, edges, starts,
                                     boxes, np.empty(9)),
        lambda: kernels.grid_dijkstra(grid.free.astype(np.int64), *source, 1.0, 1.5, values),
        lambda: kernels.grid_dijkstra(grid.free, *source, 1.0, 1.5, values.T),
        lambda: kernels.grid_dijkstra(grid.free, -1, 0, 1.0, 1.5, values),
        lambda: kernels.grid_lookahead(*goal, 1.2, values.T, grid.free, grid.minx, grid.miny,
                                       gridnav.NAV_RESOLUTION, *goal),
        lambda: kernels.grid_lookahead(*goal, 1.2, values, grid.free[:, 1:], grid.minx,
                                       grid.miny, gridnav.NAV_RESOLUTION, *goal),
    ]
    net = StudentNet(seed=0)
    w1, (g, m, v) = net.params[0], (np.zeros_like(net.params[0]) for _ in range(3))
    scalars = (0.9, 0.1, 0.999, 0.001, 1e-3, 0.1, 0.001, 1e-8)
    assert kernels.adam_step(w1, g, m, v, *scalars) is True
    read_only = m.copy()
    read_only.flags.writeable = False
    bad_calls += [
        lambda: kernels.adam_step(*(a.astype(np.float64) for a in (w1, g, m, v)), *scalars),
        lambda: kernels.adam_step(np.asfortranarray(w1), g, m, v, *scalars),
        lambda: kernels.adam_step(w1, g[:, ::2], m, v, *scalars),
        lambda: kernels.adam_step(w1, g, read_only, v, *scalars),
        lambda: kernels.adam_step(w1, g, m, v[:-1], *scalars),
        lambda: kernels.adam_step(w1[:, :-1].copy(), g, m, v, *scalars),
    ]
    for call in bad_calls:
        with pytest.raises(ValueError):
            call()


@needs_c_compiler
def test_the_kernels_reject_arrays_of_another_format():
    kernels = _ckernel.load()
    assert kernels is not None, "the C kernels failed to build or load"
    wmap = suites.bench_config().map
    edges, starts, boxes = wmap.edges, wmap.edge_start, wmap.bboxes
    grid = free_space_grid(wmap)
    source = tuple(int(v) for v in np.argwhere(grid.free)[0])
    values = np.empty(grid.free.shape)
    goal = grid.center_of(*source)
    units, out, lidar = sensors._ray_units(8), np.empty(8), np.full(8, 9.0)
    tables = [np.zeros((0, 3)), np.zeros((0, 4)), np.zeros((0, 3))]
    bounds, rows = np.zeros((1, 3)), np.zeros((1, 9))
    net = StudentNet(seed=0)
    w1, (g, m, v) = net.params[0], (np.zeros_like(net.params[0]) for _ in range(3))
    scalars = (0.9, 0.1, 0.999, 0.001, 1e-3, 0.1, 0.001, 1e-8)

    def as_int64(a):
        return a.view(np.int64)

    # numpy exports int64 as "l" here, and long long as "q": both are int64
    assert kernels.point_walkable(0.0, 0.0, edges, starts.astype(np.longlong), boxes) in (
        True, False)
    bad_calls = {
        "point_walkable": [
            lambda: kernels.point_walkable(0.0, 0.0, as_int64(edges), starts, boxes),
            lambda: kernels.point_walkable(0.0, 0.0, edges, starts.view(np.float64), boxes),
            lambda: kernels.point_walkable(0.0, 0.0, edges, starts, boxes.astype(">f8")),
        ],
        "raycast_loop": [
            lambda: kernels.raycast_loop(0.0, 0.0, 1.0, 0.0, 6.0, as_int64(units), *tables,
                                         edges, starts, boxes, out),
            lambda: kernels.raycast_loop(0.0, 0.0, 1.0, 0.0, 6.0, units, *tables, edges,
                                         starts, boxes, as_int64(out)),
        ],
        "first_disc_holding": [
            lambda: kernels.first_disc_holding(0.0, 0.0, 0.0, True, as_int64(bounds), 0),
        ],
        "grid_dijkstra": [
            lambda: kernels.grid_dijkstra(grid.free.view(np.uint8), *source, 1.0, 1.5, values),
            lambda: kernels.grid_dijkstra(grid.free, *source, 1.0, 1.5, as_int64(values)),
        ],
        "grid_lookahead": [
            lambda: kernels.grid_lookahead(*goal, 1.2, as_int64(values), grid.free, grid.minx,
                                           grid.miny, gridnav.NAV_RESOLUTION, *goal),
            lambda: kernels.grid_lookahead(*goal, 1.2, values, grid.free.view(np.int8),
                                           grid.minx, grid.miny, gridnav.NAV_RESOLUTION, *goal),
        ],
        "corridor_hit": [
            lambda: kernels.corridor_hit(as_int64(lidar), 0.0, 0.4, 0.35),
        ],
        "stamp_obstacles": [
            lambda: kernels.stamp_obstacles(grid.free.copy().view(np.uint8), rows, grid.minx,
                                            grid.miny, gridnav.NAV_RESOLUTION, 0.0),
            lambda: kernels.stamp_obstacles(grid.free.copy(), as_int64(rows), grid.minx,
                                            grid.miny, gridnav.NAV_RESOLUTION, 0.0),
        ],
        "adam_step": [
            lambda: kernels.adam_step(w1, g.astype(np.int32), m, v, *scalars),
            lambda: kernels.adam_step(w1, g, m.view(np.int32), v, *scalars),
        ],
    }
    assert sorted(bad_calls) == sorted(_ckernel.KERNELS)
    for name, calls in bad_calls.items():
        for call in calls:
            with pytest.raises(ValueError, match=f"{name}: array argument"):
                call()


@needs_c_compiler
def test_the_object_path_changes_with_each_source_and_the_extension_suffix(tmp_path,
                                                                            monkeypatch):
    for name in SOURCES:
        shutil.copy(PACKAGE / name, tmp_path / name)
    source = str(tmp_path / _ckernel.SOURCE)
    path = _ckernel.build(source)
    paths = {path}
    for name in SOURCES:
        text = (tmp_path / name).read_text()
        (tmp_path / name).write_text(text + "/* edited */\n")
        paths.add(_ckernel.build(source))
        (tmp_path / name).write_text(text)
    assert len(paths) == 1 + len(SOURCES)
    assert _ckernel.build(source) == path  # the restored sources reuse their object
    config_var = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var", lambda name: ".cpython-0-test.so"
                        if name == "EXT_SUFFIX" else config_var(name))
    other = _ckernel.build(source)
    assert other not in paths and other.endswith(".cpython-0-test.so")


def eight_queries():
    """The eight kernel queries, seven on bench_config and one Adam step of
    the student, as a function of no arguments, and the answers of their
    pure-Python references."""
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
                                      sensors._ray_units(64), 6.0)

    def first_hit(w):
        return next((i for i, ob in enumerate(w.obstacles)
                     if ob.distance_to(w.agent.x, w.agent.y) < AGENT_RADIUS), None)

    rows = rng.uniform(-1.0, 1.0, (16, nets.ARCH[0])).astype(np.float32)
    targets = rng.uniform(-0.9, 0.9, (16, nets.ARCH[-1])).astype(np.float32)

    def adam_step():
        net = StudentNet(seed=5)
        adam = Adam(net)
        adam.step(net, net.loss_and_grads(rows, targets)[1])
        return [a.tobytes() for a in (*net.params, *adam.m, *adam.v)]

    corridors = [(raycast_reference(w), bearing, half_angle) for w in worlds
                 for bearing, half_angle in ((0.0, FRONTAL_HALF_ANGLE),
                                             (math.pi, FRONTAL_HALF_ANGLE),
                                             (float(rng.uniform(-4.0, 4.0)), math.pi / 2))]

    def corridor_hits():
        return [corridor_hit(*query) for query in corridors]

    def stamped(inflate):
        free = wmap.cell_centers_inside().copy()
        gridnav._stamp_obstacles_numpy(free, minx, miny, obstacles, inflate)
        return free.tolist()

    loaded = _ckernel._loaded
    _ckernel._loaded = None  # Adam.step's numpy loop and corridor_hit's Python loop
    try:
        adam_reference, corridor_reference = adam_step(), corridor_hits()
    finally:
        _ckernel._loaded = loaded
    # through the kernels when the kernels load
    assert adam_step() == adam_reference
    assert corridor_hits() == corridor_reference

    references = {
        "is_walkable": [wmap._is_walkable_python(x, y) for x, y in points],
        "collision_check": [first_hit(w) for w in worlds],
        "raycast": [raycast_reference(w).tolist() for w in worlds],
        "dijkstra_distances": [gridnav._dijkstra_heapq(grid, s).tolist() for s in sources],
        "lookahead_point": [field._lookahead_walk(x, y, 1.2) for x, y in starts],
        "corridor_hit": corridor_reference,
        "free_space_grid": [stamped(inflate) for inflate in (0.0, PLAN_INFLATE)],
        "adam_step": adam_reference,
    }

    walkable, hits = references["is_walkable"], references["collision_check"]
    assert any(walkable) and not all(walkable)
    assert any(h is not None for h in hits) and any(h is None for h in hits)
    assert len(starts) >= 50
    depths = [depth for depth, _ in corridor_reference]
    assert min(depths) < 1.0 and max(depths) == 6.0  # near hits, and corridors clear to range

    def ask():
        return {
            "is_walkable": [wmap.is_walkable(x, y) for x, y in points],
            "collision_check": [collision_check(w).obstacle_id for w in worlds],
            "raycast": [sensors.raycast(w, 64, 6.0).tolist() for w in worlds],
            "dijkstra_distances": [dijkstra_distances(grid, s).tolist() for s in sources],
            "lookahead_point": [field.lookahead_point(x, y, 1.2) for x, y in starts],
            "corridor_hit": corridor_hits(),
            "free_space_grid": [free_space_grid(wmap, obstacles, inflate=inflate).free.tolist()
                                for inflate in (0.0, PLAN_INFLATE)],
            "adam_step": adam_step(),
        }

    return ask, references


def assert_one_warning_and_python_answers(ask, references):
    """Ask the eight queries with the kernels unloaded: one warning, load()
    None, and every answer its reference's."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        answers = ask()
    messages = [str(w.message) for w in caught]
    assert len(messages) == 1 and "pure-Python paths" in messages[0]
    assert [w.category for w in caught] == [RuntimeWarning]
    assert _ckernel.load() is None
    for query, values in references.items():
        assert answers[query] == values, query


def test_failed_build_warns_once_and_every_query_takes_its_python_path(monkeypatch):
    ask, references = eight_queries()

    def failing_build(source):
        raise OSError("cc failed: error: unknown type name")

    monkeypatch.setattr(_ckernel, "build", failing_build)
    monkeypatch.setattr(_ckernel, "_loaded", _ckernel._UNLOADED)
    assert_one_warning_and_python_answers(ask, references)


@needs_c_compiler
def test_missing_python_headers_warn_once_and_every_query_takes_its_python_path(
        tmp_path, monkeypatch):
    ask, references = eight_queries()
    paths = sysconfig.get_paths
    monkeypatch.setattr(sysconfig, "get_paths",
                        lambda *args, **kwargs: {**paths(*args, **kwargs), "include": str(tmp_path)})
    with pytest.raises(OSError, match="failed"):
        _ckernel.build(str(PACKAGE / _ckernel.SOURCE))
    monkeypatch.setattr(_ckernel, "_loaded", _ckernel._UNLOADED)
    assert_one_warning_and_python_answers(ask, references)
