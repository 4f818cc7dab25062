import math
from collections import deque

import numpy as np
import pytest

from sidewalksim import _ckernel, gridnav, suites
from sidewalksim.episode import PLAN_INFLATE
from sidewalksim.gridnav import (
    _NEIGHBORS8,
    OccupancyGrid,
    bfs_connected,
    dijkstra_distances,
    eroded,
    free_space_grid,
)
from sidewalksim.walkmap import SidewalkNetwork, build_walkable_map, generate_synthetic_map
from sidewalksim.world import Obstacle, populate_obstacles

from tests.conftest import needs_c_compiler


def make_grid(free) -> OccupancyGrid:
    return OccupancyGrid(free=np.asarray(free, dtype=bool), minx=0.0, miny=0.0)


def random_grid(rng, ny, nx, p_free) -> OccupancyGrid:
    return make_grid(rng.random((ny, nx)) < p_free)


# -- oracles ---------------------------------------------------------------------


def bfs_oracle(grid, start_cell, goal_cell) -> bool:
    """8-connected flood fill; endpoints must be free cells."""
    if not (grid.in_bounds(*start_cell) and grid.in_bounds(*goal_cell)):
        return False
    free = grid.free
    if not (free[start_cell] and free[goal_cell]):
        return False
    if start_cell == goal_cell:
        return True
    seen = np.zeros_like(free)
    seen[start_cell] = True
    queue = deque([start_cell])
    ny, nx = free.shape
    while queue:
        r, c = queue.popleft()
        for dr, dc in _NEIGHBORS8:
            rr, cc = r + dr, c + dc
            if 0 <= rr < ny and 0 <= cc < nx and free[rr, cc] and not seen[rr, cc]:
                if (rr, cc) == goal_cell:
                    return True
                seen[rr, cc] = True
                queue.append((rr, cc))
    return False


# -- compiled Dijkstra vs the heapq reference ------------------------------------


def suite_grids():
    """Raw and eroded grids over every suite map, at three inflations."""
    rng = np.random.default_rng(2024)
    for cfg in suites.training_suite() + suites.validation_suite():
        for _ in range(5):
            obstacles = populate_obstacles(cfg.map, float(rng.uniform(0.0, 8.0)), rng)
            for inflate in (0.0, 0.3, 0.48):
                grid = free_space_grid(cfg.map, obstacles, inflate=inflate)
                yield grid
                yield eroded(grid)


@needs_c_compiler
def test_kernel_fields_equal_heapq_on_suite_grids():
    assert _ckernel.load() is not None, "the C kernels failed to build or load"
    rng = np.random.default_rng(7)
    checked = 0
    for grid in suite_grids():
        free_cells = np.argwhere(grid.free)
        if not len(free_cells):
            continue
        source = tuple(int(v) for v in free_cells[rng.integers(len(free_cells))])
        fast = dijkstra_distances(grid, source)
        assert np.array_equal(fast, gridnav._dijkstra_heapq(grid, source))
        checked += 1
    assert checked >= 500


@needs_c_compiler
@pytest.mark.parametrize("free, source", [
    ([[True, False, True]], (0, 1)),          # blocked source
    ([[True, True], [True, True]], (2, 0)),   # source below the grid
    ([[True, True], [True, True]], (0, -1)),  # source left of the grid
    ([[True]], (0, 0)),                       # 1x1
    ([[False]], (0, 0)),
    ([[True] * 9], (0, 4)),                   # 1xN
    ([[True, True, False, True]], (0, 0)),    # 1xN cut in two
    ([[True]] * 7, (6, 0)),                   # Nx1
    ([[True, True, False, True, True],        # two components
      [True, True, False, True, True],
      [True, True, False, True, True]], (1, 0)),
])
def test_kernel_fields_equal_heapq_on_edge_cases(free, source):
    assert _ckernel.load() is not None
    grid = make_grid(free)
    fast = dijkstra_distances(grid, source)
    reference = gridnav._dijkstra_heapq(grid, source)
    assert fast.shape == grid.shape
    assert np.array_equal(fast, reference)
    if not (grid.in_bounds(*source) and grid.free[source]):
        assert np.isinf(fast).all()


def test_two_components_leave_the_other_unreachable():
    grid = make_grid(np.ones((4, 7), dtype=bool))
    grid.free[:, 3] = False
    dist = dijkstra_distances(grid, (0, 0))
    assert np.isfinite(dist[:, :3]).all()
    assert np.isinf(dist[:, 3:]).all()
    assert dist[0, 1] == 0.25 and dist[1, 1] == np.sqrt(2.0) * 0.25


def test_failed_kernel_build_warns_and_returns_heapq_field(monkeypatch):
    def failing_build(source):
        raise OSError("cc failed: error: unknown type name")

    monkeypatch.setattr(_ckernel, "build", failing_build)
    monkeypatch.setattr(_ckernel, "_loaded", _ckernel._UNLOADED)
    grid = random_grid(np.random.default_rng(3), 30, 40, 0.7)
    source = tuple(int(v) for v in np.argwhere(grid.free)[0])
    with pytest.warns(RuntimeWarning, match="pure-Python paths"):
        dist = dijkstra_distances(grid, source)
    assert _ckernel.load() is None
    assert np.array_equal(dist, gridnav._dijkstra_heapq(grid, source))


# -- connectivity ----------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_bfs_connected_matches_flood_fill_oracle(seed):
    rng = np.random.default_rng(seed)
    grid = random_grid(rng, int(rng.integers(1, 30)), int(rng.integers(1, 30)),
                       float(rng.uniform(0.3, 0.6)))
    ny, nx = grid.shape
    free_cells = [tuple(int(v) for v in cell) for cell in np.argwhere(grid.free)]

    def endpoint():
        # a free cell, or any cell up to two outside the grid (blocked ones included)
        if free_cells and rng.random() < 0.6:
            return free_cells[rng.integers(len(free_cells))]
        return (int(rng.integers(-2, ny + 2)), int(rng.integers(-2, nx + 2)))

    for _ in range(80):
        start = endpoint()
        goal = start if rng.random() < 0.1 else endpoint()
        assert bfs_connected(grid, start, goal) == bfs_oracle(grid, start, goal)


def test_bfs_connected_start_equals_goal():
    grid = make_grid([[True, False], [False, False]])
    assert bfs_connected(grid, (0, 0), (0, 0))
    assert not bfs_connected(grid, (1, 1), (1, 1))
    assert not bfs_connected(grid, (2, 0), (2, 0))


def component_test_maps():
    """Every suite map, and a map of two sidewalks that do not meet."""
    cfgs = suites.training_suite() + suites.validation_suite() + [suites.bench_config()]
    apart = build_walkable_map(SidewalkNetwork([([(0.0, 0.0), (12.0, 0.0)], 3.0),
                                                ([(0.0, 6.0), (9.0, 9.0)], 2.0)]))
    return [cfg.map for cfg in cfgs] + [apart]


def test_map_components_agree_with_bfs_connected_on_every_suite_map():
    rng = np.random.default_rng(17)
    labels_seen = set()
    for wmap in component_test_maps():
        components = gridnav.map_components(wmap)
        assert gridnav.map_components(wmap) is components  # built once per map
        grid = free_space_grid(wmap)
        assert (components.grid.minx, components.grid.miny) == (grid.minx, grid.miny)
        assert np.array_equal(components.grid.free, grid.free)
        assert np.array_equal(components.labels >= 0, grid.free)
        ny, nx = grid.shape
        free_cells = [tuple(int(v) for v in cell) for cell in np.argwhere(grid.free)]

        def endpoint():
            # a free cell, or any cell up to two outside the grid
            if rng.random() < 0.7:
                return free_cells[rng.integers(len(free_cells))]
            return (int(rng.integers(-2, ny + 2)), int(rng.integers(-2, nx + 2)))

        for _ in range(40):
            start, goal = endpoint(), endpoint()
            assert components.connected(start, goal) == bfs_connected(grid, start, goal)
        labels_seen.add(int(components.labels.max()) + 1)
    assert labels_seen == {1, 2}  # the map of two sidewalks has two components


def test_map_components_are_the_same_with_the_dijkstra_kernel_off(monkeypatch):
    loaded = gridnav.map_components(component_test_maps()[-1])
    monkeypatch.setattr(_ckernel, "_loaded", None)
    off = gridnav.map_components(component_test_maps()[-1])
    assert off is not loaded and np.array_equal(off.labels, loaded.labels)


# -- free-space raster -----------------------------------------------------------


def free_space_grid_oracle(wmap, obstacles, inflate) -> np.ndarray:
    """Per-kind stamping: disc of radius + inflate, or cells within `inflate`
    of the rectangle's clamp point, over the same cell window."""
    resolution = gridnav.NAV_RESOLUTION
    minx, miny = wmap.bounds[0], wmap.bounds[1]
    free = wmap.cell_centers_inside().copy()
    ny, nx = free.shape
    xs = minx + (np.arange(nx) + 0.5) * resolution
    ys = miny + (np.arange(ny) + 0.5) * resolution
    for ob in obstacles:
        reach = ob.reach + inflate
        c0 = max(0, int((ob.x - reach - minx) / resolution) - 1)
        c1 = min(nx, int((ob.x + reach - minx) / resolution) + 2)
        r0 = max(0, int((ob.y - reach - miny) / resolution) - 1)
        r1 = min(ny, int((ob.y + reach - miny) / resolution) + 2)
        if c0 >= c1 or r0 >= r1:
            continue
        sub_x = xs[None, c0:c1]
        sub_y = ys[r0:r1, None]
        if ob.kind == "cylinder":
            near = (sub_x - ob.x) ** 2 + (sub_y - ob.y) ** 2 <= reach * reach
        else:
            oc, osn = math.cos(ob.yaw), math.sin(ob.yaw)
            dx = sub_x - ob.x
            dy = sub_y - ob.y
            lx = dx * oc + dy * osn
            ly = -dx * osn + dy * oc
            qx = np.clip(lx, -ob.half_w, ob.half_w)
            qy = np.clip(ly, -ob.half_h, ob.half_h)
            near = (lx - qx) ** 2 + (ly - qy) ** 2 <= inflate * inflate
        free[r0:r1, c0:c1] &= ~near
    return free


def test_free_space_grid_equals_per_kind_stamping_oracle():
    configs = suites.training_suite() + suites.validation_suite() + [suites.bench_config()]
    blocked = 0
    for ci, cfg in enumerate(configs):
        for density in (3.0, 8.0):
            rng = np.random.default_rng(100 * ci + int(density))
            obstacles = populate_obstacles(cfg.map, density, rng, pedestrian_fraction=0.3)
            for inflate in (0.0, 0.3, 0.35, 0.48):
                got = free_space_grid(cfg.map, obstacles, inflate=inflate).free
                want = free_space_grid_oracle(cfg.map, obstacles, inflate)
                assert np.array_equal(got, want), (ci, density, inflate)
                blocked += int((cfg.map.cell_centers_inside() & ~got).sum())
    assert blocked > 10_000  # the obstacles really stamp cells


def random_layout(rng, wmap):
    """Obstacles scattered by populate_obstacles, cuboids at yaw 0, +-pi/2 and
    pi, and discs and boxes on, across and past the map's bounds."""
    obstacles = populate_obstacles(wmap, float(rng.uniform(2.0, 8.0)), rng,
                                   pedestrian_fraction=0.3)
    for yaw in (0.0, math.pi / 2, -math.pi / 2, math.pi):
        for _ in range(3):
            x, y = wmap.sample_walkable_point(rng)
            obstacles.append(Obstacle(kind="cuboid", x=x, y=y, yaw=yaw,
                                      half_w=float(rng.uniform(0.1, 0.9)),
                                      half_h=float(rng.uniform(0.1, 0.9))))
    minx, miny, maxx, maxy = wmap.bounds
    for x, y in ((minx, miny), (maxx, maxy), (minx - 0.4, (miny + maxy) / 2),
                 (maxx + 3.0, maxy + 3.0), (minx - 50.0, miny - 50.0)):
        obstacles.append(Obstacle(kind="cylinder", x=x, y=y, radius=float(rng.uniform(0.1, 0.8))))
        obstacles.append(Obstacle(kind="cuboid", x=x, y=y, half_w=0.6, half_h=0.3,
                                  yaw=float(rng.uniform(-math.pi, math.pi))))
    return obstacles


@needs_c_compiler
def test_free_space_grid_kernel_equals_the_numpy_stamping(monkeypatch):
    assert _ckernel.load() is not None, "the C kernels failed to build or load"
    rng = np.random.default_rng(24)
    configs = suites.training_suite() + suites.validation_suite() + [suites.bench_config()]
    layouts = [(cfg.map, random_layout(rng, cfg.map)) for cfg in configs for _ in range(3)]
    inflates = (0.0, PLAN_INFLATE, 0.1234567)  # the last one off the grid's quarter metres

    def grids():
        return [free_space_grid(wmap, obstacles, inflate=inflate).free
                for wmap, obstacles in layouts for inflate in inflates]

    fast = grids()
    monkeypatch.setattr(_ckernel, "_loaded", None)
    slow = grids()
    assert all(np.array_equal(a, b) for a, b in zip(fast, slow, strict=True))
    stamped = [int((wmap.cell_centers_inside() & ~free).sum())
               for (wmap, _), free in zip(layouts, fast[::len(inflates)])]
    assert min(stamped) > 0


@needs_c_compiler
@pytest.mark.parametrize("field, value, error", [
    ("x", math.nan, ValueError), ("y", math.nan, ValueError),
    ("radius", math.inf, OverflowError), ("x", -math.inf, OverflowError),
])
def test_free_space_grid_kernel_raises_as_the_numpy_stamping(field, value, error,
                                                             monkeypatch):
    assert _ckernel.load() is not None, "the C kernels failed to build or load"
    wmap = generate_synthetic_map("corridor", 20.0, 3.0)
    obstacles = [Obstacle(kind="cylinder", x=10.0, y=1.5, radius=0.5)]
    setattr(obstacles[0], field, value)
    with pytest.raises(error):
        free_space_grid(wmap, obstacles, inflate=0.3)
    monkeypatch.setattr(_ckernel, "_loaded", None)
    with pytest.raises(error):
        free_space_grid(wmap, obstacles, inflate=0.3)


# -- erosion ---------------------------------------------------------------------


def eroded_oracle(grid) -> np.ndarray:
    """Each cell and its 8 neighbours all free, with the cells past the border
    blocked: nine shifted copies of the padded grid."""
    padded = np.pad(grid.free, 1, constant_values=False)
    out = grid.free.copy()
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            out &= padded[1 + dr:padded.shape[0] - 1 + dr,
                          1 + dc:padded.shape[1] - 1 + dc]
    return out


@pytest.mark.parametrize("shape", [(128, 128), (1, 1), (1, 9), (9, 1), (2, 2), (3, 3),
                                   (2, 40), (37, 3), (61, 17)])
def test_eroded_equals_the_nine_shift_oracle(shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    for p_free in (0.5, 0.9, 1.0):
        grid = OccupancyGrid(free=rng.random(shape) < p_free, minx=1.5, miny=-2.0)
        shaved = eroded(grid)
        assert shaved.free.dtype == bool and shaved.free.shape == shape
        assert np.array_equal(shaved.free, eroded_oracle(grid))
        assert (shaved.minx, shaved.miny) == (grid.minx, grid.miny)
    if min(shape) >= 3:
        assert eroded(OccupancyGrid(free=np.ones(shape, dtype=bool), minx=0.0, miny=0.0)).free.any()


# -- free-space raster cache -----------------------------------------------------


def test_free_space_grid_survives_mutation_of_a_returned_grid():
    wmap = generate_synthetic_map("L-shape", 16.0, 3.5, seed=15)
    x, y = wmap.sample_walkable_point(np.random.default_rng(0))
    for obstacles in ((), [Obstacle(kind="cylinder", x=x, y=y, radius=0.5)]):
        expected = free_space_grid(wmap, obstacles, inflate=0.3).free.copy()
        assert expected.any() and not expected.all()
        returned = free_space_grid(wmap, obstacles, inflate=0.3)
        returned.free[:] = ~returned.free
        assert np.array_equal(free_space_grid(wmap, obstacles, inflate=0.3).free, expected)
