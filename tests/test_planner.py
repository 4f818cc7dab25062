import itertools
import math
import pickle
import sys
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from sidewalksim import _ckernel, gridnav, planner, suites
from sidewalksim import episode as episode_module
from sidewalksim.episode import (
    PLAN_INFLATE,
    Episode,
    EpisodeContext,
    episode_seed,
    plan_route,
    run_episode,
)
from sidewalksim.errors import NoPathError
from sidewalksim.gridnav import (
    bfs_connected,
    eroded,
    free_space_grid,
    line_of_sight,
)
from sidewalksim.planner import (
    CORRIDOR_HALF_WIDTH,
    FRONTAL_HALF_ANGLE,
    ConstantPolicy,
    OracleTeacher,
    _field_on_grid,
    _teacher_step,
    build_distance_field,
    corridor_hit,
)
from sidewalksim.sensors import Observation, PrivilegedObs, raycast
from sidewalksim.walkmap import generate_synthetic_map
from sidewalksim.world import (
    SPEED_MAX,
    SPEED_MIN,
    YAW_LIMIT,
    Obstacle,
    populate_obstacles,
)

from tests.conftest import ScriptedPolicy, make_config, needs_c_compiler
from tests.test_world import make_world


def teacher_act(field, obs, pose, wmap):
    """Single stateless steering step (no reflex hysteresis) on the map, from
    `pose` in place of the observation's own."""
    obs = replace(obs, privileged=replace(obs.privileged, pose=pose))
    return _teacher_step(field, obs, engaged=False, wmap=wmap)[0]


def distance_at(field, x, y):
    return field.value_at_cell(*field.grid.cell_of(x, y))


def field_for(wmap, obstacles, goal, start):
    """The teacher's field for a layout and a start, built on the episode's
    plan of it."""
    return build_distance_field(plan_route(wmap, obstacles, goal), start=start)


def privileged_obs(world, goal):
    from sidewalksim.sensors import compute_gdd

    lidar = raycast(world, 64, 9.0)
    a = world.agent
    return Observation(privileged=PrivilegedObs(
        bev=None, lidar=lidar, goal=compute_gdd(a, goal),
        pose=(a.x, a.y, a.heading)))


# -- occupancy grids -------------------------------------------------------------


def test_free_space_grid_blocks_obstacles(corridor):
    ob = Obstacle(kind="cylinder", x=10.0, y=1.5, radius=0.5)
    grid = free_space_grid(corridor, [ob], inflate=0.35)
    cell = grid.cell_of(10.0, 1.5)
    assert not grid.free[cell]
    assert grid.free[grid.cell_of(2.0, 1.5)]


def test_eroded_strips_boundary_cells(corridor):
    grid = free_space_grid(corridor, ())
    shaved = eroded(grid)
    assert shaved.free.sum() < grid.free.sum()
    assert shaved.free[shaved.cell_of(10.0, 1.5)]


def test_line_of_sight(corridor):
    ob = Obstacle(kind="cuboid", x=10.0, y=1.5, half_w=0.4, half_h=1.0)
    grid = free_space_grid(corridor, [ob], inflate=0.35)
    assert line_of_sight(grid, 2.0, 1.5, 6.0, 1.5)
    assert not line_of_sight(grid, 2.0, 1.5, 18.0, 1.5)


def test_bfs_connected_basic(corridor):
    grid = free_space_grid(corridor, ())
    assert bfs_connected(grid, grid.cell_of(1.0, 1.5), grid.cell_of(19.0, 1.5))
    wall = Obstacle(kind="cuboid", x=10.0, y=1.5, half_w=0.3, half_h=1.6)
    blocked = free_space_grid(corridor, [wall], inflate=0.35)
    assert not bfs_connected(blocked, blocked.cell_of(1.0, 1.5),
                             blocked.cell_of(19.0, 1.5))


# -- distance field ---------------------------------------------------------------


def test_field_goal_cell_is_zero(corridor):
    field = field_for(corridor, (), (15.0, 1.5), start=(2.0, 1.5))
    assert distance_at(field, 15.0, 1.5) == pytest.approx(0.0, abs=0.3)
    cell = field.grid.cell_of(15.0, 1.5)
    assert field.values[cell] == 0.0


def test_field_monotone_along_corridor(corridor):
    goal = (18.0, 1.5)
    field = field_for(corridor, (), goal, start=(1.0, 1.5))
    xs = np.linspace(1.0, 17.0, 30)
    vals = [distance_at(field, x, 1.5) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # within the diagonal-metric factor of Euclidean distance
    for x, v in zip(xs, vals):
        euclid = abs(goal[0] - x)
        assert euclid - 0.5 <= v <= euclid * math.sqrt(2.0) + 0.5


def test_field_neighbor_differences_bounded(corridor):
    field = field_for(corridor, (), (18.0, 1.5), start=(2.0, 1.5))
    vals = field.values
    step = math.sqrt(2.0) * gridnav.NAV_RESOLUTION + 1e-12
    finite = np.isfinite(vals)
    for dr, dc in ((0, 1), (1, 0), (1, 1)):
        a = vals[:vals.shape[0] - dr, :vals.shape[1] - dc]
        b = vals[dr:, dc:]
        both = finite[:vals.shape[0] - dr, :vals.shape[1] - dc] & finite[dr:, dc:]
        if both.any():
            assert np.abs(a[both] - b[both]).max() <= step


def test_field_unreachable_is_inf(corridor):
    wall = Obstacle(kind="cuboid", x=10.0, y=1.5, half_w=0.3, half_h=1.6)
    field = field_for(corridor, [wall], (18.0, 1.5), start=(1.0, 1.5))
    assert math.isinf(distance_at(field, 1.0, 1.5))


def test_field_goal_not_walkable_raises(corridor):
    # just off the corridor, yet within snapping reach of its free cells: only
    # the teacher's walkability check turns this goal away
    goal = (10.0, 3.2)
    plan = plan_route(corridor, (), goal)
    assert not corridor.is_walkable(*goal) and _field_on_grid(plan.grid, goal) is not None
    with pytest.raises(NoPathError):
        OracleTeacher().reset(EpisodeContext(corridor, (2.0, 1.5, 0.0), goal, plan))


# -- compiled lookahead walk vs the Python reference ------------------------------


def suite_fields():
    """Plain and eroded teacher fields over every suite map at density 5."""
    rng = np.random.default_rng(11)
    configs = suites.training_suite(5.0) + suites.validation_suite(5.0) + [suites.bench_config(5.0)]
    for cfg in configs:
        for _ in range(2):
            obstacles = populate_obstacles(cfg.map, cfg.obstacle_density, rng)
            goal = cfg.map.sample_walkable_point(rng)
            grid = free_space_grid(cfg.map, obstacles, inflate=PLAN_INFLATE)
            for g in (grid, eroded(grid)):
                field = _field_on_grid(g, goal)
                if field is not None:
                    yield field


def points_in_cells(rng, grid, cells, k):
    """k uniform points, each inside a randomly drawn cell of `cells`."""
    if not len(cells):
        return []
    rows, cols = cells[rng.integers(len(cells), size=k)].T
    xs = grid.minx + (cols + rng.random(k)) * gridnav.NAV_RESOLUTION
    ys = grid.miny + (rows + rng.random(k)) * gridnav.NAV_RESOLUTION
    return list(zip(xs.tolist(), ys.tolist()))


def lookahead_points(rng, field):
    """Points on the goal cell, on any finite cell, next to blocked cells, on
    cells whose lowest neighbours tie, and anywhere in or just outside the grid."""
    grid, vals = field.grid, field.values
    ny, nx = vals.shape
    padded = np.pad(vals, 1, constant_values=np.inf)
    neighbours = np.stack([padded[1 + dr:1 + dr + ny, 1 + dc:1 + dc + nx]
                           for dr, dc in gridnav._NEIGHBORS8])
    lowest = neighbours.min(axis=0)
    finite = np.isfinite(vals)
    near_blocked = finite & ~np.isfinite(neighbours).all(axis=0)
    tied = finite & (lowest < vals) & ((neighbours == lowest).sum(axis=0) >= 2)
    xs = rng.uniform(grid.minx - 1.0, grid.minx + nx * gridnav.NAV_RESOLUTION + 1.0, 40)
    ys = rng.uniform(grid.miny - 1.0, grid.miny + ny * gridnav.NAV_RESOLUTION + 1.0, 40)
    return {
        "goal cell": points_in_cells(rng, grid, np.argwhere(vals == 0.0), 6),
        "first step": points_in_cells(rng, grid, np.argwhere(finite), 40),
        "next to blocked": points_in_cells(rng, grid, np.argwhere(near_blocked), 30),
        "tie": points_in_cells(rng, grid, np.argwhere(tied), 20),
        "anywhere": list(zip(xs.tolist(), ys.tolist())),
    }


def lookahead_outcome(field, x, y, lookahead):
    try:
        return field.lookahead_point(x, y, lookahead)
    except NoPathError:
        return "NoPathError"


@needs_c_compiler
def test_kernel_lookahead_equals_python_walk_on_suite_fields(monkeypatch):
    assert _ckernel.load() is not None, "the C kernels failed to build or load"
    rng = np.random.default_rng(3)
    sight_failures = []

    def recording_line_of_sight(*args):
        seen = line_of_sight(*args)  # the imported original, not the patched gridnav name
        sight_failures.append(not seen)
        return seen

    counts = dict.fromkeys(("goal cell", "first step", "next to blocked", "tie", "anywhere",
                            "out of sight", "nudged"), 0)
    for field in suite_fields():
        for kind, points in lookahead_points(rng, field).items():
            for x, y in points:
                lookahead = float(rng.choice([0.3, 0.75, 1.2, rng.uniform(0.0, 3.0)]))
                if kind == "first step":
                    # stop exactly after the first step, as the walk measures
                    # it: a length off by one ulp takes the walk a step further
                    cx, cy = field._lookahead_walk(x, y, 1e-9)
                    dx, dy = cx - x, cy - y
                    lookahead = math.sqrt(dx * dx + dy * dy)
                fast = lookahead_outcome(field, x, y, lookahead)
                sight_failures.clear()
                with monkeypatch.context() as m:
                    m.setattr(_ckernel, "_loaded", None)
                    m.setattr(gridnav, "line_of_sight", recording_line_of_sight)
                    reference = lookahead_outcome(field, x, y, lookahead)
                assert fast == reference, (kind, x, y, lookahead)
                assert reference == "NoPathError" or all(type(v) is float for v in fast)
                counts[kind] += 1
                counts["out of sight"] += any(sight_failures)
                counts["nudged"] += field._lookahead_walk(x, y, lookahead) is None
    assert sum(counts[k] for k in ("goal cell", "first step", "next to blocked", "tie",
                                   "anywhere")) >= 2000
    assert min(counts.values()) >= 50, counts


def test_failed_kernel_build_warns_once_and_walks_in_python(monkeypatch):
    fields = list(itertools.islice(suite_fields(), 6))
    rng = np.random.default_rng(8)
    queries = [(field, x, y, 1.2) for field in fields
               for points in lookahead_points(rng, field).values() for x, y in points]
    expected = [lookahead_outcome(*q) for q in queries]

    def failing_build(source):
        raise OSError("cc failed: error: unknown type name")

    monkeypatch.setattr(_ckernel, "build", failing_build)
    monkeypatch.setattr(_ckernel, "_loaded", _ckernel._UNLOADED)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        answers = [lookahead_outcome(*q) for q in queries]
    messages = [str(w.message) for w in caught]
    assert len(messages) == 1 and "pure-Python paths" in messages[0]
    assert _ckernel.load() is None
    assert answers == expected


def test_field_pickled_after_lookahead_answers_identically():
    field = next(suite_fields())
    rng = np.random.default_rng(5)
    points = [p for pts in lookahead_points(rng, field).values() for p in pts]
    answers = [lookahead_outcome(field, x, y, 1.2) for x, y in points]
    clone = pickle.loads(pickle.dumps(field))
    assert [lookahead_outcome(clone, x, y, 1.2) for x, y in points] == answers


# -- lidar corridor query ----------------------------------------------------------
#
# The teacher once ran three numpy queries with their own ray tables; they stay
# here as the reference for corridor_hit. frontal_oracle and rear_oracle rotate
# the rays as those did; homing_oracle keeps the rays with cos > 0 and does not
# wrap the ray angle, so it may differ from corridor_hit in the last bits and
# on rays lying exactly at +-90 degrees.


def frontal_oracle(lidar, half_angle=FRONTAL_HALF_ANGLE):
    n = len(lidar)
    ang = 2.0 * math.pi * np.arange(n) / n
    ang = np.where(ang > math.pi, ang - 2.0 * math.pi, ang)
    idx = np.nonzero(np.abs(ang) <= half_angle)[0]
    return _nearest_in_band(lidar[idx], ang[idx])


def rear_oracle(lidar, half_angle=FRONTAL_HALF_ANGLE):
    n = len(lidar)
    ang = 2.0 * math.pi * np.arange(n) / n
    rel = np.abs(((ang - math.pi) + math.pi) % (2.0 * math.pi) - math.pi)
    idx = np.nonzero(rel <= half_angle)[0]
    return _nearest_in_band(lidar[idx], ang[idx] - math.pi)


def _nearest_in_band(r, ang):
    fwd = r * np.cos(ang)
    lat = r * np.sin(ang)
    in_band = np.abs(lat) < CORRIDOR_HALF_WIDTH
    if not in_band.any():
        return math.inf, 0.0
    i = int(np.argmin(np.where(in_band, fwd, np.inf)))
    return float(fwd[i]), float(lat[i])


def homing_oracle(lidar, rel_bearing):
    n = len(lidar)
    ang = 2.0 * math.pi * np.arange(n) / n - rel_bearing
    ahead = np.cos(ang)
    fwd = lidar * ahead
    lat = lidar * np.sin(ang)
    in_band = (ahead > 0.0) & (np.abs(lat) < CORRIDOR_HALF_WIDTH)
    if not in_band.any():
        return math.inf
    return float(fwd[in_band].min())


def random_lidar(rng, n):
    """Ranges with ties (rounded, mirrored), runs at max range and blocked poses."""
    kind = rng.integers(6)
    if kind == 0:
        return np.zeros(n)  # origin inside an obstacle: every ray reads 0
    lidar = rng.uniform(0.0, 9.0, n) * rng.uniform(0.05, 1.0)
    if kind in (1, 2):
        lidar = np.round(lidar, int(rng.integers(0, 2)))
    if kind == 2:
        lidar[n - np.arange(1, n // 2)] = lidar[1:n // 2]  # ray j mirrors ray n - j
    for _ in range(int(rng.integers(0, 4))):
        start = int(rng.integers(n))
        lidar[np.arange(start, start + int(rng.integers(1, n // 3))) % n] = 9.0
    return lidar


def test_corridor_hit_equals_the_numpy_oracles(monkeypatch):
    # the kernel when the kernels load, then the Python loop
    assert_corridor_hit_equals_the_numpy_oracles()
    monkeypatch.setattr(_ckernel, "_loaded", None)
    assert_corridor_hit_equals_the_numpy_oracles()


def assert_corridor_hit_equals_the_numpy_oracles():
    rng = np.random.default_rng(20)
    counts = dict(frontal=0, rear=0, homing=0)
    for trial in range(12_000):
        n = 64 if trial < 10_000 else int(rng.choice([7, 33, 272]))
        lidar = random_lidar(rng, n)
        got = corridor_hit(lidar, 0.0, FRONTAL_HALF_ANGLE)
        assert got == frontal_oracle(lidar), (trial, lidar.tolist())
        counts["frontal"] += math.isfinite(got[0])
        got = corridor_hit(lidar, math.pi, FRONTAL_HALF_ANGLE)
        assert got == rear_oracle(lidar), (trial, lidar.tolist())
        counts["rear"] += math.isfinite(got[0])
        for bearing in (0.0, math.pi / 2, -math.pi / 2, math.pi, rng.uniform(-math.pi, math.pi)):
            a = 2.0 * math.pi * np.arange(n) / n - bearing
            # a ray exactly abeam of the bearing is kept by one rule and not
            # the other; put it out of the band for both
            abeam = np.abs(np.abs((a + math.pi) % (2.0 * math.pi) - math.pi) - math.pi / 2) < 1e-9
            probe = np.where(abeam, 9.0, lidar)
            want = homing_oracle(probe, bearing)
            depth = corridor_hit(probe, bearing, math.pi / 2)[0]
            assert depth == want or abs(depth - want) <= 1e-12, (trial, bearing, probe.tolist())
            counts["homing"] += math.isfinite(want)
    # the cases exercise hits as well as clear corridors
    assert min(counts.values()) > 1000, counts


def python_corridor_hit(lidar, bearing, half_angle):
    """corridor_hit on its Python path, or the name of the exception it raises."""
    loaded = _ckernel._loaded
    _ckernel._loaded = None
    try:
        return corridor_hit(lidar, bearing, half_angle)
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__
    finally:
        _ckernel._loaded = loaded


@needs_c_compiler
def test_corridor_hit_kernel_equals_the_python_loop_bit_for_bit():
    assert _ckernel.load() is not None, "the C kernels failed to build or load"
    rng = np.random.default_rng(24)
    for trial in range(20_000):
        n = int(rng.choice([64, 272, 7, 33]))
        lidar = random_lidar(rng, n)
        bearing = float(rng.choice([0.0, math.pi, -math.pi / 2, rng.uniform(-math.pi, math.pi),
                                    rng.uniform(-40.0, 40.0), 2.0 * math.pi * rng.integers(n) / n]))
        half_angle = float(rng.choice([FRONTAL_HALF_ANGLE, math.pi / 2, rng.uniform(0.0, 4.0)]))
        got = corridor_hit(lidar, bearing, half_angle)
        want = python_corridor_hit(lidar, bearing, half_angle)
        assert [v.hex() for v in got] == [v.hex() for v in want], (trial, bearing, half_angle)
    lidar = random_lidar(rng, 64)
    for bearing, half_angle in ((math.nan, 0.4), (0.0, math.nan), (math.inf, 0.4),
                                (0.0, -math.inf), (1e300, 1e300), (1e20, 0.4)):
        want = python_corridor_hit(lidar, bearing, half_angle)
        if isinstance(want, str):
            with pytest.raises((ValueError, OverflowError)) as caught:
                corridor_hit(lidar, bearing, half_angle)
            assert caught.type.__name__ == want
        else:
            assert corridor_hit(lidar, bearing, half_angle) == want
    assert corridor_hit(np.zeros(0), 0.3, 0.4) == python_corridor_hit(np.zeros(0), 0.3, 0.4)


def test_corridor_hit_ties_and_edges(monkeypatch):
    assert_corridor_hit_ties_and_edges()  # the kernel when the kernels load
    monkeypatch.setattr(_ckernel, "_loaded", None)
    assert_corridor_hit_ties_and_edges()


def assert_corridor_hit_ties_and_edges():
    lidar = np.full(64, 9.0)
    lidar[[1, 63, 31, 33]] = 0.5  # mirror pairs across the heading and the tail
    front = corridor_hit(lidar, 0.0, FRONTAL_HALF_ANGLE)
    assert front == frontal_oracle(lidar) and front[1] > 0.0  # the lower index, ray 1
    rear = corridor_hit(lidar, math.pi, FRONTAL_HALF_ANGLE)
    assert rear == rear_oracle(lidar) and rear[1] < 0.0  # ray 31
    # rays 1 and 7 of 8 lie exactly on the edges of a 45-degree half-angle
    half = 2.0 * math.pi / 8
    for nearest, side in ((1, 1.0), (7, -1.0)):
        lidar = np.full(8, 9.0)
        lidar[[1, 7]] = 0.45
        lidar[nearest] = 0.4
        hit = corridor_hit(lidar, 0.0, half)
        assert hit == frontal_oracle(lidar, half) and hit[1] * side > 0.0
    # a hit exactly on the edge of the band passes by: ray 0 at 9 m stays nearest
    lidar = np.full(64, 9.0)
    lidar[16] = CORRIDOR_HALF_WIDTH  # abeam, so the lateral offset equals the range
    assert corridor_hit(lidar, 0.0, math.pi / 2) == (9.0, 0.0)


# -- teacher steering --------------------------------------------------------------


def test_teacher_aligned_full_speed(corridor):
    goal = (18.0, 1.5)
    field = field_for(corridor, (), goal, start=(4.0, 1.5))
    w = make_world(corridor, 4.0, 1.5, 0.0)
    action = teacher_act(field, privileged_obs(w, goal), (4.0, 1.5, 0.0), corridor)
    assert action.speed == pytest.approx(SPEED_MAX, abs=0.01)
    # grid cell centers put the steering target up to ~5 degrees off-axis
    assert action.yaw_delta == pytest.approx(0.0, abs=0.12)


def test_teacher_goal_behind(corridor):
    goal = (2.0, 1.5)
    field = field_for(corridor, (), goal, start=(15.0, 1.5))
    w = make_world(corridor, 15.0, 1.5, 0.0)  # facing away from the goal
    action = teacher_act(field, privileged_obs(w, goal), (15.0, 1.5, 0.0), corridor)
    assert abs(action.yaw_delta) == YAW_LIMIT
    assert action.speed <= 0.0


def test_teacher_reverses_on_blocked_front(big_plane):
    goal = (30.0, 0.0)
    ob = Obstacle(kind="cylinder", x=1.0, y=0.0, radius=0.5)  # frontal ray 0.5 m
    field = field_for(big_plane, [ob], goal, start=(0.0, 0.0))
    w = make_world(big_plane, 0.0, 0.0, 0.0, obstacles=[ob])
    obs = privileged_obs(w, goal)
    assert corridor_hit(obs.privileged.lidar, 0.0, FRONTAL_HALF_ANGLE)[0] == pytest.approx(
        0.5, abs=1e-9)
    action = teacher_act(field, obs, (0.0, 0.0, 0.0), big_plane)
    assert action.speed == SPEED_MIN


def test_teacher_actions_always_in_bounds(corridor_long):
    teacher = OracleTeacher()
    for seed in range(5):
        ep = Episode(make_config(corridor_long, seed=seed, obstacle_density=5.0))
        obs = ep.reset()
        teacher.reset(ep.context())
        for _ in range(60):
            a = teacher.act(obs)
            assert SPEED_MIN <= a.speed <= SPEED_MAX
            assert -YAW_LIMIT <= a.yaw_delta <= YAW_LIMIT
            out = ep.step(a)
            obs = out.observation
            if out.terminal:
                break


def test_teacher_succeeds_on_empty_map_and_distance_decreases(corridor_long):
    for seed in range(6):
        ep = Episode(make_config(corridor_long, seed=seed, obstacle_density=0.0))
        obs = ep.reset()
        teacher = OracleTeacher()
        teacher.reset(ep.context())
        dists = []
        terminal = None
        for _ in range(150):
            out = ep.step(teacher.act(obs))
            obs = out.observation
            dists.append(math.hypot(ep.goal[0] - ep.world.agent.x,
                                    ep.goal[1] - ep.world.agent.y))
            if out.terminal:
                terminal = out.terminal
                break
        assert terminal == "success"
        tail = dists[10:]
        assert all(a >= b - 1e-9 for a, b in zip(tail, tail[1:]))


def test_policy_interface_swappable(corridor_long):
    # a scripted policy runs through the exact same harness as the oracle
    for policy in (ConstantPolicy(0.1, 0.0),
                   ScriptedPolicy([(0.2, 0.0), (0.1, 0.2)]),
                   OracleTeacher()):
        ep = Episode(make_config(corridor_long, seed=2, obstacle_density=2.0))
        result = run_episode(ep, policy)
        assert result.outcome in ("success", "collision", "sidewalk_violation", "timeout")


def test_no_path_error_when_agent_sealed():
    # walkable plane but the goal region is walled off by obstacles
    m = generate_synthetic_map("corridor", 20.0, 3.0)
    wall = Obstacle(kind="cuboid", x=10.0, y=1.5, half_w=0.4, half_h=1.6)
    field = field_for(m, [wall], (18.0, 1.5), start=(2.0, 1.5))
    w = make_world(m, 2.0, 1.5, 0.0, obstacles=[wall])
    with pytest.raises(NoPathError):
        teacher_act(field, privileged_obs(w, (18.0, 1.5)), (2.0, 1.5, 0.0), m)


# -- one plan per layout -------------------------------------------------------------


@pytest.mark.parametrize("index", [58, 131, 170, 178, 250, 275])
def test_teacher_moves_on_layouts_its_grid_once_closed(index):
    # with the layout checked on a thinner inflation than the teacher's grid,
    # each of these episodes ended in a NoPathError before the first step
    cfgs = suites.validation_suite(5.0, obs_mode="privileged", render_bev=False)
    episode = Episode(replace(cfgs[index % len(cfgs)], seed=episode_seed(101, index)))
    assert run_episode(episode, OracleTeacher()).steps > 0


def count_calls(monkeypatch, calls, owner, name):
    """Count calls to owner.<name> under every sidewalksim module name bound to it."""
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("sidewalksim") and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, counting)


def test_a_teacher_episode_builds_one_grid_and_one_field_per_layout_attempt(monkeypatch):
    calls = Counter()
    count_calls(monkeypatch, calls, gridnav, "free_space_grid")
    count_calls(monkeypatch, calls, gridnav, "dijkstra_distances")
    count_calls(monkeypatch, calls, episode_module, "populate_obstacles")
    count_calls(monkeypatch, calls, episode_module, "sample_start_goal")
    built_fields = []
    field_on_grid = planner._field_on_grid

    def recording_field_on_grid(grid, goal):
        field = field_on_grid(grid, goal)
        built_fields.append(field)
        return field

    monkeypatch.setattr(planner, "_field_on_grid", recording_field_on_grid)
    cfgs = suites.validation_suite(5.0, obs_mode="privileged", render_bev=False)
    for cfg in cfgs:
        gridnav.map_components(cfg.map)
    attempts = 0
    for i in range(24):
        calls.clear()
        built_fields.clear()
        episode = Episode(replace(cfgs[i % len(cfgs)], seed=episode_seed(7, i)))
        episode.reset()
        teacher = OracleTeacher()
        teacher.reset(episode.context())
        layouts = calls["populate_obstacles"]
        # start/goal draws read the bare map's grid, rasterised once per map
        assert calls["sample_start_goal"] >= 1
        assert calls["free_space_grid"] == layouts
        assert calls["dijkstra_distances"] == layouts + 1  # + the eroded field
        # the plan is the teacher's plain field; the one field it builds has
        # the wall margin
        plan = episode.plan
        assert len(built_fields) == 1
        assert np.array_equal(built_fields[0].grid.free, eroded(plan.grid).free)
        assert teacher.field is plan or teacher.field is built_fields[0]
        attempts += layouts
    assert attempts > 24  # some layouts were resampled, so the counts say "per attempt"


def test_a_route_ending_on_an_obstacle_gets_a_finite_teacher_field(corridor_long):
    start = (1.0, 1.75, 0.0)
    cfg = make_config(corridor_long, seed=3, obstacle_density=2.0, start=start,
                      waypoints=[(16.0, 1.75), (30.0, 1.75)])
    episode = Episode(cfg)
    episode.reset()
    layout = [(o.x, o.y) for o in episode.world.obstacles]
    gx, gy = max(layout)
    # obstacles depend on the seed and the start only, so ending the route on
    # one leaves the layout as it was
    episode = Episode(replace(cfg, waypoints=[(16.0, 1.75), (gx, gy)]))
    episode.reset()
    assert [(o.x, o.y) for o in episode.world.obstacles] == layout
    plan = episode.plan
    assert not plan.grid.free[plan.grid.cell_of(gx, gy)] and np.isinf(plan.values).all()
    teacher = OracleTeacher()
    teacher.reset(episode.context())
    assert math.isfinite(distance_at(teacher.field, start[0], start[1]))
