import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidewalksim import _ckernel, suites, world
from sidewalksim.geometry import oriented_rect_corners
from sidewalksim.world import (
    AGENT_RADIUS,
    SPEED_MAX,
    SPEED_MIN,
    YAW_LIMIT,
    Action,
    AgentState,
    Obstacle,
    WorldState,
    collision_check,
    on_sidewalk,
    populate_obstacles,
    step_dynamics,
)
from tests.conftest import needs_c_compiler
from tests.test_walkmap import walkable_bruteforce


def make_world(wmap, x=0.0, y=0.0, heading=0.0, obstacles=(), seed=0):
    return WorldState(
        agent=AgentState(x, y, heading),
        obstacles=list(obstacles),
        map=wmap,
        rng=np.random.default_rng(seed),
    )


def test_action_clamps_exactly():
    a = Action(1.0, 3.0)
    assert a.speed == 0.20
    assert a.yaw_delta == 0.9425
    b = Action(-1.0, -3.0)
    assert b.speed == -0.10
    assert b.yaw_delta == -0.9425


@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False))
def test_action_always_within_bounds(v, w):
    a = Action(v, w)
    assert SPEED_MIN <= a.speed <= SPEED_MAX
    assert -YAW_LIMIT <= a.yaw_delta <= YAW_LIMIT


def test_step_forward(big_plane):
    w = make_world(big_plane)
    step_dynamics(w, Action(0.2, 0.0))
    assert w.agent.x == pytest.approx(0.2)
    assert w.agent.y == pytest.approx(0.0)
    assert w.agent.heading == 0.0
    assert w.step_count == 1


def test_step_rotation_only(big_plane):
    w = make_world(big_plane)
    step_dynamics(w, Action(0.0, 0.9425))
    assert w.agent.heading == pytest.approx(0.9425)
    assert math.degrees(w.agent.heading) == pytest.approx(54.0, abs=0.01)


def test_step_rotate_then_translate(big_plane):
    w = make_world(big_plane)
    step_dynamics(w, Action(0.2, 0.9425))
    # hand-computed: translate along the NEW heading
    assert w.agent.x == pytest.approx(0.2 * math.cos(0.9425), abs=1e-12)
    assert w.agent.y == pytest.approx(0.2 * math.sin(0.9425), abs=1e-12)
    assert w.agent.x == pytest.approx(0.117, abs=1e-3)
    assert w.agent.y == pytest.approx(0.162, abs=1e-3)


@settings(max_examples=50)
@given(st.lists(st.tuples(st.floats(-0.1, 0.2), st.floats(-1.0, 1.0)),
                min_size=1, max_size=60))
def test_heading_always_normalized(actions):
    w = WorldState(agent=AgentState(0.0, 0.0, 0.0), obstacles=[],
                   map=None, rng=np.random.default_rng(0))
    for v, yd in actions:
        step_dynamics(w, Action(v, yd))
        assert -math.pi < w.agent.heading <= math.pi


def test_trajectory_determinism(corridor):
    actions = [Action(0.15, 0.1 * ((i % 5) - 2)) for i in range(50)]

    def run():
        w = make_world(corridor, 5.0, 1.5, 0.0, seed=3)
        traj = []
        for a in actions:
            step_dynamics(w, a)
            traj.append((w.agent.x, w.agent.y, w.agent.heading))
        return traj

    assert run() == run()


def test_collision_disc_disc(big_plane):
    cyl = Obstacle(kind="cylinder", x=0.8, y=0.0, radius=0.5)
    w = make_world(big_plane, obstacles=[cyl])
    report = collision_check(w)
    assert report.hit and report.obstacle_id == 0

    far = Obstacle(kind="cylinder", x=2.0, y=0.0, radius=0.5)
    w = make_world(big_plane, obstacles=[far])
    assert not collision_check(w).hit


def test_collision_disc_rect(big_plane):
    near = Obstacle(kind="cuboid", x=0.84, y=0.0, half_w=0.5, half_h=0.5)
    w = make_world(big_plane, obstacles=[near])
    assert collision_check(w).hit  # closest point at 0.34 < 0.35

    clear = Obstacle(kind="cuboid", x=0.90, y=0.0, half_w=0.5, half_h=0.5)
    w = make_world(big_plane, obstacles=[clear])
    assert not collision_check(w).hit  # 0.40 >= 0.35


def test_on_sidewalk(corridor):
    w = make_world(corridor, 10.0, 1.5)
    assert on_sidewalk(w)
    w.agent.y = 3.1
    assert not on_sidewalk(w)


def test_on_sidewalk_matches_bruteforce(corridor, rng):
    w = make_world(corridor, 10.0, 1.5)
    for _ in range(10_000):
        x = float(rng.uniform(-1.0, 21.0))
        y = float(rng.uniform(-1.0, 4.0))
        w.agent.x, w.agent.y = x, y
        assert on_sidewalk(w) == walkable_bruteforce(corridor, x, y)


def test_populate_density_zero(corridor, rng):
    assert populate_obstacles(corridor, 0.0, rng) == []


def test_populate_count_from_area(corridor, rng):
    obs = populate_obstacles(corridor, 5.0, rng)
    assert len(obs) == 3  # round(60 m^2 * 5 / 100)


def test_populate_determinism(corridor):
    a = populate_obstacles(corridor, 5.0, np.random.default_rng(11))
    b = populate_obstacles(corridor, 5.0, np.random.default_rng(11))
    assert a == b


def test_populate_centers_walkable_and_shapes_alternate(corridor, rng):
    obs = populate_obstacles(corridor, 8.0, rng)
    for i, ob in enumerate(obs):
        assert corridor.is_walkable(ob.x, ob.y)
        assert ob.kind == ("cylinder" if i % 2 == 0 else "cuboid")
        if ob.kind == "cylinder":
            assert 0.15 <= ob.radius <= 0.5
        else:
            assert 0.15 <= ob.half_w <= 0.5
            assert 0.15 <= ob.half_h <= 0.5


def test_populate_respects_start_clearance(corridor):
    start = (10.0, 1.5)
    for seed in range(10):
        obs = populate_obstacles(corridor, 10.0, np.random.default_rng(seed),
                                 keep_clear=[start])
        for ob in obs:
            assert math.hypot(ob.x - start[0], ob.y - start[1]) >= 1.5


def test_pedestrians_never_teleport(corridor):
    rng = np.random.default_rng(5)
    obs = populate_obstacles(corridor, 5.0, rng, pedestrian_fraction=1.0)
    assert any(o.is_pedestrian for o in obs)
    w = make_world(corridor, 2.0, 1.5, 0.0, obstacles=obs, seed=9)
    prev = [(o.x, o.y) for o in w.obstacles]
    for _ in range(80):
        step_dynamics(w, Action(0.0, 0.0))
        for o, (px, py) in zip(w.obstacles, prev):
            d = math.hypot(o.x - px, o.y - py)
            assert d <= o.speed + 1e-12
            if o.is_pedestrian:
                assert corridor.is_walkable(o.x, o.y)
        prev = [(o.x, o.y) for o in w.obstacles]


def test_rng_state_serializable(corridor):
    w = make_world(corridor, 1.0, 1.5)
    state = w.rng.bit_generator.state
    assert isinstance(state, dict)
    json.dumps(state, default=str)  # round-trippable structure


def obstacle_tables_oracle(obstacles):
    """Per-obstacle loop over the shapes: circles (C, 3), rect sides (4R, 4),
    bounds (N, 3) and the cuboid rows of bounds (R, 3)."""
    circles, sides, bounds, rect_bounds = [], [], [], []
    for ob in obstacles:
        if ob.kind == "cylinder":
            circles.append((ob.x, ob.y, ob.radius))
            bounds.append((ob.x, ob.y, ob.radius))
        else:
            corners = oriented_rect_corners(ob.x, ob.y, ob.half_w, ob.half_h, ob.yaw)
            sides.append(np.hstack([corners, np.roll(corners, -1, axis=0)]))
            bounds.append((ob.x, ob.y, math.hypot(ob.half_w, ob.half_h)))
            rect_bounds.append(bounds[-1])
    return (np.array(circles).reshape(-1, 3),
            np.vstack(sides) if sides else np.zeros((0, 4)),
            np.array(bounds).reshape(-1, 3),
            np.array(rect_bounds).reshape(-1, 3))


def table_buffers(world):
    """The identity and the data address of each of the world's table arrays."""
    tables = world.tables
    return [(id(a), a.__array_interface__["data"][0])
            for a in (tables.circles, tables.rect_segments, tables.rect_bounds, tables.bounds)]


def assert_tables_match_oracle(world):
    circles, sides, bounds, rect_bounds = obstacle_tables_oracle(world.obstacles)
    got_circles, got_sides = world.obstacle_arrays()
    assert got_circles.shape == circles.shape and np.array_equal(got_circles, circles)
    assert got_sides.shape == sides.shape and np.array_equal(got_sides, sides)
    assert np.array_equal(world.tables.bounds, bounds)
    assert np.array_equal(world.tables.rect_bounds, rect_bounds)
    for ob, row in zip(world.obstacles, bounds):
        assert ob.reach == row[2]
    # the C kernels read the tables as C-contiguous float64 buffers
    tables = world.tables
    for table in (tables.circles, tables.rect_segments, tables.bounds, tables.rect_bounds):
        assert table.dtype == np.float64 and table.flags.c_contiguous


def test_obstacle_tables_match_per_obstacle_loop_while_pedestrians_move(monkeypatch):
    # the world builds its tables once, and each step rewrites only the
    # pedestrian rows in place
    builds = []
    build = world.ObstacleTables
    monkeypatch.setattr(world, "ObstacleTables",
                        lambda obstacles: builds.append(1) or build(obstacles))
    rng = np.random.default_rng(31)
    configs = suites.training_suite() + suites.validation_suite() + [suites.bench_config()]
    pedestrians = 0
    for cfg in configs:
        obstacles = populate_obstacles(cfg.map, cfg.obstacle_density, rng,
                                       pedestrian_fraction=0.5)
        pedestrians += sum(ob.is_pedestrian for ob in obstacles)
        x, y = cfg.map.sample_walkable_point(rng)
        w = make_world(cfg.map, x, y, obstacles=obstacles, seed=int(rng.integers(1 << 30)))
        assert w.pedestrians == [ob for ob in obstacles if ob.is_pedestrian]
        assert len(builds) == 1
        builds.clear()
        buffers = table_buffers(w)
        for step in range(60):
            if step == 30:
                step_dynamics(w, Action(0.0, 0.0))  # a step whose tables nobody reads
            assert_tables_match_oracle(w)
            step_dynamics(w, Action(0.0, 0.0))
            assert table_buffers(w) == buffers
        assert builds == []
    assert pedestrians > 100


def broad_phase_oracle(bounds, x, y, margin, closed):
    """The numpy broad phase: rows whose disc of radius reach + margin holds (x, y)."""
    dx = bounds[:, 0] - x
    dy = bounds[:, 1] - y
    d2 = dx * dx + dy * dy
    reach2 = (bounds[:, 2] + margin) ** 2
    return np.nonzero(d2 <= reach2 if closed else d2 < reach2)[0].tolist()


@needs_c_compiler
@pytest.mark.parametrize("margin, closed", [(AGENT_RADIUS, False), (0.0, True),
                                            (0.25, False), (0.25, True)])
def test_compiled_disc_test_matches_the_numpy_broad_phase(monkeypatch, margin, closed):
    kernels = _ckernel.load()
    assert kernels is not None, "the C kernels failed to build or load"
    rng = np.random.default_rng(23)
    cfg = suites.bench_config()
    # two bounding discs of radius 0.5 at the origin: (0.5 + margin, 0) lies on
    # both grown circles
    edge = [Obstacle(kind="cylinder", x=0.0, y=0.0, radius=0.5),
            Obstacle(kind="cuboid", x=0.0, y=0.0, half_w=0.3, half_h=0.4, yaw=0.4)]
    obstacles = populate_obstacles(cfg.map, cfg.obstacle_density, rng) + edge
    w = make_world(cfg.map, obstacles=obstacles)
    bounds = w.tables.bounds
    points = [(ob.x + dx, ob.y + dy) for ob in obstacles
              for dx, dy in rng.uniform(-1.2, 1.2, (6, 2)).tolist()]
    points += [(0.5 + margin, 0.0), (0.0, -0.5 - margin), (0.0, 0.0), (1e9, -1e9)]
    near = 0
    for x, y in points:
        monkeypatch.setattr(_ckernel, "_loaded", kernels)
        fast = list(w.obstacles_near(x, y, margin, closed))
        monkeypatch.setattr(_ckernel, "_loaded", None)
        assert fast == list(w.obstacles_near(x, y, margin, closed))
        assert fast == broad_phase_oracle(bounds, x, y, margin, closed), (x, y)
        near += bool(fast)
    assert 0 < near < len(points)
    on_circles = broad_phase_oracle(bounds, 0.5 + margin, 0.0, margin, closed)
    assert on_circles == ([len(obstacles) - 2, len(obstacles) - 1] if closed else [])


@pytest.mark.parametrize("kinds", [(), ("cylinder",) * 3, ("cuboid",) * 3])
def test_obstacle_tables_of_single_kind_worlds(big_plane, kinds):
    obstacles = [Obstacle(kind=kind, x=1.5 * i, y=-0.5 * i, radius=0.2 + 0.1 * i,
                          half_w=0.3, half_h=0.1 + 0.2 * i, yaw=0.7 * i - 1.0)
                 for i, kind in enumerate(kinds)]
    w = make_world(big_plane, obstacles=obstacles)
    assert_tables_match_oracle(w)
    circles, sides = w.obstacle_arrays()
    assert circles.shape == (kinds.count("cylinder"), 3)
    assert sides.shape == (4 * kinds.count("cuboid"), 4)
    assert w.tables.bounds.shape == (len(kinds), 3)


def test_obstacle_to_dict_bytes():
    # log headers carry these dicts, and replay compares them with a fresh reset
    ob = Obstacle(kind="cuboid", x=1.0, y=2.0, half_w=0.3, half_h=0.2, yaw=0.1,
                  speed=0.12, heading=-0.5, reseed_period=25)
    assert json.dumps(ob.to_dict()) == (
        '{"kind": "cuboid", "x": 1.0, "y": 2.0, "radius": 0.0, "half_w": 0.3, "half_h": 0.2, '
        '"yaw": 0.1, "speed": 0.12, "heading": -0.5, "reseed_period": 25}')


def footprint_probes(ob) -> np.ndarray:
    """(N, 2) points on the boundary of the footprint, each also moved 1 ulp
    either way in x and in y: cuboid vertices and edge midpoints, or points
    around a cylinder's rim."""
    if ob.kind == "cylinder":
        a = np.linspace(-math.pi, math.pi, 48, endpoint=False)
        base = np.column_stack([ob.x + ob.radius * np.cos(a), ob.y + ob.radius * np.sin(a)])
    else:
        corners = oriented_rect_corners(ob.x, ob.y, ob.half_w, ob.half_h, ob.yaw)
        base = np.vstack([corners, (corners + np.roll(corners, -1, axis=0)) / 2.0])
    probes = [base]
    for axis in (0, 1):
        for toward in (-np.inf, np.inf):
            moved = base.copy()
            moved[:, axis] = np.nextafter(moved[:, axis], toward)
            probes.append(moved)
    return np.vstack(probes)


def covers_test_obstacles(rng):
    obstacles = [Obstacle(kind="cuboid", x=0.0, y=0.0, half_w=0.3, half_h=0.2),
                 Obstacle(kind="cuboid", x=1.25, y=-2.5, half_w=0.15, half_h=0.5,
                          yaw=math.pi / 2),
                 Obstacle(kind="cylinder", x=0.0, y=0.0, radius=0.15),
                 Obstacle(kind="cylinder", x=3.1, y=-0.7, radius=0.5)]
    for i in range(40):
        size = rng.uniform(0.15, 0.5, size=3)
        x, y = rng.uniform(-20.0, 20.0, size=2)
        if i % 2:
            obstacles.append(Obstacle(kind="cuboid", x=x, y=y, half_w=size[0],
                                      half_h=size[1], yaw=rng.uniform(-math.pi, math.pi)))
        else:
            obstacles.append(Obstacle(kind="cylinder", x=x, y=y, radius=size[2]))
    return obstacles


def test_covers_at_margin_zero_equals_contains_on_the_boundary():
    rng = np.random.default_rng(8)
    inside = outside = 0
    for ob in covers_test_obstacles(rng):
        probes = footprint_probes(ob)
        got = ob.covers(probes[:, 0], probes[:, 1])
        want = np.array([ob.contains(float(px), float(py)) for px, py in probes])
        assert np.array_equal(got, want), ob
        inside += int(want.sum())
        outside += int((~want).sum())
    assert inside > 1000 and outside > 1000  # the probes straddle the boundary


def test_inflated_cuboid_covers_within_margin_of_its_rounded_corners():
    rng = np.random.default_rng(9)
    checked = 0
    for ob in covers_test_obstacles(rng):
        if ob.kind != "cuboid":
            continue
        for margin in (0.3, 0.35, 0.48):
            corners = oriented_rect_corners(ob.x, ob.y, ob.half_w, ob.half_h, ob.yaw)
            a = rng.uniform(-math.pi, math.pi, size=(4, 200))
            r = margin + rng.uniform(-0.05, 0.05, size=(4, 200))
            px = (corners[:, 0:1] + r * np.cos(a)).ravel()
            py = (corners[:, 1:2] + r * np.sin(a)).ravel()
            dist = np.array([ob.distance_to(float(x), float(y)) for x, y in zip(px, py)])
            clear = np.abs(dist - margin) > 1e-12  # hypot and squares may round apart
            got = ob.covers(px, py, margin)
            assert np.array_equal(got[clear], dist[clear] <= margin), (ob, margin)
            checked += int(clear.sum())
    assert checked > 10_000
