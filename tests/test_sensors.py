import math
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from sidewalksim import _ckernel, sensors, suites
from sidewalksim.geometry import normalize_angle, point_in_polygon
from sidewalksim.sensors import (
    BEV_RESOLUTION,
    BEV_SIZE,
    GpsNoiseModel,
    bev_pixel_world_coords,
    compute_gdd,
    raycast,
    render_bev,
    render_bev_frame,
)
from sidewalksim.walkmap import WalkableMap, generate_synthetic_map
from sidewalksim.world import (
    Action,
    AgentState,
    Obstacle,
    WorldState,
    populate_obstacles,
    step_dynamics,
)

from tests.conftest import needs_c_compiler
from tests.test_world import make_world, table_buffers


# -- oracles -------------------------------------------------------------------


def bev_bruteforce(world):
    """Per-pixel scalar classification: walkable and outside every obstacle."""
    wx, wy = bev_pixel_world_coords(world.agent)
    frame = np.zeros((BEV_SIZE, BEV_SIZE), dtype=np.uint8)
    for r in range(BEV_SIZE):
        for c in range(BEV_SIZE):
            x, y = wx[r, c], wy[r, c]
            ok = any(point_in_polygon(x, y, p) for p in world.map.polygons)
            if ok:
                for ob in world.obstacles:
                    if ob.contains(x, y):
                        ok = False
                        break
            frame[r, c] = 1 if ok else 0
    return frame


def march_ray(world, angle, max_range, step=0.001):
    """1 mm ray-marching oracle: first sample off-walkable or inside an obstacle."""
    ox, oy = world.agent.x, world.agent.y
    dx, dy = math.cos(angle), math.sin(angle)
    t = 0.0
    while t <= max_range:
        x, y = ox + t * dx, oy + t * dy
        if not any(point_in_polygon(x, y, p) for p in world.map.polygons):
            return t
        if any(ob.contains(x, y) for ob in world.obstacles):
            return t
        t += step
    return max_range


def random_world(seed):
    rng = np.random.default_rng(seed)
    kind = ["corridor", "L-shape", "grid"][seed % 3]
    wmap = generate_synthetic_map(kind, float(rng.uniform(14, 24)),
                                  float(rng.uniform(2.5, 4.5)), seed=seed)
    from sidewalksim.world import populate_obstacles

    obstacles = populate_obstacles(wmap, 5.0, rng)
    for _ in range(100):
        x, y = wmap.sample_walkable_point(rng)
        agent = AgentState(x, y, float(rng.uniform(-math.pi, math.pi)))
        if not any(ob.contains(x, y) for ob in obstacles):
            break
    return WorldState(agent=agent, obstacles=obstacles, map=wmap, rng=rng)


# -- BEV -----------------------------------------------------------------------


def test_bev_all_walkable(big_plane):
    w = make_world(big_plane, 0.0, 0.0, 0.3)
    bev = render_bev(w)
    assert bev.shape == (4, 128, 128)
    assert bev.dtype == np.uint8
    assert int(bev[0].sum()) == 128 * 128


def test_bev_rear_halfplane():
    # walkable only behind the agent (forward body coordinate < 0)
    half = WalkableMap([[[-100.0, -100.0], [0.0, -100.0], [0.0, 100.0], [-100.0, 100.0]]])
    w = make_world(half, 0.0, 0.0, 0.0)
    frame = render_bev_frame(w)
    assert (frame[:65, :] == 0).all()   # forward rows and the agent row
    assert (frame[65:, :] == 1).all()   # behind


def test_bev_cylinder_dead_ahead(big_plane):
    w = make_world(big_plane, 0.0, 0.0, 0.0,
                   obstacles=[Obstacle(kind="cylinder", x=2.0, y=0.0, radius=0.5)])
    frame = render_bev_frame(w)
    zeros = np.nonzero(frame == 0)
    rows, cols = zeros
    # disc center: 2 m ahead = 14.2 px above the agent pixel (64, 64)
    assert rows.mean() == pytest.approx(64 - 2.0 / BEV_RESOLUTION, abs=1.0)
    assert cols.mean() == pytest.approx(64.0, abs=1.0)
    radius_px = math.sqrt(len(rows) / math.pi)
    assert radius_px == pytest.approx(0.5 / BEV_RESOLUTION, abs=0.5)


def test_bev_pixel_world_coords_equal_the_array_expression_bit_for_bit():
    rng = np.random.default_rng(11)
    for _ in range(200):
        agent = AgentState(*rng.uniform(-300.0, 300.0, 2), rng.uniform(-4.0, 4.0))
        c, s = math.cos(agent.heading), math.sin(agent.heading)
        wx, wy = bev_pixel_world_coords(agent)
        assert wx.tobytes() == (agent.x + sensors._FWD * c + sensors._RIGHT * s).tobytes()
        assert wy.tobytes() == (agent.y + sensors._FWD * s - sensors._RIGHT * c).tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bev_matches_bruteforce_exactly(seed):
    w = random_world(seed)
    assert np.array_equal(render_bev_frame(w), bev_bruteforce(w))


def test_bev_history_stacking(big_plane):
    w = make_world(big_plane, 0.0, 0.0, 0.0,
                   obstacles=[Obstacle(kind="cylinder", x=3.0, y=0.0, radius=0.5)])
    first = render_bev_frame(w)
    hist = [first]
    w.agent.x = 1.0
    stack = render_bev(w, history=hist)
    assert np.array_equal(stack[1], first)
    assert not np.array_equal(stack[0], first)
    # missing history duplicates the current frame
    assert np.array_equal(stack[2], stack[0])
    assert np.array_equal(stack[3], stack[0])


def test_bev_rotational_consistency():
    # rotating map, obstacles, and agent by 90 degrees is exact in floats
    base = random_world(7)
    frame0 = render_bev_frame(base)

    rot_polys = [np.column_stack([-p[:, 1], p[:, 0]]) for p in base.map.polygons]
    rot_map = WalkableMap(rot_polys)
    rot_obs = []
    for ob in base.obstacles:
        rot_obs.append(Obstacle(kind=ob.kind, x=-ob.y, y=ob.x, radius=ob.radius,
                                half_w=ob.half_w, half_h=ob.half_h,
                                yaw=normalize_angle(ob.yaw + math.pi / 2)))
    a = base.agent
    rot_world = WorldState(
        agent=AgentState(-a.y, a.x, normalize_angle(a.heading + math.pi / 2)),
        obstacles=rot_obs, map=rot_map, rng=np.random.default_rng(0))
    frame1 = render_bev_frame(rot_world)
    assert np.array_equal(frame0, frame1)


# -- raycast -------------------------------------------------------------------


def test_raycast_empty_world_max_range(big_plane):
    w = make_world(big_plane, 0.0, 0.0, 0.4)
    r = raycast(w, 64, 9.0)
    assert r.shape == (64,)
    assert np.all(r == 9.0)


def test_raycast_cylinder_dead_ahead(big_plane):
    w = make_world(big_plane, 0.0, 0.0, 0.0,
                   obstacles=[Obstacle(kind="cylinder", x=3.0, y=0.0, radius=1.0)])
    r = raycast(w, 64, 9.0)
    assert r[0] == pytest.approx(2.0, abs=1e-12)


def test_raycast_halfplane_oblique():
    # walkable plane ends 4 m ahead; the +60 degree ray reaches it at 8 m
    half = WalkableMap([[[-100.0, -100.0], [4.0, -100.0], [4.0, 100.0], [-100.0, 100.0]]])
    w = make_world(half, 0.0, 0.0, 0.0)
    r = raycast(w, 6, 20.0)  # 6 rays: k=1 sits at +60 degrees
    assert r[1] == pytest.approx(4.0 / math.cos(math.radians(60)), abs=1e-9)
    r = raycast(w, 6, 6.0)
    assert r[1] == 6.0  # clamped


def test_raycast_origin_inside_obstacle_reads_zero(big_plane):
    w = make_world(big_plane, 0.0, 0.0, 0.0,
                   obstacles=[Obstacle(kind="cylinder", x=0.1, y=0.0, radius=0.5)])
    assert np.all(raycast(w, 16, 9.0) == 0.0)


def test_raycast_rect_obstacle(big_plane):
    w = make_world(big_plane, 0.0, 0.0, 0.0,
                   obstacles=[Obstacle(kind="cuboid", x=3.0, y=0.0,
                                       half_w=0.5, half_h=2.0)])
    r = raycast(w, 4, 9.0)
    assert r[0] == pytest.approx(2.5, abs=1e-12)
    assert r[2] == 9.0  # behind stays clear


@pytest.mark.parametrize("seed", [3, 4, 5, 6])
def test_raycast_matches_marching_oracle(seed):
    w = random_world(seed)
    n_rays = 32
    ranges = raycast(w, n_rays, 6.0)
    for k in range(n_rays):
        angle = w.agent.heading + 2 * math.pi * k / n_rays
        oracle = march_ray(w, angle, 6.0)
        assert abs(ranges[k] - oracle) <= 0.002, f"ray {k}: {ranges[k]} vs {oracle}"


@needs_c_compiler
@pytest.mark.parametrize("seed", [20, 21, 22])
def test_raycast_compiled_matches_numpy(seed, monkeypatch):
    assert _ckernel.load() is not None, "the C kernels failed to build or load"
    w = random_world(seed)
    cases = ((64, 6.0), (272, 6.0), (64, 9.0))
    fast = [raycast(w, n_rays, max_range) for n_rays, max_range in cases]
    monkeypatch.setattr(_ckernel, "_loaded", None)
    for (n_rays, max_range), ranges in zip(cases, fast):
        assert np.array_equal(ranges, raycast(w, n_rays, max_range))


@needs_c_compiler
def test_raycast_compiled_matches_numpy_grazing_rect_corners(big_plane, monkeypatch):
    # one corner sits where a ray from the origin is tangent to the bounding
    # disc, so a dense fan grazes it at the rim, where the kernel skips rays
    half_w, half_h = 0.5, 0.3
    tangent = math.asin(math.hypot(half_w, half_h) / 3.0)
    yaw = math.pi / 2 + tangent - math.atan2(half_h, half_w)
    w = make_world(big_plane, 0.0, 0.0, 0.0,
                   obstacles=[Obstacle(kind="cuboid", x=3.0, y=0.0, half_w=half_w,
                                       half_h=half_h, yaw=yaw)])
    fast = raycast(w, 20000, 9.0)
    monkeypatch.setattr(_ckernel, "_loaded", None)
    reference = raycast(w, 20000, 9.0)
    assert (reference < 9.0).any()
    assert np.array_equal(fast, reference)


@needs_c_compiler
def test_raycast_compiled_matches_numpy_while_pedestrians_move(monkeypatch):
    # pedestrians move every step, and the kernel reads their new rows from the
    # same table arrays, rewritten in place
    kernels = _ckernel.load()
    assert kernels is not None, "the C kernels failed to build or load"
    rng = np.random.default_rng(41)
    wmap = suites.bench_config().map
    x, y = wmap.sample_walkable_point(rng)
    obstacles = populate_obstacles(wmap, suites.BENCH_OBSTACLE_DENSITY, rng,
                                   pedestrian_fraction=0.5, keep_clear=[(x, y)])
    assert sum(ob.is_pedestrian for ob in obstacles) >= 10
    w = make_world(wmap, x, y, obstacles=obstacles, seed=41)
    cases = ((sensors.PRIVILEGED_LIDAR_RAYS, sensors.PRIVILEGED_LIDAR_MAX_RANGE),
             (sensors.REALISTIC_LIDAR_RAYS, sensors.REALISTIC_LIDAR_MAX_RANGE))
    tables, buffers = w.tables, table_buffers(w)
    clear = 0
    for step in range(200):
        monkeypatch.setattr(_ckernel, "_loaded", kernels)
        fast = [raycast(w, n_rays, max_range) for n_rays, max_range in cases]
        monkeypatch.setattr(_ckernel, "_loaded", None)
        for (n_rays, max_range), ranges in zip(cases, fast):
            assert np.array_equal(ranges, raycast(w, n_rays, max_range)), (step, n_rays)
        clear += bool(fast[0].any())
        step_dynamics(w, Action(0.0, 0.3))
        assert w.tables is tables
        assert table_buffers(w) == buffers
    assert clear > 150  # casts from inside a pedestrian read 0 on both paths


def test_raycast_falls_back_to_numpy_when_kernel_build_fails(monkeypatch):
    w = random_world(20)

    def failing_build(source):
        raise OSError("cc failed: error: unknown type name")

    monkeypatch.setattr(_ckernel, "build", failing_build)
    monkeypatch.setattr(_ckernel, "_loaded", _ckernel._UNLOADED)
    with pytest.warns(RuntimeWarning, match="pure-Python paths"):
        ranges = raycast(w, 64, 6.0)
    assert _ckernel.load() is None
    assert np.array_equal(ranges, raycast(w, 64, 6.0))


# The build helper builds the one module of every C kernel of the package;
# these tests cover it through a broken raycast and membership source.

KERNELS_SOURCE = Path(_ckernel.__file__).with_name(_ckernel.SOURCE)


@needs_c_compiler
def test_kernel_compile_error_raises_oserror_and_leaves_no_object(tmp_path):
    for name in (_ckernel.SOURCE, *_ckernel.INCLUDED):
        shutil.copy(KERNELS_SOURCE.with_name(name), tmp_path / name)
    (tmp_path / "_walkmap.c").write_text("int raycast_loop(void) { return }\n")
    with pytest.raises(OSError, match="failed"):
        _ckernel.build(str(tmp_path / _ckernel.SOURCE))
    assert list((tmp_path / "__pycache__").iterdir()) == []


@needs_c_compiler
def test_current_kernel_is_reused_without_compiling(monkeypatch):
    path = _ckernel.build(str(KERNELS_SOURCE))

    def no_compile(*args, **kwargs):
        raise AssertionError("compiled although the built kernel is current")

    monkeypatch.setattr(subprocess, "run", no_compile)
    assert _ckernel.build(str(KERNELS_SOURCE)) == path


def test_raycast_rotational_consistency():
    base = random_world(8)
    r0 = raycast(base, 64, 6.0)
    a = base.agent
    rot_polys = [np.column_stack([-p[:, 1], p[:, 0]]) for p in base.map.polygons]
    rot_map = WalkableMap(rot_polys)
    rot_obs = [Obstacle(kind=ob.kind, x=-ob.y, y=ob.x, radius=ob.radius,
                        half_w=ob.half_w, half_h=ob.half_h,
                        yaw=normalize_angle(ob.yaw + math.pi / 2))
               for ob in base.obstacles]
    rot_world = WorldState(
        agent=AgentState(-a.y, a.x, normalize_angle(a.heading + math.pi / 2)),
        obstacles=rot_obs, map=rot_map, rng=np.random.default_rng(0))
    r1 = raycast(rot_world, 64, 6.0)
    assert np.allclose(r0, r1, atol=1e-6)


# -- goal polar ----------------------------------------------------------------


def test_gdd_dead_ahead():
    agent = AgentState(0.0, 0.0, 0.0)
    g = compute_gdd(agent, (5.0, 0.0))
    assert g == (5.0, 0.0)


def test_gdd_rotated_frame():
    agent = AgentState(0.0, 0.0, math.pi / 2)
    g = compute_gdd(agent, (3.0, 4.0))
    assert g.distance == pytest.approx(5.0)
    assert g.bearing == pytest.approx(math.atan2(4, 3) - math.pi / 2, abs=1e-4)
    assert g.bearing == pytest.approx(-0.6435, abs=1e-4)


def test_gdd_at_goal_convention():
    agent = AgentState(2.0, 1.0, 1.2)
    assert compute_gdd(agent, (2.0, 1.0)) == (0.0, 0.0)


def test_gdd_bearing_always_normalized(rng):
    for _ in range(500):
        agent = AgentState(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)),
                           float(rng.uniform(-math.pi, math.pi)))
        goal = (float(rng.uniform(-20, 20)), float(rng.uniform(-20, 20)))
        g = compute_gdd(agent, goal)
        assert -math.pi < g.bearing <= math.pi
        # distance is translation invariant
        shifted = AgentState(agent.x + 3.0, agent.y - 2.0, agent.heading)
        g2 = compute_gdd(shifted, (goal[0] + 3.0, goal[1] - 2.0))
        assert g2.distance == pytest.approx(g.distance, abs=1e-12)


def test_noiseless_gps_is_bitwise_exact(monkeypatch):
    monkeypatch.setattr(sensors, "GPS_SIGMA_POS", 0.0)
    monkeypatch.setattr(sensors, "GPS_LATENCY_STEPS", 0)
    agent = AgentState(1.234567, -2.345678, 0.7)
    goal = (7.0, 3.0)
    gps = GpsNoiseModel(np.random.default_rng(0))
    exact = compute_gdd(agent, goal)
    noisy = compute_gdd(agent, goal, gps)
    assert noisy.distance == exact.distance
    assert noisy.bearing == exact.bearing


def test_gps_latency_uses_delayed_position(monkeypatch):
    monkeypatch.setattr(sensors, "GPS_SIGMA_POS", 0.0)
    monkeypatch.setattr(sensors, "GPS_LATENCY_STEPS", 2)
    gps = GpsNoiseModel(np.random.default_rng(0))
    positions = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]
    outs = [gps.localize(*p) for p in positions]
    assert outs[0] == (0.0, 0.0)
    assert outs[1] == (0.0, 0.0)   # oldest available
    assert outs[2] == (0.0, 0.0)   # exactly latency steps back
    assert outs[3] == (1.0, 0.0)


def test_gps_noise_statistics(monkeypatch):
    monkeypatch.setattr(sensors, "GPS_SIGMA_POS", 0.5)
    monkeypatch.setattr(sensors, "GPS_LATENCY_STEPS", 0)
    gps = GpsNoiseModel(np.random.default_rng(42))
    errs = []
    for _ in range(4000):
        nx, ny = gps.localize(10.0, -4.0)
        errs.append((nx - 10.0, ny + 4.0))
    errs = np.array(errs)
    assert errs.mean(axis=0) == pytest.approx([0.0, 0.0], abs=0.03)
    assert errs.std(axis=0) == pytest.approx([0.5, 0.5], abs=0.03)
