import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sidewalksim import sensors, world
from sidewalksim.episode import (
    MAX_OBSTACLE_DENSITY,
    OBS_MODES,
    Episode,
    EpisodeConfig,
    WaypointRoute,
    advance_waypoint,
    compute_reward,
    run_episode,
    sample_start_goal,
)
from sidewalksim.errors import EpisodeTerminatedError, MapTooSmallError
from sidewalksim.gridnav import bfs_connected, free_space_grid
from sidewalksim.planner import ConstantPolicy
from sidewalksim.walkmap import WalkableMap, generate_synthetic_map
from sidewalksim.world import AGENT_RADIUS, Action, Obstacle

from tests.conftest import make_config
from tests.test_walkmap import walkable_bruteforce


def is_reachable(wmap, a, b, obstacles=(), agent_radius=AGENT_RADIUS):
    """Connectivity on the inflated free-space grid between the two points."""
    grid = free_space_grid(wmap, obstacles, inflate=agent_radius)
    return bfs_connected(grid, grid.cell_of(a[0], a[1]), grid.cell_of(b[0], b[1]))


def fine_grid_reachable(wmap, a, b, obstacles, agent_radius=0.35, resolution=0.05):
    """Independent fine-resolution BFS oracle."""
    from collections import deque

    minx, miny, maxx, maxy = wmap.bounds
    nx = int(math.ceil((maxx - minx) / resolution))
    ny = int(math.ceil((maxy - miny) / resolution))

    def free(r, c):
        x = minx + (c + 0.5) * resolution
        y = miny + (r + 0.5) * resolution
        if not walkable_bruteforce(wmap, x, y):
            return False
        return all(ob.distance_to(x, y) > agent_radius for ob in obstacles)

    def cell(p):
        return (int((p[1] - miny) / resolution), int((p[0] - minx) / resolution))

    start, goal = cell(a), cell(b)
    if not (free(*start) and free(*goal)):
        return False
    seen = {start}
    q = deque([start])
    while q:
        r, c = q.popleft()
        if (r, c) == goal:
            return True
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                rr, cc = r + dr, c + dc
                if (dr or dc) and 0 <= rr < ny and 0 <= cc < nx \
                        and (rr, cc) not in seen and free(rr, cc):
                    seen.add((rr, cc))
                    q.append((rr, cc))
    return False


# -- rewards -------------------------------------------------------------------


def test_reward_progress_step():
    r = compute_reward(5.0, 4.8, None)
    assert r.success == 0.0 and r.termination == 0.0
    assert r.approach == pytest.approx(0.2)
    assert r.life == -0.01
    assert r.total == pytest.approx(0.19)


def test_reward_success_step():
    r = compute_reward(0.6, 0.4, "success")
    assert r.success == 10.0 and r.termination == 0.0
    assert r.total == pytest.approx(10.19)


def test_reward_collision_step():
    r = compute_reward(3.0, 3.2, "collision")
    assert r.termination == -10.0 and r.success == 0.0
    assert r.total == pytest.approx(-10.21)


def test_reward_all_terminal_kinds():
    for kind in ("collision", "sidewalk_violation", "timeout"):
        r = compute_reward(1.0, 1.0, kind)
        assert r.termination == -10.0 and r.success == 0.0
    r = compute_reward(1.0, 1.0, "success")
    assert r.success == 10.0 and r.termination == 0.0


@given(st.floats(0, 50), st.floats(0, 50),
       st.sampled_from([None, "success", "collision", "sidewalk_violation", "timeout"]))
def test_reward_total_is_exact_sum(d_prev, d_curr, terminal):
    r = compute_reward(d_prev, d_curr, terminal)
    assert r.total == r.success + r.termination + r.approach + r.life
    assert not (r.success != 0.0 and r.termination != 0.0)
    assert r.approach == d_prev - d_curr
    assert r.life == -0.01


# -- sampling and reachability ---------------------------------------------------


def test_start_goal_separation_in_range():
    m = generate_synthetic_map("corridor", 30.0, 3.0)
    for seed in range(30):
        rng = np.random.default_rng(seed)
        start, goal = sample_start_goal(m, rng)
        d = math.hypot(goal[0] - start[0], goal[1] - start[1])
        assert 10.0 <= d <= 15.0
        assert m.is_walkable(start[0], start[1])
        assert m.is_walkable(goal[0], goal[1])


def test_start_goal_same_component():
    # two disconnected 20 m corridors, stacked far apart
    polys = [
        [[0.0, 0.0], [20.0, 0.0], [20.0, 3.0], [0.0, 3.0]],
        [[0.0, 50.0], [20.0, 50.0], [20.0, 53.0], [0.0, 53.0]],
    ]
    m = WalkableMap(polys)
    for seed in range(20):
        start, goal = sample_start_goal(m, np.random.default_rng(seed))
        assert (start[1] < 10) == (goal[1] < 10)


def test_map_too_small():
    m = generate_synthetic_map("corridor", 5.0, 3.0)
    with pytest.raises(MapTooSmallError):
        sample_start_goal(m, np.random.default_rng(0))


def test_is_reachable_open_corridor(corridor):
    assert is_reachable(corridor, (1.0, 1.5), (19.0, 1.5), ())


def test_is_reachable_blocked_corridor(corridor):
    wall = Obstacle(kind="cuboid", x=10.0, y=1.5, half_w=0.3, half_h=1.6)
    assert not is_reachable(corridor, (1.0, 1.5), (19.0, 1.5), [wall])


def test_is_reachable_agrees_with_fine_oracle():
    from sidewalksim.world import populate_obstacles

    mismatches = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        m = generate_synthetic_map("corridor", 16.0, float(rng.uniform(2.5, 4.0)),
                                   seed=seed)
        obstacles = populate_obstacles(m, float(rng.uniform(0, 8)), rng)
        a = m.sample_walkable_point(rng)
        b = m.sample_walkable_point(rng)
        coarse = is_reachable(m, a, b, obstacles)
        fine = fine_grid_reachable(m, a, b, obstacles)
        mismatches += coarse != fine
    assert mismatches <= 2  # grid quantization may flip borderline gaps


# -- waypoints -----------------------------------------------------------------


def test_waypoint_advance_within_radius():
    route = WaypointRoute([(0.0, 0.0), (5.0, 0.0), (10.0, 0.0)])
    advance_waypoint(route, 1.9, 0.0)
    assert route.current_index == 1


def test_waypoint_no_advance_outside_radius():
    route = WaypointRoute([(0.0, 0.0), (5.0, 0.0)])
    advance_waypoint(route, 2.1, 0.0)
    assert route.current_index == 0


def test_waypoint_double_advance():
    route = WaypointRoute([(0.0, 0.0), (1.0, 0.0), (6.0, 0.0)])
    advance_waypoint(route, 0.5, 0.0)  # within 2 m of both first waypoints
    assert route.current_index == 2


def test_waypoint_never_past_last():
    route = WaypointRoute([(0.0, 0.0), (1.0, 0.0)])
    advance_waypoint(route, 1.0, 0.0)
    assert route.current_index == 1
    advance_waypoint(route, 1.0, 0.0)
    assert route.current_index == 1


def test_waypoint_route_episode_runs():
    m = generate_synthetic_map("corridor", 30.0, 3.5)
    cfg = make_config(m, seed=4, start=(1.0, 1.75, 0.0),
                      waypoints=[(8.0, 1.75), (16.0, 1.75), (24.0, 1.75)])
    ep = Episode(cfg)
    ep.reset()
    policy = ConstantPolicy(0.2, 0.0)
    policy.reset(ep.context())
    indices = []
    for _ in range(150):
        out = ep.step(policy.act(None))
        indices.append(ep.route.current_index)
        if out.terminal:
            break
    assert out.terminal == "success"
    assert indices == sorted(indices)  # non-decreasing
    assert ep.route.current_index == 2


def test_patched_gps_constants_make_the_realistic_goal_exact(monkeypatch):
    # the GPS model reads the module constants when an episode resets, so
    # noise and latency switched off there reach every realistic observation
    monkeypatch.setattr(sensors, "GPS_SIGMA_POS", 0.0)
    monkeypatch.setattr(sensors, "GPS_LATENCY_STEPS", 0)
    m = generate_synthetic_map("corridor", 30.0, 3.5)
    cfg = make_config(m, seed=4, obs_mode="realistic", start=(1.0, 1.75, 0.0),
                      waypoints=[(8.0, 1.75), (16.0, 1.75), (24.0, 1.75)])
    ep = Episode(cfg)
    obs = ep.reset()
    steps = 0
    while True:
        exact = sensors.compute_gdd(ep.world.agent, ep.current_target())
        assert obs.realistic.goal == exact, f"step {steps}"
        out = ep.step(Action(0.2, 0.0))
        obs = out.observation
        steps += 1
        if out.terminal:
            break
    assert out.terminal == "success" and steps > 100


# -- stepping ------------------------------------------------------------------


def test_step_terminal_priority_success_wins(corridor):
    # straight step off the top edge lands 0.28 m from the goal: the agent is
    # simultaneously at the goal and off the sidewalk; success must win
    cfg = make_config(corridor, seed=1, start=(18.7, 2.95, math.pi / 2),
                      waypoints=[(18.9, 2.95)])
    ep = Episode(cfg)
    ep.reset()
    out = ep.step(Action(0.2, 0.0))
    assert not corridor.is_walkable(ep.world.agent.x, ep.world.agent.y)
    assert out.terminal == "success"
    assert out.reward.success == 10.0
    assert out.reward.termination == 0.0


def test_step_timeout_at_max_steps(corridor):
    cfg = make_config(corridor, seed=2, max_steps=20)
    ep = Episode(cfg)
    ep.reset()
    terminal = None
    for i in range(20):
        out = ep.step(Action(0.0, 0.0))
        terminal = out.terminal
    assert terminal == "timeout"
    assert out.reward.termination == -10.0


def test_step_after_terminal_raises(corridor):
    cfg = make_config(corridor, seed=2, max_steps=5)
    ep = Episode(cfg)
    ep.reset()
    for _ in range(5):
        out = ep.step(Action(0.0, 0.0))
    assert out.terminal == "timeout"
    with pytest.raises(EpisodeTerminatedError):
        ep.step(Action(0.0, 0.0))


def test_episode_length_never_exceeds_max(corridor):
    for seed in range(5):
        cfg = make_config(corridor, seed=seed, obstacle_density=4.0)
        ep = Episode(cfg)
        result = run_episode(ep, ConstantPolicy(0.05, 0.1))
        assert result.steps <= cfg.max_steps


def test_telescoping_approach_sum(corridor_long):
    for seed in range(5):
        cfg = make_config(corridor_long, seed=seed, obstacle_density=3.0)
        ep = Episode(cfg)
        ep.reset()
        rng = np.random.default_rng(seed)
        d_first = math.hypot(ep.goal[0] - ep.world.agent.x,
                             ep.goal[1] - ep.world.agent.y)
        approach_sum = 0.0
        for _ in range(150):
            out = ep.step(Action(float(rng.uniform(-0.1, 0.2)),
                                 float(rng.uniform(-0.9, 0.9))))
            approach_sum += out.reward.approach
            if out.terminal:
                break
        d_last = math.hypot(ep.goal[0] - ep.world.agent.x,
                            ep.goal[1] - ep.world.agent.y)
        assert approach_sum == pytest.approx(d_first - d_last, abs=1e-9)


def test_step_outcome_determinism(corridor_long):
    def run():
        cfg = make_config(corridor_long, seed=33, obstacle_density=5.0, obs_mode="none")
        ep = Episode(cfg)
        ep.reset()
        rng = np.random.default_rng(77)
        rows = []
        for _ in range(80):
            out = ep.step(Action(float(rng.uniform(-0.1, 0.2)),
                                 float(rng.uniform(-0.9, 0.9))))
            rows.append((tuple(ep.log_rows[-1]["pose"]), out.reward.total, out.terminal))
            if out.terminal:
                break
        return rows

    assert run() == run()


# log headers carry the config, and criterion 7 compares logs byte for byte
FULL_CONFIG_JSON = (
    '{"map": {"version": 1, "origin": [0.0, 0.0], "polygons": '
    '[[[0.0, 3.0], [0.0, 0.0], [20.0, 0.0], [20.0, 3.0]]], "bounds": [0.0, 0.0, 20.0, 3.0]}, '
    '"seed": 5, "obstacle_density": 2.5, "pedestrian_fraction": 0.25, "max_steps": 90, '
    '"obs_mode": "both", "render_bev": false, "waypoints": [[4.0, 1.5], [12.0, 1.5]], '
    '"start": [1.0, 1.5, 0.25]}')


def full_config(wmap):
    """Every field away from its default."""
    return EpisodeConfig(map=wmap, seed=5, obstacle_density=2.5, pedestrian_fraction=0.25,
                         max_steps=90, obs_mode="both", render_bev=False,
                         waypoints=[(4.0, 1.5), (12.0, 1.5)], start=(1.0, 1.5, 0.25))


def test_config_round_trip(corridor):
    for cfg in (make_config(corridor, seed=5, obstacle_density=2.5, pedestrian_fraction=0.3),
                full_config(corridor)):
        back = EpisodeConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        for f in dataclasses.fields(EpisodeConfig):
            got, want = getattr(back, f.name), getattr(cfg, f.name)
            assert got == want and type(got) is type(want), f.name
    assert json.dumps(full_config(corridor).to_dict()) == FULL_CONFIG_JSON


def test_config_from_dict_coerces_types_and_defaults_a_missing_optional(corridor):
    d = full_config(corridor).to_dict()
    d.update(seed=5.0, obstacle_density=2, max_steps=90.0, render_bev=0)
    del d["start"], d["waypoints"]  # a route is given whole or not at all
    back = EpisodeConfig.from_dict(d)
    assert (back.seed, back.obstacle_density, back.max_steps,
            back.render_bev, back.start, back.waypoints) == (5, 2.0, 90, False, None, None)
    assert [type(v) for v in (back.seed, back.obstacle_density, back.max_steps,
                              back.render_bev)] == [int, float, int, bool]


@pytest.mark.parametrize("route", [{"start": (2.0, 1.5, 0.0)},
                                   {"start": (2.0, 1.5, 0.0), "waypoints": []},
                                   {"waypoints": [(20.0, 1.5)]}],
                         ids=["start_only", "start_and_empty_waypoints", "waypoints_only"])
def test_config_rejects_a_half_given_route(corridor, route):
    with pytest.raises(ValueError, match="start and waypoints"):
        EpisodeConfig(map=corridor, **route)


@pytest.mark.parametrize("field, value", [
    ("obstacle_density", -1.0), ("obstacle_density", MAX_OBSTACLE_DENSITY + 0.5),
    ("obstacle_density", 1e300), ("obstacle_density", math.nan),
    ("pedestrian_fraction", -0.1), ("pedestrian_fraction", 1.5),
    ("pedestrian_fraction", math.nan), ("pedestrian_fraction", math.inf),
])
def test_config_rejects_a_density_or_fraction_out_of_range(corridor, field, value):
    with pytest.raises(ValueError, match=field):
        EpisodeConfig(map=corridor, **{field: value})


def test_config_accepts_the_range_bounds(corridor):
    for density, fraction in ((0.0, 0.0), (MAX_OBSTACLE_DENSITY, 1.0)):
        EpisodeConfig(map=corridor, obstacle_density=density, pedestrian_fraction=fraction)


def test_observation_modes(corridor_long):
    for mode, has_priv, has_real in [("privileged", True, False),
                                     ("realistic", False, True),
                                     ("both", True, True),
                                     ("none", False, False)]:
        cfg = make_config(corridor_long, seed=3, obs_mode=mode)
        obs = Episode(cfg).reset()
        assert (obs.privileged is not None) == has_priv
        assert (obs.realistic is not None) == has_real


def test_bev_rendered_when_enabled(corridor_long):
    cfg = EpisodeConfig(map=corridor_long, seed=3, obs_mode="privileged",
                        render_bev=True)
    obs = Episode(cfg).reset()
    assert obs.privileged.bev is not None
    assert obs.privileged.bev.shape == (4, 128, 128)
    assert obs.privileged.lidar.shape == (64,)


def test_realistic_lidar_capped(corridor_long):
    cfg = make_config(corridor_long, seed=3, obs_mode="realistic")
    obs = Episode(cfg).reset()
    assert obs.realistic.lidar.shape == (272,)
    assert float(obs.realistic.lidar.max()) <= 6.0


def test_pedestrian_episode_runs(corridor_long):
    cfg = make_config(corridor_long, seed=9, obstacle_density=4.0,
                      pedestrian_fraction=0.5)
    ep = Episode(cfg)
    ep.reset()
    assert any(o.is_pedestrian for o in ep.world.obstacles)
    for _ in range(30):
        out = ep.step(Action(0.05, 0.1))
        if out.terminal:
            break
    # determinism holds with moving obstacles
    ep2 = Episode(cfg)
    ep2.reset()
    for _ in range(ep.world.step_count):
        out2 = ep2.step(Action(0.05, 0.1))
    assert ep2.world.agent.x == ep.world.agent.x
    assert [(o.x, o.y) for o in ep2.world.obstacles] == \
           [(o.x, o.y) for o in ep.world.obstacles]


@pytest.mark.parametrize("mode", OBS_MODES)
def test_a_pedestrian_free_episode_builds_its_obstacle_tables_in_reset_only(
        monkeypatch, corridor_long, mode):
    # so no timed step pays for the build, in `none` mode as in the sensing ones
    builds = []
    build = world.ObstacleTables
    monkeypatch.setattr(world, "ObstacleTables",
                        lambda obstacles: builds.append(1) or build(obstacles))
    ep = Episode(make_config(corridor_long, seed=4, obstacle_density=4.0, obs_mode=mode,
                             render_bev=True))
    ep.reset()
    assert ep.world.obstacles and not ep.world.pedestrians
    assert len(builds) == 1
    builds.clear()
    for _ in range(25):
        if ep.step(Action(0.1, 0.05)).terminal:
            break
    assert ep.world.step_count > 5
    assert builds == []
