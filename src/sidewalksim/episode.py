"""Episode mechanics: start/goal sampling, rewards, termination, step loop."""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional

import numpy as np

from . import sensors
from .errors import EpisodeTerminatedError, MapTooSmallError, NoPathError
from .gridnav import DistanceField, dijkstra_distances, free_space_grid, map_components
from .walkmap import WalkableMap
from .world import (
    AGENT_RADIUS,
    Action,
    AgentState,
    WorldState,
    collision_check,
    on_sidewalk,
    populate_obstacles,
    step_dynamics,
)

REWARD_SUCCESS = 10.0
REWARD_TERMINATION = -10.0
REWARD_LIFE = -0.01

MAX_STEPS = 150
SUCCESS_RADIUS = 0.5
GOAL_DISTANCE_RANGE = (10.0, 15.0)
WAYPOINT_ADVANCE_RADIUS = 2.0
MAX_GEODESIC = 23.0  # meters of path to the goal at most, so tasks stay winnable within MAX_STEPS
PLAN_INFLATE = AGENT_RADIUS + 0.18  # the plan's obstacle inflation: agent radius + steering margin

START_GOAL_MAX_TRIES = 200
# obstacles per 100 m^2 at most: far above every density in use (5 and 8 in the
# suites), and low enough that populate_obstacles stays bounded
MAX_OBSTACLE_DENSITY = 100.0

OBS_MODES = ("privileged", "realistic", "both", "none")


class RewardBreakdown(NamedTuple):
    success: float
    termination: float
    approach: float
    life: float
    total: float


def compute_reward(d_prev: float, d_curr: float, terminal: Optional[str]) -> RewardBreakdown:
    """Four-term step reward; approach is the raw drop in goal distance."""
    r_success = REWARD_SUCCESS if terminal == "success" else 0.0
    r_term = REWARD_TERMINATION if terminal in ("collision", "sidewalk_violation", "timeout") else 0.0
    r_approach = d_prev - d_curr
    r_life = REWARD_LIFE
    return RewardBreakdown(r_success, r_term, r_approach, r_life,
                           r_success + r_term + r_approach + r_life)


@dataclass
class WaypointRoute:
    waypoints: list[tuple[float, float]]
    current_index: int = 0

    @property
    def current(self) -> tuple[float, float]:
        return self.waypoints[self.current_index]

    @property
    def on_last(self) -> bool:
        return self.current_index == len(self.waypoints) - 1


def advance_waypoint(route: WaypointRoute, x: float, y: float) -> WaypointRoute:
    """Advance past every waypoint within the advance radius, never past the last."""
    while not route.on_last:
        wx, wy = route.current
        if math.hypot(x - wx, y - wy) <= WAYPOINT_ADVANCE_RADIUS:
            route.current_index += 1
        else:
            break
    return route


@dataclass
class EpisodeConfig:
    map: WalkableMap
    seed: int = 0
    obstacle_density: float = 0.0      # per 100 m^2
    pedestrian_fraction: float = 0.0
    max_steps: int = MAX_STEPS
    obs_mode: str = "privileged"
    render_bev: bool = True            # only meaningful for privileged modes
    waypoints: Optional[list[tuple[float, float]]] = None
    start: Optional[tuple[float, float, float]] = None  # (x, y, heading) override

    def __post_init__(self):
        if not 0.0 <= self.obstacle_density <= MAX_OBSTACLE_DENSITY:  # NaN fails too
            raise ValueError(f"obstacle_density must be in [0, {MAX_OBSTACLE_DENSITY:g}], "
                             f"not {self.obstacle_density!r}")
        if not 0.0 <= self.pedestrian_fraction <= 1.0:
            raise ValueError(f"pedestrian_fraction must be in [0, 1], "
                             f"not {self.pedestrian_fraction!r}")
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")
        if self.obs_mode not in OBS_MODES:
            raise ValueError(f"obs_mode must be one of {OBS_MODES}")
        if (self.start is None) != (not self.waypoints):
            raise ValueError("start and waypoints are given together or not at all")
        points = [(self.start, 3)] if self.start is not None else []
        for point, n in points + [(w, 2) for w in self.waypoints or ()]:
            if not (isinstance(point, (tuple, list)) and len(point) == n
                    and all(isinstance(v, numbers.Real) for v in point)):
                raise ValueError(f"{point!r} is not {n} numbers: start is (x, y, heading), "
                                 "a waypoint (x, y)")

    def to_dict(self) -> dict:
        """Every field in declaration order, JSON-ready: the map as its dict,
        tuples as lists."""
        d = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, WalkableMap):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            d[f.name] = value
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "EpisodeConfig":
        """Inverse of to_dict; an Optional field may be missing and reads as None.

        Keys that name no field are ignored, so logs written when the config
        had more fields still read."""
        kwargs = {}
        for f in fields(cls):
            value = d.get(f.name) if f.type.startswith("Optional[") else d[f.name]
            kwargs[f.name] = _FIELD_READERS[f.type](value)
        return cls(**kwargs)


# how from_dict reads a JSON value, by the annotation of the EpisodeConfig field
_FIELD_READERS = {
    "WalkableMap": WalkableMap.from_dict,
    "int": int,
    "float": float,
    "bool": bool,
    "str": str,
    "Optional[list[tuple[float, float]]]": lambda v: [tuple(w) for w in v] if v else None,
    "Optional[tuple[float, float, float]]": lambda v: tuple(v) if v else None,
}


@dataclass
class StepOutcome:
    observation: sensors.Observation
    reward: RewardBreakdown
    terminal: Optional[str]


def plan_route(wmap: WalkableMap, obstacles, goal) -> DistanceField:
    """Free space at PLAN_INFLATE and meters to the goal's cell (all inf if it is blocked)."""
    grid = free_space_grid(wmap, obstacles, inflate=PLAN_INFLATE)
    return DistanceField(grid, dijkstra_distances(grid, grid.cell_of(goal[0], goal[1])), goal)


@dataclass
class EpisodeContext:
    """Ground-truth episode description handed to policies at reset."""

    map: WalkableMap
    start: tuple[float, float, float]
    goal: tuple[float, float]
    plan: DistanceField


class EpisodeResult(NamedTuple):
    outcome: str
    reward_total: float
    steps: int


def sample_start_goal(wmap: WalkableMap, rng: np.random.Generator):
    """Walkable start pose and goal point, separation in GOAL_DISTANCE_RANGE, connected.

    Raises MapTooSmallError when no admissible pair is found within the retry
    budget.
    """
    lo, hi = GOAL_DISTANCE_RANGE
    components = map_components(wmap)
    grid = components.grid
    for _ in range(START_GOAL_MAX_TRIES):
        sx, sy = wmap.sample_walkable_point(rng)
        heading = float(rng.uniform(-math.pi, math.pi))
        r = float(rng.uniform(lo, hi))
        phi = float(rng.uniform(-math.pi, math.pi))
        gx = sx + r * math.cos(phi)
        gy = sy + r * math.sin(phi)
        if not wmap.is_walkable(gx, gy):
            continue
        if not (lo <= math.hypot(gx - sx, gy - sy) <= hi):
            continue  # guard against rounding at the range endpoints
        if not components.connected(grid.cell_of(sx, sy), grid.cell_of(gx, gy)):
            continue
        return (sx, sy, heading), (gx, gy)
    raise MapTooSmallError(
        f"no start/goal pair with separation in [{lo}, {hi}] m found in "
        f"{START_GOAL_MAX_TRIES} tries"
    )


def episode_seed(root_seed: int, index: int) -> int:
    """Deterministic per-episode seed, independent of execution order."""
    return int(np.random.SeedSequence(entropy=root_seed, spawn_key=(index,)).generate_state(1)[0])


class Episode:
    """One seeded navigation episode over a walkable map."""

    def __init__(self, config: EpisodeConfig):
        self.config = config
        self.world: Optional[WorldState] = None
        self.start_pose: Optional[tuple[float, float, float]] = None
        self.initial_obstacles: list[dict] = []
        self.goal: Optional[tuple[float, float]] = None
        self.route: Optional[WaypointRoute] = None
        self.plan: Optional[DistanceField] = None
        self.terminal: Optional[str] = None
        # earlier BEV frames, most recent first
        self._bev_history = deque(maxlen=sensors.BEV_STACK - 1)
        self._gps: Optional[sensors.GpsNoiseModel] = None
        self._d_last = 0.0
        self.log_rows: list[dict] = []
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> sensors.Observation:
        cfg = self.config
        seeds = np.random.SeedSequence(cfg.seed).spawn(3)
        sample_rng = np.random.default_rng(seeds[0])
        world_rng = np.random.default_rng(seeds[1])
        gps_rng = np.random.default_rng(seeds[2])

        if cfg.start is not None:
            start = cfg.start
            self.route = WaypointRoute(list(cfg.waypoints))
            goal = tuple(cfg.waypoints[-1])
            obstacles = populate_obstacles(
                cfg.map, cfg.obstacle_density, sample_rng,
                pedestrian_fraction=cfg.pedestrian_fraction,
                keep_clear=[(start[0], start[1])],
            )
            self.plan = plan_route(cfg.map, obstacles, goal)
        else:
            self.route = None
            start, goal, obstacles, self.plan = self._sample_layout(sample_rng)

        agent = AgentState(start[0], start[1], start[2])
        self.world = WorldState(agent=agent, obstacles=obstacles, map=cfg.map, rng=world_rng)
        self.start_pose = (agent.x, agent.y, agent.heading)
        self.initial_obstacles = [ob.to_dict() for ob in obstacles]
        self.goal = goal
        self.terminal = None
        self._bev_history.clear()
        self._gps = sensors.GpsNoiseModel(rng=gps_rng)
        self._d_last = self._target_distance()
        self.log_rows = []
        self._started = True
        return self._render()

    def _sample_layout(self, rng: np.random.Generator):
        cfg = self.config
        for _ in range(20):
            start, goal = sample_start_goal(cfg.map, rng)
            for _ in range(10):
                obstacles = populate_obstacles(
                    cfg.map, cfg.obstacle_density, rng,
                    pedestrian_fraction=cfg.pedestrian_fraction,
                    keep_clear=[(start[0], start[1])],
                )
                plan = plan_route(cfg.map, obstacles, goal)
                # reachable within the step budget; an unreachable or off-grid start reads inf
                if plan.value_at_cell(*plan.grid.cell_of(start[0], start[1])) <= MAX_GEODESIC:
                    return start, goal, obstacles, plan
        raise MapTooSmallError("could not place obstacles while keeping the goal reachable")

    def context(self) -> EpisodeContext:
        if not self._started:
            raise RuntimeError("reset() must run before context()")
        return EpisodeContext(map=self.config.map, start=self.start_pose, goal=self.goal,
                              plan=self.plan)

    # -- stepping ----------------------------------------------------------

    def current_target(self) -> tuple[float, float]:
        if self.route is not None:
            return self.route.current
        return self.goal

    def _target_distance(self) -> float:
        a = self.world.agent
        tx, ty = self.current_target()
        return math.hypot(tx - a.x, ty - a.y)

    def step(self, action: Action) -> StepOutcome:
        if self.terminal is not None:
            raise EpisodeTerminatedError("step() on a terminated episode")
        if not self._started:
            raise RuntimeError("reset() must run before step()")
        cfg = self.config
        action = Action(action.speed, action.yaw_delta)
        d_prev = self._d_last
        step_dynamics(self.world, action)
        agent = self.world.agent
        d_curr = self._target_distance()

        goal_dist = math.hypot(self.goal[0] - agent.x, self.goal[1] - agent.y)
        at_goal = goal_dist < SUCCESS_RADIUS
        if self.route is not None:
            at_goal = at_goal and self.route.on_last
        if at_goal:
            terminal = "success"
        elif collision_check(self.world).hit:
            terminal = "collision"
        elif not on_sidewalk(self.world):
            terminal = "sidewalk_violation"
        elif self.world.step_count >= cfg.max_steps:
            terminal = "timeout"
        else:
            terminal = None

        reward = compute_reward(d_prev, d_curr, terminal)
        self.terminal = terminal
        if self.route is not None and terminal is None:
            advance_waypoint(self.route, agent.x, agent.y)
        self._d_last = self._target_distance()

        obs = self._render()
        self.log_rows.append({
            "t": self.world.step_count,
            "pose": [agent.x, agent.y, agent.heading],
            "action": [action.speed, action.yaw_delta],
            "reward": {"s": reward.success, "t": reward.termination,
                       "a": reward.approach, "l": reward.life},
            "terminal": terminal,
            "goal": list(self.current_target()),
        })
        return StepOutcome(observation=obs, reward=reward, terminal=terminal)

    # -- rendering ---------------------------------------------------------

    def _render(self) -> sensors.Observation:
        cfg = self.config
        mode = cfg.obs_mode
        priv = None
        real = None
        if mode in ("privileged", "both"):
            bev = None
            if cfg.render_bev:
                bev = sensors.render_bev(self.world, self._bev_history)
                self._bev_history.appendleft(bev[0])
            blid = sensors.raycast(self.world, sensors.PRIVILEGED_LIDAR_RAYS,
                                   sensors.PRIVILEGED_LIDAR_MAX_RANGE)
            gdd = sensors.compute_gdd(self.world.agent, self.current_target())
            a = self.world.agent
            priv = sensors.PrivilegedObs(bev=bev, lidar=blid, goal=gdd,
                                         pose=(a.x, a.y, a.heading))
        if mode in ("realistic", "both"):
            rlid = sensors.raycast(self.world, sensors.REALISTIC_LIDAR_RAYS,
                                   sensors.REALISTIC_LIDAR_MAX_RANGE)
            rgdd = sensors.compute_gdd(self.world.agent, self.current_target(), self._gps)
            real = sensors.RealisticObs(lidar=rlid, goal=rgdd)
        return sensors.Observation(privileged=priv, realistic=real)


def run_episode(episode: Episode, policy) -> EpisodeResult:
    """Drive one episode with a policy; returns the outcome summary.

    A policy that loses its route (NoPathError) aborts the episode, which is
    then scored as a timeout failure.
    """
    obs = episode.reset()
    total = 0.0
    outcome = "timeout"
    try:
        policy.reset(episode.context())
        for _ in range(episode.config.max_steps):
            out = episode.step(policy.act(obs))
            obs = out.observation
            total += out.reward.total
            if out.terminal is not None:
                outcome = out.terminal
                break
    except NoPathError:
        episode.terminal = "timeout"
    return EpisodeResult(outcome=outcome, reward_total=total, steps=episode.world.step_count)
