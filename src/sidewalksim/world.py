"""Per-episode mutable world state: agent pose, obstacles, kinematic stepping."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Optional

import numpy as np

from . import _ckernel
from .geometry import normalize_angle, oriented_rects_offsets, point_oriented_rect_distance
from .walkmap import WalkableMap

SPEED_MIN = -0.10   # meters per step, backward
SPEED_MAX = 0.20    # meters per step, forward
YAW_LIMIT = 0.9425  # radians per step, ~54 degrees

AGENT_RADIUS = 0.35  # agent footprint, roughly half a quadruped body length

OBSTACLE_SIZE_RANGE = (0.15, 0.5)   # cylinder radius / cuboid half-extent, meters
START_CLEARANCE = 1.5               # obstacle-free disc kept around episode start

PEDESTRIAN_SPEED = 0.12       # meters per step
PEDESTRIAN_RESEED_PERIOD = 25  # steps between heading re-draws
PEDESTRIAN_LOOKAHEAD = 1.0     # meters ahead a re-drawn heading must stay walkable
PEDESTRIAN_HEADING_TRIES = 8   # heading draws before keeping the last one


@dataclass
class Action:
    """One control step; components clamp to their bounds on construction."""

    speed: float
    yaw_delta: float

    def __post_init__(self):
        self.speed = min(max(float(self.speed), SPEED_MIN), SPEED_MAX)
        self.yaw_delta = min(max(float(self.yaw_delta), -YAW_LIMIT), YAW_LIMIT)


@dataclass
class AgentState:
    x: float
    y: float
    heading: float

    def __post_init__(self):
        self.heading = normalize_angle(self.heading)


@dataclass
class Obstacle:
    """Cylinder or cuboid footprint, optionally drifting like a pedestrian."""

    kind: str  # "cylinder" | "cuboid"
    x: float
    y: float
    radius: float = 0.0          # cylinder
    half_w: float = 0.0          # cuboid
    half_h: float = 0.0
    yaw: float = 0.0
    speed: float = 0.0           # > 0 makes it a pedestrian
    heading: float = 0.0
    reseed_period: int = 0

    @property
    def is_pedestrian(self) -> bool:
        return self.speed > 0.0

    @property
    def reach(self) -> float:
        """Bounding radius: the footprint lies in the disc of this radius at (x, y)."""
        if self.kind == "cylinder":
            return self.radius
        return math.hypot(self.half_w, self.half_h)

    def to_dict(self) -> dict:
        # not dataclasses.asdict, whose recursive deep copy is several times
        # slower; this runs for every obstacle on every episode reset
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def covers(self, px, py, margin: float = 0.0):
        """Elementwise: is each point within `margin` of the footprint?

        The footprint test behind the BEV frame (margin 0) and the planner's
        inflated occupancy grid; `contains` stays a separate scalar oracle.
        """
        dx = px - self.x
        dy = py - self.y
        if self.kind == "cylinder":
            reach = self.radius + margin
            return dx * dx + dy * dy <= reach * reach
        oc, osn = math.cos(self.yaw), math.sin(self.yaw)
        lx = dx * oc + dy * osn
        ly = -dx * osn + dy * oc
        # gap outside the box along each local axis; a nonzero gap squares to a
        # nonzero value, so margin 0 is exactly |lx| <= half_w & |ly| <= half_h
        ex = np.maximum(np.abs(lx) - self.half_w, 0.0)
        ey = np.maximum(np.abs(ly) - self.half_h, 0.0)
        return ex * ex + ey * ey <= margin * margin

    def contains(self, px: float, py: float) -> bool:
        if self.kind == "cylinder":
            dx, dy = px - self.x, py - self.y
            return dx * dx + dy * dy <= self.radius * self.radius
        return point_oriented_rect_distance(px, py, self.x, self.y,
                                            self.half_w, self.half_h, self.yaw) == 0.0

    def distance_to(self, px: float, py: float) -> float:
        """Distance from a point to the obstacle boundary (0 inside)."""
        if self.kind == "cylinder":
            return max(0.0, math.hypot(px - self.x, py - self.y) - self.radius)
        return point_oriented_rect_distance(px, py, self.x, self.y,
                                            self.half_w, self.half_h, self.yaw)


class CollisionReport(NamedTuple):
    hit: bool
    obstacle_id: Optional[int]


@dataclass
class WorldState:
    agent: AgentState
    obstacles: list[Obstacle]
    map: WalkableMap
    rng: np.random.Generator
    step_count: int = 0
    # the pedestrians among the obstacles, in obstacle order: pedestrian status
    # is fixed once the obstacles are populated
    pedestrians: list[Obstacle] = field(init=False, repr=False, compare=False)
    tables: ObstacleTables = field(init=False, repr=False, compare=False)
    # names the tables under the key the benchmark tracer reads
    _obstacle_cache: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.pedestrians = [ob for ob in self.obstacles if ob.is_pedestrian]
        self.tables = ObstacleTables(self.obstacles)
        self._obstacle_cache = {"arrays": self.tables}

    def obstacle_arrays(self):
        """(circle centers+radii (C,3), rect segment rows (S,4)) of the
        world's tables, which pedestrians rewrite in place as they move."""
        return self.tables.circles, self.tables.rect_segments

    def obstacles_near(self, x: float, y: float, margin: float, closed: bool):
        """Ascending indices of the obstacles whose bounding disc, grown by
        `margin`, holds (x, y): in its interior, or also on its circle when
        `closed`. The broad phase of collision_check and of the raycast's
        origin test.

        Answered by first_disc_holding (_walkmap.c) when the kernels load,
        else by the numpy broad phase, which yields the same indices.
        """
        bounds = self.tables.bounds
        kernels = _ckernel.load()
        if kernels is None:
            dx = bounds[:, 0] - x
            dy = bounds[:, 1] - y
            d2 = dx * dx + dy * dy
            reach2 = (bounds[:, 2] + margin) ** 2
            yield from np.nonzero(d2 <= reach2 if closed else d2 < reach2)[0].tolist()
            return
        n = len(bounds)
        i = kernels.first_disc_holding(x, y, margin, closed, bounds, 0)
        while i < n:
            yield i
            i = kernels.first_disc_holding(x, y, margin, closed, bounds, i + 1)


class ObstacleTables:
    """A world's obstacles as C-contiguous float64 tables, built once.

    `bounds` holds every obstacle's row and the other tables copy theirs from
    it. Pedestrian steps rewrite the pedestrians' rows in place, so the
    arrays stay the same for the world's life.
    """

    def __init__(self, obstacles):
        is_rect = np.array([ob.kind != "cylinder" for ob in obstacles], dtype=bool)
        self._moving = np.array([ob.is_pedestrian for ob in obstacles], dtype=bool)
        self._circle_rows, self._rect_rows = np.flatnonzero(~is_rect), np.flatnonzero(is_rect)
        # cos, sin and hypot (in reach) come from math, as in the scalar code,
        # because numpy's may round differently
        self.bounds = np.array([(ob.x, ob.y, ob.reach) for ob in obstacles],
                               dtype=float).reshape(-1, 3)  # x, y, reach of each obstacle
        shapes = np.array([(ob.half_w, ob.half_h, math.cos(ob.yaw), math.sin(ob.yaw))
                           for ob in obstacles if ob.kind != "cylinder"], dtype=float)
        corners = oriented_rects_offsets(*shapes.reshape(-1, 4).T)
        # each cuboid's sides, CCW from corner k to k + 1, relative to its centre
        self._side_offsets = np.concatenate([corners, corners[:, [1, 2, 3, 0]]], axis=2)
        self.circles = np.empty((len(self._circle_rows), 3))  # x, y, radius of each cylinder
        self.rect_segments = np.empty((4 * len(self._rect_rows), 4))  # (x1, y1, x2, y2) per side
        self.rect_bounds = np.empty((len(self._rect_rows), 3))  # the cuboids' rows of bounds
        self._write(np.ones(len(obstacles), dtype=bool))

    def move_pedestrians(self, pedestrians):
        """Rewrite the rows of `pedestrians`, the moving obstacles in obstacle
        order, at their positions."""
        self.bounds[self._moving, :2] = [(ob.x, ob.y) for ob in pedestrians]
        self._write(self._moving)

    def _write(self, mask):
        # copy the rows of bounds under `mask` into the other tables; a
        # cylinder's reach is its radius
        in_circles = mask[self._circle_rows]
        self.circles[in_circles] = self.bounds[self._circle_rows[in_circles]]
        in_rects = mask[self._rect_rows]
        rects = self.bounds[self._rect_rows[in_rects]]
        self.rect_bounds[in_rects] = rects
        self.rect_segments.reshape(-1, 4, 4)[in_rects] = (self._side_offsets[in_rects]
                                                          + rects[:, None, [0, 1, 0, 1]])


def populate_obstacles(wmap: WalkableMap, density: float, rng: np.random.Generator,
                       pedestrian_fraction: float = 0.0,
                       keep_clear=()) -> list[Obstacle]:
    """Scatter obstacles on walkable area at `density` per 100 m^2.

    Shapes alternate cylinder/cuboid. `keep_clear` is a sequence of (x, y)
    points around which a clearance disc stays empty.
    """
    if density < 0.0:
        raise ValueError("density must be >= 0")
    count = round(wmap.walkable_area() * density / 100.0)
    if count <= 0:
        return []
    obstacles: list[Obstacle] = []
    attempts = 0
    max_attempts = 200 * count
    while len(obstacles) < count and attempts < max_attempts:
        attempts += 1
        x, y = wmap.sample_walkable_point(rng)
        if any(math.hypot(x - cx, y - cy) < START_CLEARANCE for cx, cy in keep_clear):
            continue
        idx = len(obstacles)
        size = float(rng.uniform(*OBSTACLE_SIZE_RANGE))
        if idx % 2 == 0:
            ob = Obstacle(kind="cylinder", x=x, y=y, radius=size)
        else:
            size2 = float(rng.uniform(*OBSTACLE_SIZE_RANGE))
            yaw = float(rng.uniform(-math.pi, math.pi))
            ob = Obstacle(kind="cuboid", x=x, y=y, half_w=size, half_h=size2, yaw=yaw)
        if pedestrian_fraction > 0.0 and rng.uniform() < pedestrian_fraction:
            ob.speed = PEDESTRIAN_SPEED
            ob.heading = float(rng.uniform(-math.pi, math.pi))
            ob.reseed_period = PEDESTRIAN_RESEED_PERIOD
        obstacles.append(ob)
    return obstacles


def step_dynamics(state: WorldState, action: Action) -> WorldState:
    """Advance agent and pedestrians one step in place; rotate then translate."""
    agent = state.agent
    agent.heading = normalize_angle(agent.heading + action.yaw_delta)
    agent.x += action.speed * math.cos(agent.heading)
    agent.y += action.speed * math.sin(agent.heading)

    for ob in state.pedestrians:
        if ob.reseed_period > 0 and state.step_count % ob.reseed_period == 0:
            ob.heading = _walkable_heading(state, ob)
        nx = ob.x + ob.speed * math.cos(ob.heading)
        ny = ob.y + ob.speed * math.sin(ob.heading)
        if state.map.is_walkable(nx, ny):
            ob.x, ob.y = nx, ny
    if state.pedestrians:
        state.tables.move_pedestrians(state.pedestrians)
    state.step_count += 1
    return state


def _walkable_heading(state: WorldState, ob: Obstacle) -> float:
    """Random heading whose lookahead point stays walkable, if one is found."""
    heading = ob.heading
    for _ in range(PEDESTRIAN_HEADING_TRIES):
        heading = float(state.rng.uniform(-math.pi, math.pi))
        if state.map.is_walkable(ob.x + PEDESTRIAN_LOOKAHEAD * math.cos(heading),
                                 ob.y + PEDESTRIAN_LOOKAHEAD * math.sin(heading)):
            break
    return heading


def collision_check(state: WorldState) -> CollisionReport:
    """Exact agent-disc vs obstacle-footprint intersection test."""
    agent = state.agent
    r = AGENT_RADIUS
    # cheap reject on bounding discs before the exact per-shape test
    for idx in state.obstacles_near(agent.x, agent.y, r, closed=False):
        if state.obstacles[idx].distance_to(agent.x, agent.y) < r:
            return CollisionReport(True, idx)
    return CollisionReport(False, None)


def on_sidewalk(state: WorldState) -> bool:
    """True iff the agent center is inside the walkable area."""
    return state.map.is_walkable(state.agent.x, state.agent.y)
