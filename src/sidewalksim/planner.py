"""Privileged oracle teacher: local steering on the episode's geodesic
distance field (gridnav.DistanceField).

The teacher stands behind the same Policy interface as any learned student,
so episode and evaluation code never special-cases it.
"""

from __future__ import annotations

import math

import numpy as np

from . import _ckernel
from .errors import NoPathError
from .geometry import TWO_PI, normalize_angle
from .gridnav import (
    NEAR_RINGS,
    DistanceField,
    OccupancyGrid,
    dijkstra_distances,
    eroded as gridnav_eroded,
)
from .sensors import Observation
from .walkmap import WalkableMap
from .world import Action, SPEED_MAX, SPEED_MIN, YAW_LIMIT

CLEARANCE_THRESHOLD = 0.8  # frontal range below which the teacher backs up
CLEARANCE_RELEASE = 1.2    # hysteresis factor: back up until threshold * this
FRONTAL_HALF_ANGLE = math.radians(23.0)
CORRIDOR_HALF_WIDTH = 0.35  # lateral band that counts as "in the way"
TURN_AWAY = 0.35           # extra yaw away from the blocking side while reversing
REAR_MIN_CLEARANCE = 0.3   # backing room required before the reflex may reverse
LOOKAHEAD = 1.2            # meters of descent path the teacher steers toward
GOAL_SNAP_RINGS = 6        # cells searched around a blocked goal for a free one


class Policy:
    """Minimal policy interface: reset per episode, act per step."""

    def reset(self, context) -> None:
        pass

    def act(self, obs: Observation) -> Action:
        raise NotImplementedError


class ConstantPolicy(Policy):
    """Emits a fixed action; useful as an interface smoke test."""

    def __init__(self, speed: float = 0.0, yaw_delta: float = 0.0):
        self.action = Action(speed, yaw_delta)

    def act(self, obs: Observation) -> Action:
        return self.action


def build_distance_field(plan: DistanceField, start) -> DistanceField:
    """The teacher's field over an episode's plan (episode.plan_route): on the
    plan's grid with one extra cell of wall margin, or the plan itself when
    that margin would leave the start disconnected (narrow passages). A plan
    whose goal cell is blocked reads inf everywhere, so the plain field then
    starts from the nearest free cell."""
    grid, goal = plan.grid, plan.goal
    plain = plan
    if math.isinf(plan.value_at_cell(*grid.cell_of(goal[0], goal[1]))):
        plain = _field_on_grid(grid, goal)
        if plain is None:
            raise NoPathError(f"no free cell near goal {goal}")
    safe = _field_on_grid(gridnav_eroded(grid), goal)
    if safe is None:
        return plain
    d_safe = _distance_near(safe, start)
    d_plain = _distance_near(plain, start)
    # take the wall-margin field only when it does not force a real detour
    if math.isfinite(d_safe) and (not math.isfinite(d_plain)
                                  or d_safe <= 1.15 * d_plain + 1.0):
        return safe
    return plain


def _distance_near(field: DistanceField, point) -> float:
    """Smallest start-to-goal estimate over cells within NEAR_RINGS of the point.

    The exact start cell may sit inside the wall margin; the agent can step
    sideways onto the path, so judge connectivity on the neighborhood.
    """
    row, col = field.grid.cell_of(point[0], point[1])
    best = math.inf
    for dr in range(-NEAR_RINGS, NEAR_RINGS + 1):
        for dc in range(-NEAR_RINGS, NEAR_RINGS + 1):
            val = field.value_at_cell(row + dr, col + dc)
            if math.isfinite(val):
                cx, cy = field.grid.center_of(row + dr, col + dc)
                best = min(best, val + math.hypot(cx - point[0], cy - point[1]))
    return best


def _field_on_grid(grid: OccupancyGrid, goal) -> DistanceField | None:
    """Field from the goal's cell, or from the nearest free cell when that one
    is blocked."""
    cell = grid.cell_of(goal[0], goal[1])
    if not (grid.in_bounds(*cell) and grid.free[cell]):
        cell = _nearest_free_cell(grid, cell)
        if cell is None:
            return None
    return DistanceField(grid=grid, values=dijkstra_distances(grid, cell), goal=goal)


def _nearest_free_cell(grid: OccupancyGrid, cell):
    """Free cell within GOAL_SNAP_RINGS of `cell`: innermost square ring first,
    then nearest, then lowest (row, col); None when there is none."""
    span = range(-GOAL_SNAP_RINGS, GOAL_SNAP_RINGS + 1)
    free = [(max(abs(dr), abs(dc)), dr * dr + dc * dc, (cell[0] + dr, cell[1] + dc))
            for dr in span for dc in span
            if (dr or dc) and grid.in_bounds(cell[0] + dr, cell[1] + dc)
            and grid.free[cell[0] + dr, cell[1] + dc]]
    return min(free)[2] if free else None


def corridor_hit(lidar: np.ndarray, bearing: float, half_angle: float) -> tuple[float, float]:
    """(depth, lateral offset) of the nearest lidar hit in the corridor toward a bearing.

    Ray j leaves at 2*pi*j/n from the heading; only rays within `half_angle`
    of `bearing` (relative to the heading) count, and of their hits only those
    less than CORRIDOR_HALF_WIDTH to the side of the bearing: wider ones pass
    by. Depth is measured along the bearing, the offset leftward of it. Ties
    go to the lowest ray index. Returns (inf, 0.0) when the corridor is clear.

    The query runs in corridor_hit (_gridnav.c) when the kernels load, else in
    the loop below, which returns the same pair.
    """
    kernels = _ckernel.load()
    if kernels is not None:
        return kernels.corridor_hit(lidar, bearing, half_angle, CORRIDOR_HALF_WIDTH)
    n = len(lidar)
    # visit only the window of rays that can lie within half_angle, in
    # ascending index order; floor and ceil keep the window a superset of the
    # rays the exact angle test below accepts
    lo = math.floor((bearing - half_angle) * n / TWO_PI)
    hi = math.ceil((bearing + half_angle) * n / TWO_PI)
    if hi - lo + 1 >= n:
        window = range(n)
    else:
        lo %= n
        hi %= n
        window = range(lo, hi + 1) if lo <= hi else [*range(hi + 1), *range(lo, n)]
    ranges = lidar.tolist()  # Python floats index and multiply faster than numpy scalars
    depth, lateral = math.inf, 0.0
    for j in window:
        a = TWO_PI * j / n - bearing
        if a > math.pi:
            a -= TWO_PI
        elif a <= -math.pi:
            a += TWO_PI
        if abs(a) <= half_angle:
            r = ranges[j]
            lat = r * math.sin(a)
            if abs(lat) < CORRIDOR_HALF_WIDTH:
                d = r * math.cos(a)
                if d < depth:
                    depth, lateral = d, lat
    return depth, lateral


def _teacher_step(field: DistanceField, obs: Observation, engaged: bool,
                  wmap: WalkableMap) -> tuple[Action, bool]:
    """Steering core; returns the action and whether the back-up reflex is on.

    Steers toward a line-of-sight lookahead point on the descent path. Speed
    is the maximum scaled by the cosine of the residual misalignment after
    this step's turn, floored at zero. Frontal clearance below the threshold
    switches to reversing while turning away from the blocking side, unless
    the goal itself is closer than the obstruction; hysteresis keeps the
    reflex on until the corridor clears with margin. Steps whose landing
    point would leave the walkable area are vetoed to a pivot.
    """
    x, y, heading = obs.privileged.pose
    gx, gy = field.goal
    goal_dist = math.hypot(gx - x, gy - y)

    homing = False
    if goal_dist <= LOOKAHEAD:
        bearing = normalize_angle(math.atan2(gy - y, gx - x) - heading)
        if corridor_hit(obs.privileged.lidar, bearing, math.pi / 2)[0] > goal_dist:
            homing = True  # the corridor to the goal is empty: go straight in
    if homing:
        tx, ty = gx, gy
    else:
        tx, ty = field.lookahead_point(x, y, min(LOOKAHEAD, max(goal_dist, 0.3)))
        if math.hypot(tx - x, ty - y) < 1e-9:
            tx, ty = gx, gy
    if math.hypot(tx - x, ty - y) < 1e-9:
        return Action(0.0, 0.0), False  # sitting on the goal
    desired = math.atan2(ty - y, tx - x)

    misalign = normalize_angle(desired - heading)
    yaw = min(max(misalign, -YAW_LIMIT), YAW_LIMIT)
    residual = misalign - yaw
    speed = SPEED_MAX * max(math.cos(residual), 0.0)
    if goal_dist < 0.6:
        speed = min(speed, max(0.08, 0.6 * goal_dist))  # tighter final turns

    reflex = False
    lidar = obs.privileged.lidar
    clearance, hit_lat = corridor_hit(lidar, 0.0, FRONTAL_HALF_ANGLE)
    threshold = CLEARANCE_THRESHOLD * (CLEARANCE_RELEASE if engaged else 1.0)
    if clearance < threshold and clearance < goal_dist:
        reflex = True
        speed = SPEED_MIN
        if corridor_hit(lidar, math.pi, FRONTAL_HALF_ANGLE)[0] < REAR_MIN_CLEARANCE:
            speed = 0.0  # no room behind: pivot in place instead
        if abs(misalign) <= TURN_AWAY:
            # path agrees with heading, so the blocker is off-plan
            # (pedestrian, corner graze): bias the turn away from it
            away = TURN_AWAY if hit_lat <= 0.0 else -TURN_AWAY
            yaw = min(max(misalign + away, -YAW_LIMIT), YAW_LIMIT)

    if speed != 0.0:
        nh = normalize_angle(heading + yaw)
        if not wmap.is_walkable(x + speed * math.cos(nh), y + speed * math.sin(nh)):
            speed = 0.0  # landing point would leave the sidewalk: pivot instead
    if speed == 0.0 and yaw == 0.0 and goal_dist > 1e-9:
        # no-op actions deadlock; rotate toward the path until something clears
        yaw = YAW_LIMIT if misalign >= 0.0 else -YAW_LIMIT
    return Action(speed, yaw), reflex


class OracleTeacher(Policy):
    """Geometric stand-in for a learned privileged teacher."""

    def __init__(self):
        self.field: DistanceField | None = None
        self._map: WalkableMap | None = None
        self._engaged = False

    def reset(self, context) -> None:
        self._engaged = False
        self._map = context.map
        if not context.map.is_walkable(context.goal[0], context.goal[1]):
            raise NoPathError(f"goal {context.goal} is not on walkable area")
        self.field = build_distance_field(context.plan,
                                          start=(context.start[0], context.start[1]))

    def act(self, obs: Observation) -> Action:
        if self.field is None:
            raise RuntimeError("reset() must run before act()")
        if obs.privileged is None:
            raise ValueError("oracle teacher needs the privileged observation")
        action, self._engaged = _teacher_step(self.field, obs, engaged=self._engaged,
                                              wmap=self._map)
        return action
