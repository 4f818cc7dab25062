"""Observation rendering: BEV occupancy stack, simulated LiDAR, goal polar.

All renderers are pure functions of (world, parameters). The BEV and the
point-classification helpers share arithmetic with the scalar map queries so
that vectorized output matches per-point brute force exactly.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import _ckernel, geometry
from .world import WorldState, AgentState

_HAVE_NUMBA = False  # always False; kept because benchmark reports read the name

BEV_SIZE = 128
BEV_EXTENT = 18.0                      # meters covered, agent-centered
BEV_RESOLUTION = BEV_EXTENT / BEV_SIZE  # 0.140625 m per pixel
BEV_STACK = 4                          # current frame + three previous

PRIVILEGED_LIDAR_RAYS = 64
PRIVILEGED_LIDAR_MAX_RANGE = 9.0       # keeps rays informative inside the BEV square
REALISTIC_LIDAR_RAYS = 272
REALISTIC_LIDAR_MAX_RANGE = 6.0

GPS_SIGMA_POS = 0.5      # meters, isotropic noise on the localized position
GPS_LATENCY_STEPS = 3

# body-frame pixel-center offsets: forward along rows (up), rightward along cols
_PIX = np.arange(BEV_SIZE, dtype=float)
_FWD = ((BEV_SIZE / 2.0) - _PIX)[:, None] * BEV_RESOLUTION * np.ones((1, BEV_SIZE))
_RIGHT = (_PIX - (BEV_SIZE / 2.0))[None, :] * BEV_RESOLUTION * np.ones((BEV_SIZE, 1))
# bev_pixel_world_coords' output and scratch, made once: per-frame 128 KiB arrays cost page faults
_WXY = np.empty((3, BEV_SIZE, BEV_SIZE))


class GoalPolar(NamedTuple):
    distance: float
    bearing: float


@dataclass
class PrivilegedObs:
    bev: Optional[np.ndarray]   # (4, 128, 128) uint8, channel 0 = current
    lidar: np.ndarray           # (64,) ranges
    goal: GoalPolar             # exact
    pose: tuple[float, float, float]  # ground-truth (x, y, heading)


@dataclass
class RealisticObs:
    lidar: np.ndarray           # (272,) ranges capped at 6 m
    goal: GoalPolar             # GPS-corrupted


@dataclass
class Observation:
    privileged: Optional[PrivilegedObs] = None
    realistic: Optional[RealisticObs] = None


def bev_pixel_world_coords(agent: AgentState):
    """World coordinates of all pixel centers, heading-up, agent at (64, 64),
    into the first two arrays of _WXY, which the next call overwrites."""
    c, s = math.cos(agent.heading), math.sin(agent.heading)
    wx, wy, t = _WXY
    np.add(np.add(agent.x, np.multiply(_FWD, c, out=wx), out=wx),
           np.multiply(_RIGHT, s, out=t), out=wx)
    np.subtract(np.add(agent.y, np.multiply(_FWD, s, out=wy), out=wy),
                np.multiply(_RIGHT, c, out=t), out=wy)
    return wx, wy


def render_bev_frame(world: WorldState) -> np.ndarray:
    """Current-step binary occupancy frame, (128, 128) uint8."""
    agent = world.agent
    wx, wy = bev_pixel_world_coords(agent)
    good = world.map.contains_points(wx.ravel(), wy.ravel()).reshape(BEV_SIZE, BEV_SIZE)

    c, s = math.cos(agent.heading), math.sin(agent.heading)
    half = BEV_SIZE / 2.0
    for ob in world.obstacles:
        reach = ob.reach
        # pixel window holding the obstacle's bbox: every bbox point lies within
        # reach*sqrt(2) of the center; one extra pixel absorbs rounding
        rx, ry = ob.x - agent.x, ob.y - agent.y
        fwd = (rx * c + ry * s) / BEV_RESOLUTION
        right = (rx * s - ry * c) / BEV_RESOLUTION
        span = reach * math.sqrt(2.0) / BEV_RESOLUTION + 1.0
        r0 = max(0, math.floor(half - fwd - span))
        r1 = min(BEV_SIZE, math.ceil(half - fwd + span) + 1)
        c0 = max(0, math.floor(half + right - span))
        c1 = min(BEV_SIZE, math.ceil(half + right + span) + 1)
        if r0 >= r1 or c0 >= c1:
            continue
        px = wx[r0:r1, c0:c1]
        py = wy[r0:r1, c0:c1]
        window = good[r0:r1, c0:c1]
        # restrict the membership test to pixels inside the obstacle's bbox
        box = ((px >= ob.x - reach) & (px <= ob.x + reach)
               & (py >= ob.y - reach) & (py <= ob.y + reach) & window)
        if box.any():
            window[box] = ~ob.covers(px[box], py[box])
    return good.astype(np.uint8)


def render_bev(world: WorldState, history=None) -> np.ndarray:
    """Stacked BEV (4, 128, 128): current frame plus up to three previous.

    `history` holds earlier frames, most recent first; missing history
    duplicates the current frame (episode start).
    """
    current = render_bev_frame(world)
    frames = [current]
    past = list(history) if history is not None else []
    for i in range(BEV_STACK - 1):
        frames.append(past[i] if i < len(past) else current)
    return np.stack(frames)


_RAY_UNIT_CACHE: dict = {}


def _ray_units(n_rays: int):
    """(2, n_rays) array of cos/sin of the ray offsets."""
    units = _RAY_UNIT_CACHE.get(n_rays)
    if units is None:
        base = 2.0 * math.pi * np.arange(n_rays) / n_rays
        units = _RAY_UNIT_CACHE[n_rays] = np.empty((2, n_rays))
        units[0] = np.cos(base)
        units[1] = np.sin(base)
    return units


def _raycast_numpy(world, ox, oy, ch, sh, units, max_range):
    """Vectorized reference implementation of the union-boundary raycast."""
    n_rays = units.shape[1]
    dirs = np.empty((n_rays, 2))
    dirs[:, 0] = ch * units[0] - sh * units[1]  # cos(heading + base)
    dirs[:, 1] = sh * units[0] + ch * units[1]  # sin(heading + base)
    circles, rect_segs = world.obstacle_arrays()
    edges = world.map.edges_near(ox, oy, max_range)
    n_rect = len(rect_segs)

    # one segment battery covers obstacle rectangles and map edges together
    all_segs = np.vstack([rect_segs, edges]) if n_rect else edges
    seg_t = geometry.rays_segments_t(ox, oy, dirs, all_segs)

    t_cap = np.full(n_rays, float(max_range))
    if n_rect:
        t_cap = np.minimum(t_cap, seg_t[:, :n_rect].min(axis=1))
    if len(circles):
        t_c = geometry.ray_circle_t(
            ox, oy, dirs[:, 0:1], dirs[:, 1:2],
            circles[None, :, 0], circles[None, :, 1], circles[None, :, 2],
        )
        t_cap = np.minimum(t_cap, t_c.min(axis=1))

    crossings = seg_t[:, n_rect:]
    crossings = np.where(crossings <= t_cap[:, None], crossings, np.inf)
    order = np.sort(crossings, axis=1)
    finite = np.isfinite(order)
    n_cross = int(finite.sum(axis=1).max(initial=0)) if finite.size else 0
    order = np.minimum(order[:, :n_cross], t_cap[:, None])

    # probe the midpoint of every inter-crossing interval: [0, t1, ..., tC, cap]
    padded = np.empty((n_rays, n_cross + 2))
    padded[:, 0] = 0.0
    padded[:, 1:n_cross + 1] = order
    padded[:, n_cross + 1] = t_cap
    mids = (padded[:, :-1] + padded[:, 1:]) * 0.5
    px = ox + mids * dirs[:, 0:1]
    py = oy + mids * dirs[:, 1:2]
    blocked = ~world.map.contains_points(px.ravel(), py.ravel()).reshape(mids.shape)
    hit_any = blocked.any(axis=1)
    first = np.argmax(blocked, axis=1)
    t_boundary = np.where(hit_any, padded[np.arange(n_rays), first], np.inf)
    return np.minimum(t_cap, t_boundary)


def raycast(world: WorldState, n_rays: int, max_range: float) -> np.ndarray:
    """Ranges to the nearest obstacle boundary or walkable-area boundary.

    Ray k leaves at heading + 2*pi*k/n_rays. Obstacle surfaces use analytic
    ray-circle / ray-segment intersections; the walkable-union boundary is the
    first inter-crossing interval whose midpoint is not walkable. Ranges clamp
    to max_range. An origin already inside an obstacle or off the walkable
    area reads 0 on every ray.

    The compiled kernel (raycast_loop in _walkmap.c) and the numpy path
    implement the same algorithm with the same arithmetic and return identical
    ranges; the numpy path runs when the kernels do not load.
    """
    if n_rays < 1 or max_range <= 0.0:
        raise ValueError("n_rays >= 1 and max_range > 0 required")
    agent = world.agent
    ox, oy = agent.x, agent.y
    units = _ray_units(n_rays)
    ch, sh = math.cos(agent.heading), math.sin(agent.heading)

    # an origin inside an obstacle lies in its closed bounding disc
    if next(world.obstacles_near(ox, oy, 0.0, closed=True), None) is not None:
        if any(ob.contains(ox, oy) for ob in world.obstacles):
            return np.zeros(n_rays)

    kernels = _ckernel.load()
    if kernels is None:
        return _raycast_numpy(world, ox, oy, ch, sh, units, max_range)
    out = np.empty(n_rays)
    tables, wmap = world.tables, world.map
    kernels.raycast_loop(ox, oy, ch, sh, max_range, units, tables.circles, tables.rect_segments,
                         tables.rect_bounds, wmap.edges, wmap.edge_start, wmap.bboxes, out)
    return out


class GpsNoiseModel:
    """Latency-delayed, Gaussian-corrupted localization of the agent position."""

    def __init__(self, rng: np.random.Generator):
        # read here, not bound as defaults at import, so a patched module
        # constant takes effect on the next model built
        self.sigma = GPS_SIGMA_POS
        self.rng = rng
        self._history: deque = deque(maxlen=GPS_LATENCY_STEPS + 1)

    def localize(self, x: float, y: float) -> tuple[float, float]:
        """Push the true position, return the delayed noisy estimate."""
        self._history.append((x, y))
        dx_, dy_ = self._history[0]  # oldest available, up to GPS_LATENCY_STEPS back
        nx = self.sigma * float(self.rng.standard_normal())
        ny = self.sigma * float(self.rng.standard_normal())
        return (dx_ + nx, dy_ + ny)


def compute_gdd(agent: AgentState, goal: tuple[float, float],
                gps: Optional[GpsNoiseModel] = None) -> GoalPolar:
    """Goal distance and bearing in the agent's polar frame.

    With a GPS model, the agent position is replaced by its delayed noisy
    estimate before the same computation; the heading stays exact.
    """
    ax, ay = agent.x, agent.y
    if gps is not None:
        ax, ay = gps.localize(ax, ay)
    dx = goal[0] - ax
    dy = goal[1] - ay
    dist = math.hypot(dx, dy)
    if dist == 0.0:
        return GoalPolar(0.0, 0.0)
    return GoalPolar(dist, geometry.normalize_angle(math.atan2(dy, dx) - agent.heading))
