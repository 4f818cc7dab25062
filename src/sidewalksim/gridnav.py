"""The planning grid: free-space rasters at NAV_RESOLUTION, connectivity,
Dijkstra fields and the descent walk over them."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import _ckernel
from .errors import NoPathError
from .walkmap import NAV_RESOLUTION, WalkableMap

NEAR_RINGS = 2  # cells searched around the agent for a finite field value


@dataclass
class OccupancyGrid:
    """Boolean free-space raster over the map bounds at NAV_RESOLUTION; True = traversable."""

    free: np.ndarray       # (ny, nx)
    minx: float
    miny: float

    @property
    def shape(self):
        return self.free.shape

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        """(row, col) of the containing cell; may be out of bounds."""
        col = int(math.floor((x - self.minx) / NAV_RESOLUTION))
        row = int(math.floor((y - self.miny) / NAV_RESOLUTION))
        return row, col

    def in_bounds(self, row: int, col: int) -> bool:
        ny, nx = self.free.shape
        return 0 <= row < ny and 0 <= col < nx

    def center_of(self, row: int, col: int) -> tuple[float, float]:
        return (self.minx + (col + 0.5) * NAV_RESOLUTION,
                self.miny + (row + 0.5) * NAV_RESOLUTION)


def free_space_grid(wmap: WalkableMap, obstacles=(), inflate: float = 0.0) -> OccupancyGrid:
    """Rasterize walkable-minus-obstacles at NAV_RESOLUTION, inflating obstacle
    footprints by `inflate`.

    The walkable raster is the map's cached one; obstacles are stamped onto a
    copy, so callers may modify the returned grid. The stamping runs in
    stamp_obstacles (_gridnav.c) when the kernels load, else in
    _stamp_obstacles_numpy, which clears the same cells.
    """
    minx, miny = wmap.bounds[0], wmap.bounds[1]
    free = wmap.cell_centers_inside().copy()
    if len(obstacles):
        kernels = _ckernel.load()
        if kernels is None:
            _stamp_obstacles_numpy(free, minx, miny, obstacles, inflate)
        else:
            # reach keeps Python's hypot, and the cosine and sine are math's
            rows = np.array([(ob.x, ob.y, ob.reach, ob.kind != "cylinder", ob.radius, ob.half_w,
                              ob.half_h, math.cos(ob.yaw), math.sin(ob.yaw))
                             for ob in obstacles], dtype=float)
            kernels.stamp_obstacles(free, rows, minx, miny, NAV_RESOLUTION, inflate)
    return OccupancyGrid(free=free, minx=minx, miny=miny)


def _stamp_obstacles_numpy(free: np.ndarray, minx: float, miny: float, obstacles,
                           inflate: float) -> None:
    """Pure-Python fallback for the compiled stamping, and its reference: clear
    the cells of `free` whose centres an obstacle covers, grown by `inflate`,
    within the obstacle's cell window."""
    ny, nx = free.shape
    xs = minx + (np.arange(nx) + 0.5) * NAV_RESOLUTION
    ys = miny + (np.arange(ny) + 0.5) * NAV_RESOLUTION
    for ob in obstacles:
        reach = ob.reach + inflate
        c0 = max(0, int((ob.x - reach - minx) / NAV_RESOLUTION) - 1)
        c1 = min(nx, int((ob.x + reach - minx) / NAV_RESOLUTION) + 2)
        r0 = max(0, int((ob.y - reach - miny) / NAV_RESOLUTION) - 1)
        r1 = min(ny, int((ob.y + reach - miny) / NAV_RESOLUTION) + 2)
        if c0 < c1 and r0 < r1:
            free[r0:r1, c0:c1] &= ~ob.covers(xs[None, c0:c1], ys[r0:r1, None], inflate)


def line_of_sight(grid: OccupancyGrid, x0: float, y0: float, x1: float, y1: float) -> bool:
    """True when the segment crosses only free cells (sampled at 1/3 cell)."""
    dx, dy = x1 - x0, y1 - y0
    dist = math.sqrt(dx * dx + dy * dy)  # not hypot: see _gridnav.c
    free = grid.free
    ny, nx = free.shape
    n = max(1, int(math.ceil(dist / (NAV_RESOLUTION / 3.0))))
    for i in range(n + 1):
        t = i / n
        x = x0 + t * dx
        y = y0 + t * dy
        col = int(math.floor((x - grid.minx) / NAV_RESOLUTION))
        row = int(math.floor((y - grid.miny) / NAV_RESOLUTION))
        if not (0 <= row < ny and 0 <= col < nx) or not free[row, col]:
            return False
    return True


def eroded(grid: OccupancyGrid) -> OccupancyGrid:
    """Grid with one cell of boundary margin shaved off the free space: a cell
    stays free when its 3x3 neighbourhood lies in the grid and is all free.
    One pass along the rows, then one along the columns."""
    free = grid.free
    across = np.zeros(free.shape, dtype=bool)
    across[:, 1:-1] = free[:, :-2] & free[:, 1:-1] & free[:, 2:]
    out = np.zeros(free.shape, dtype=bool)
    out[1:-1] = across[:-2] & across[1:-1] & across[2:]
    return OccupancyGrid(free=out, minx=grid.minx, miny=grid.miny)


def bfs_connected(grid: OccupancyGrid, start_cell, goal_cell) -> bool:
    """8-connected reachability of the goal from the start; endpoints must be free cells."""
    if not (grid.in_bounds(*start_cell) and grid.in_bounds(*goal_cell)):
        return False
    free = grid.free
    if not (free[start_cell] and free[goal_cell]):
        return False
    return bool(np.isfinite(_distances(grid, start_cell)[goal_cell]))


@dataclass
class Components:
    """A map's inflate-0 grid with the 8-connected component of each cell."""

    grid: OccupancyGrid
    labels: np.ndarray     # (ny, nx) component id of each free cell; -1 where blocked

    def connected(self, start_cell, goal_cell) -> bool:
        """What bfs_connected(grid, start_cell, goal_cell) returns, by label lookup."""
        grid = self.grid
        if not (grid.in_bounds(*start_cell) and grid.in_bounds(*goal_cell)):
            return False
        label = self.labels[start_cell]
        return bool(label >= 0 and label == self.labels[goal_cell])


def map_components(wmap: WalkableMap) -> Components:
    """The components of the map's free space without obstacles, built once per
    map: one Dijkstra field per component, from its first free cell in raster
    order, labels the cells that field reaches."""
    components = wmap._components
    if components is None:
        grid = free_space_grid(wmap)
        free = grid.free
        labels = np.full(free.shape, -1, dtype=np.int32)
        label = 0
        while True:
            unlabelled = np.flatnonzero(free & (labels < 0))
            if not len(unlabelled):
                break
            source = divmod(int(unlabelled[0]), free.shape[1])
            labels[np.isfinite(_distances(grid, source))] = label
            label += 1
        labels.setflags(write=False)
        components = wmap._components = Components(grid, labels)
    return components


def dijkstra_distances(grid: OccupancyGrid, source_cell) -> np.ndarray:
    """Geodesic meters from every free cell to the source; inf where unreachable.

    8-connected, diagonal moves cost sqrt(2) * NAV_RESOLUTION.
    """
    return _distances(grid, source_cell)


@dataclass
class DistanceField:
    """Geodesic meters-to-goal on an occupancy grid; inf marks blocked cells.
    An episode's plan (episode.plan_route) is one, and the teacher steers on it."""

    grid: OccupancyGrid
    values: np.ndarray           # (ny, nx) meters
    goal: tuple[float, float]

    def value_at_cell(self, row: int, col: int) -> float:
        if not self.grid.in_bounds(row, col):
            return math.inf
        return float(self.values[row, col])

    def _best_neighbor_direction(self, x: float, y: float) -> float:
        row, col = self.grid.cell_of(x, y)
        best = math.inf
        best_dir = None
        for dr in range(-NEAR_RINGS, NEAR_RINGS + 1):
            for dc in range(-NEAR_RINGS, NEAR_RINGS + 1):
                val = self.value_at_cell(row + dr, col + dc)
                if val < best:
                    cx, cy = self.grid.center_of(row + dr, col + dc)
                    d = math.hypot(cx - x, cy - y)
                    if (dr, dc) != (0, 0) or d > 1e-9:
                        best = val
                        best_dir = math.atan2(cy - y, cx - x)
        if best_dir is None or not math.isfinite(best):
            raise NoPathError("no finite distance-field value near the agent")
        return best_dir

    def lookahead_point(self, x: float, y: float, lookahead: float) -> tuple[float, float]:
        """Farthest visible point on the descent path within `lookahead` meters.

        Walks cell-to-cell along the steepest finite descent and keeps the
        last path point with free line of sight from (x, y), so steering at
        it never cuts through blocked cells. Reaching the goal cell snaps to
        the exact goal. From a blocked or off-grid cell, steps one cell
        toward the best nearby cell instead. Raises NoPathError when no
        finite cell is near the agent.

        The walk runs in grid_lookahead (_gridnav.c) when the kernels load,
        else in _lookahead_walk, which returns the same points.
        """
        kernels = _ckernel.load()
        if kernels is None:
            target = self._lookahead_walk(x, y, lookahead)
        else:
            grid = self.grid
            target = kernels.grid_lookahead(x, y, lookahead, self.values, grid.free, grid.minx,
                                            grid.miny, NAV_RESOLUTION, self.goal[0], self.goal[1])
        if target is not None:
            return target
        # blocked or off-grid start: nudge onto the best nearby cell first
        direction = self._best_neighbor_direction(x, y)
        return (x + NAV_RESOLUTION * math.cos(direction),
                y + NAV_RESOLUTION * math.sin(direction))

    def _lookahead_walk(self, x: float, y: float,
                        lookahead: float) -> tuple[float, float] | None:
        """Pure-Python fallback for the compiled walk, and its reference;
        None when the start cell is blocked or off the grid."""
        grid, vals = self.grid, self.values
        row, col = grid.cell_of(x, y)
        if not (grid.in_bounds(row, col) and math.isfinite(vals[row, col])):
            return None
        ny, nx = vals.shape
        px, py = x, y
        travelled = 0.0
        cur = (row, col)
        target = None
        while travelled < lookahead:
            best_val = vals[cur]
            nxt = None
            for dr, dc in _NEIGHBORS8:
                rr, cc = cur[0] + dr, cur[1] + dc
                if 0 <= rr < ny and 0 <= cc < nx and vals[rr, cc] < best_val:
                    best_val = vals[rr, cc]
                    nxt = (rr, cc)
            if nxt is None:
                # local minimum: the goal cell itself
                if target is None or line_of_sight(grid, x, y, self.goal[0], self.goal[1]):
                    return self.goal
                return target
            cx, cy = grid.center_of(*nxt)
            if target is not None and not line_of_sight(grid, x, y, cx, cy):
                break  # path curls out of sight; steer at the last visible point
            target = (cx, cy)
            dx, dy = cx - px, cy - py
            travelled += math.sqrt(dx * dx + dy * dy)  # not hypot: see _gridnav.c
            px, py = cx, cy
            cur = nxt
        return target if target is not None else (px, py)


def _distances(grid: OccupancyGrid, source_cell) -> np.ndarray:
    """The Dijkstra field behind dijkstra_distances, bfs_connected and
    map_components.

    They call this rather than each other, so a wrapper placed on either
    public function sees only the calls made to it.
    """
    kernels = _ckernel.load()
    if kernels is None:
        return _dijkstra_heapq(grid, source_cell)
    free = grid.free
    if not grid.in_bounds(*source_cell) or not free[source_cell]:
        return np.full(free.shape, np.inf)
    dist = np.empty(free.shape)
    kernels.grid_dijkstra(np.ascontiguousarray(free, dtype=bool), int(source_cell[0]),
                          int(source_cell[1]), NAV_RESOLUTION, math.sqrt(2.0) * NAV_RESOLUTION,
                          dist)
    return dist


_NEIGHBORS8 = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]


def _dijkstra_heapq(grid: OccupancyGrid, source_cell) -> np.ndarray:
    """Pure-Python fallback for the compiled kernel, and its reference: identical fields."""
    free = grid.free
    ny, nx = free.shape
    dist = np.full((ny, nx), np.inf)
    if not grid.in_bounds(*source_cell) or not free[source_cell]:
        return dist
    straight = NAV_RESOLUTION
    diagonal = math.sqrt(2.0) * NAV_RESOLUTION
    dist[source_cell] = 0.0
    heap = [(0.0, source_cell[0], source_cell[1])]
    while heap:
        d, r, c = heapq.heappop(heap)
        if d > dist[r, c]:
            continue
        for dr, dc in _NEIGHBORS8:
            rr, cc = r + dr, c + dc
            if 0 <= rr < ny and 0 <= cc < nx and free[rr, cc]:
                nd = d + (diagonal if dr and dc else straight)
                if nd < dist[rr, cc]:
                    dist[rr, cc] = nd
                    heapq.heappush(heap, (nd, rr, cc))
    return dist
