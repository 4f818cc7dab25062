"""Occupancy-grid helpers: free-space rasterization, connectivity, Dijkstra fields."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import _ckernel
from .walkmap import NAV_RESOLUTION, WalkableMap


@dataclass
class OccupancyGrid:
    """Boolean free-space raster over the map bounds; True = traversable."""

    free: np.ndarray       # (ny, nx)
    minx: float
    miny: float
    resolution: float

    @property
    def shape(self):
        return self.free.shape

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        """(row, col) of the containing cell; may be out of bounds."""
        col = int(math.floor((x - self.minx) / self.resolution))
        row = int(math.floor((y - self.miny) / self.resolution))
        return row, col

    def in_bounds(self, row: int, col: int) -> bool:
        ny, nx = self.free.shape
        return 0 <= row < ny and 0 <= col < nx

    def center_of(self, row: int, col: int) -> tuple[float, float]:
        return (self.minx + (col + 0.5) * self.resolution,
                self.miny + (row + 0.5) * self.resolution)


def free_space_grid(wmap: WalkableMap, obstacles=(), inflate: float = 0.0) -> OccupancyGrid:
    """Rasterize walkable-minus-obstacles at NAV_RESOLUTION, inflating obstacle
    footprints by `inflate`.

    The walkable raster is the map's cached one; obstacles are stamped onto a
    copy, so callers may modify the returned grid.
    """
    minx, miny = wmap.bounds[0], wmap.bounds[1]
    free = wmap.cell_centers_inside().copy()
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
    return OccupancyGrid(free=free, minx=minx, miny=miny, resolution=NAV_RESOLUTION)


def line_of_sight(grid: OccupancyGrid, x0: float, y0: float, x1: float, y1: float) -> bool:
    """True when the segment crosses only free cells (sampled at 1/3 cell)."""
    dx, dy = x1 - x0, y1 - y0
    dist = math.sqrt(dx * dx + dy * dy)  # not hypot: see _gridnav.c
    free = grid.free
    ny, nx = free.shape
    n = max(1, int(math.ceil(dist / (grid.resolution / 3.0))))
    for i in range(n + 1):
        t = i / n
        x = x0 + t * dx
        y = y0 + t * dy
        col = int(math.floor((x - grid.minx) / grid.resolution))
        row = int(math.floor((y - grid.miny) / grid.resolution))
        if not (0 <= row < ny and 0 <= col < nx) or not free[row, col]:
            return False
    return True


def eroded(grid: OccupancyGrid) -> OccupancyGrid:
    """Grid with one cell of boundary margin shaved off the free space."""
    padded = np.pad(grid.free, 1, constant_values=False)
    out = grid.free.copy()
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            out &= padded[1 + dr:padded.shape[0] - 1 + dr,
                          1 + dc:padded.shape[1] - 1 + dc]
    return OccupancyGrid(free=out, minx=grid.minx, miny=grid.miny,
                         resolution=grid.resolution)


def bfs_connected(grid: OccupancyGrid, start_cell, goal_cell) -> bool:
    """8-connected reachability of the goal from the start; endpoints must be free cells."""
    if not (grid.in_bounds(*start_cell) and grid.in_bounds(*goal_cell)):
        return False
    free = grid.free
    if not (free[start_cell] and free[goal_cell]):
        return False
    return bool(np.isfinite(_distances(grid, start_cell)[goal_cell]))


def dijkstra_distances(grid: OccupancyGrid, source_cell) -> np.ndarray:
    """Geodesic meters from every free cell to the source; inf where unreachable.

    8-connected, diagonal moves cost sqrt(2) * resolution.
    """
    return _distances(grid, source_cell)


# -- compiled Dijkstra kernel ----------------------------------------------------
#
# _gridnav.c is built and loaded through _ckernel on the first field. When no
# kernel can be built, fields come from _dijkstra_heapq, which returns the same
# values bit for bit, only slower.

# argument kinds: d = double, i = int64, p = pointer (see _ckernel.Kernel)
_KERNEL = _ckernel.Kernel("_gridnav.c", "grid_dijkstra", "piiiiddp", "heapq Dijkstra")


def _distances(grid: OccupancyGrid, source_cell) -> np.ndarray:
    """The Dijkstra field behind dijkstra_distances and bfs_connected.

    Both public functions call this rather than each other, so a wrapper
    placed on either one sees only the calls made to it.
    """
    kernel = _KERNEL.load()
    if kernel is None:
        return _dijkstra_heapq(grid, source_cell)
    free = grid.free
    if not grid.in_bounds(*source_cell) or not free[source_cell]:
        return np.full(free.shape, np.inf)
    cells = np.ascontiguousarray(free, dtype=bool)
    ny, nx = cells.shape
    dist = np.empty((ny, nx))
    if kernel(cells.ctypes.data, ny, nx, int(source_cell[0]), int(source_cell[1]),
              grid.resolution, math.sqrt(2.0) * grid.resolution, dist.ctypes.data):
        raise MemoryError("grid Dijkstra kernel could not allocate its heap")
    return dist


_NEIGHBORS8 = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]


def _dijkstra_heapq(grid: OccupancyGrid, source_cell) -> np.ndarray:
    """Pure-Python fallback for the compiled kernel, and its reference: identical fields."""
    free = grid.free
    ny, nx = free.shape
    dist = np.full((ny, nx), np.inf)
    if not grid.in_bounds(*source_cell) or not free[source_cell]:
        return dist
    straight = grid.resolution
    diagonal = math.sqrt(2.0) * grid.resolution
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
