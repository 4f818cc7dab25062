"""Walkable-area maps: the union of buffered sidewalk polygons.

Every point query, compiled or not, has one algorithm: each polygon whose
closed bbox holds the point gets the even-odd test of
geometry.point_in_polygon.

A WalkableMap is immutable after construction. Coordinates are quantized to
1e-6 m at construction so that the JSON cache round-trips losslessly.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import _ckernel, geometry
from .errors import GeometryError, MapFormatError

MAP_SCHEMA_VERSION = 1

SIDEWALK_WIDTH_RANGE = (2.0, 5.0)  # meters, uniform sampling range

SAMPLE_MAX_TRIES = 200  # bbox draws before sample_walkable_point gives up
NAV_RESOLUTION = 0.25  # meters per cell of the map raster: area estimate and planning grids


class SidewalkNetwork:
    """Centerline polylines with per-polyline widths, in local meters."""

    def __init__(self, polylines):
        self.polylines = []
        for verts, width in polylines:
            verts = [(float(x), float(y)) for x, y in verts]
            if len(verts) < 2:
                raise GeometryError("polyline needs at least 2 vertices")
            for a, b in zip(verts[:-1], verts[1:]):
                if a == b:
                    raise GeometryError("consecutive duplicate vertices in polyline")
            self.polylines.append((verts, float(width)))

    def __len__(self):
        return len(self.polylines)


class WalkableMap:
    """Union of simple polygons."""

    def __init__(self, polygons, origin=(0.0, 0.0)):
        quantized = []
        for poly in polygons:
            arr = np.round(np.asarray(poly, dtype=float), 6)
            if arr.ndim != 2 or arr.shape[0] < 3 or arr.shape[1] != 2:
                raise MapFormatError("polygon must be an (N>=3, 2) vertex list")
            if not np.isfinite(arr).all():
                raise GeometryError("polygon has non-finite vertices")
            arr.setflags(write=False)
            quantized.append(arr)
        if not quantized:
            raise GeometryError("map needs at least one polygon")
        self.polygons = quantized
        self.origin = (float(origin[0]), float(origin[1]))

        allv = np.vstack(self.polygons)
        self.bounds = (
            float(allv[:, 0].min()),
            float(allv[:, 1].min()),
            float(allv[:, 0].max()),
            float(allv[:, 1].max()),
        )
        # the tables the C kernels read: bboxes, rows (minx, miny, maxx, maxy);
        # edges, rows (ax, ay, bx, by), of which polygon p owns rows
        # edge_start[p] to edge_start[p + 1] - 1
        self.bboxes = np.array(
            [
                [p[:, 0].min(), p[:, 1].min(), p[:, 0].max(), p[:, 1].max()]
                for p in self.polygons
            ]
        )
        self.edges = np.vstack([np.hstack([p, np.roll(p, -1, axis=0)]) for p in self.polygons])
        self.edge_start = np.cumsum([0] + [len(p) for p in self.polygons], dtype=np.int64)
        areas = np.array([geometry.polygon_area(p) for p in self.polygons])
        total = areas.sum()
        # the table Generator.choice(p=areas / total) builds on every call
        self._area_cdf = None
        if total > 0:
            self._area_cdf = (areas / total).cumsum()
            self._area_cdf /= self._area_cdf[-1]
        self._raster = None  # cell_centers_inside, built on first use
        self._components = None  # gridnav.map_components, built on first use

    def is_walkable(self, x: float, y: float) -> bool:
        """True iff the point lies inside at least one polygon.

        Answered by point_walkable (_walkmap.c) when the kernels load, else
        by the bbox loop, which classifies every point alike.
        """
        kernels = _ckernel.load()
        if kernels is None:
            return self._is_walkable_python(x, y)
        return kernels.point_walkable(x, y, self.edges, self.edge_start, self.bboxes)

    def _is_walkable_python(self, x: float, y: float) -> bool:
        """Pure-Python fallback for the compiled kernel, and its reference: the
        even-odd test on each polygon whose closed bbox holds the point.

        NaN or inf coordinates fail every bbox comparison, so they are inside
        no polygon, as in the kernel.
        """
        return any(geometry.point_in_polygon(x, y, self.polygons[pid])
                   for pid in self.polygons_in_region(x, y, x, y))

    def polygons_in_region(self, minx, miny, maxx, maxy) -> list[int]:
        """Ids of polygons whose bbox intersects the query box."""
        b = self.bboxes
        hit = (b[:, 0] <= maxx) & (b[:, 2] >= minx) & (b[:, 1] <= maxy) & (b[:, 3] >= miny)
        return list(np.nonzero(hit)[0])

    def contains_points(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """Vectorized union membership for many points.

        Uses the same per-polygon arithmetic as is_walkable, so the two paths
        classify identically.
        """
        polygon_ids = self.polygons_in_region(float(px.min()), float(py.min()),
                                              float(px.max()), float(py.max()))
        inside = np.zeros(px.shape, dtype=bool)
        for pid in polygon_ids:
            bx0, by0, bx1, by1 = self.bboxes[pid]
            box = (px >= bx0) & (px <= bx1) & (py >= by0) & (py <= by1) & ~inside
            if not box.any():
                continue
            sub = geometry.points_in_polygon(px[box], py[box], self.polygons[pid])
            inside[box] |= sub
        return inside

    def edges_near(self, x: float, y: float, radius: float):
        """Every edge (E, 4) of each polygon whose bbox meets the box of
        half-side `radius` around (x, y), in edge-table order, as the compiled
        raycast walks them."""
        b = self.bboxes
        near = (
            (b[:, 0] <= x + radius)
            & (b[:, 2] >= x - radius)
            & (b[:, 1] <= y + radius)
            & (b[:, 3] >= y - radius)
        )
        return self.edges[np.repeat(near, np.diff(self.edge_start))]

    def sample_walkable_point(self, rng) -> tuple[float, float]:
        """Uniform-ish walkable point: area-weighted polygon, then bbox rejection.

        A candidate is tested against the drawn polygon only, by the compiled
        membership kernel on that polygon's rows of the edge table when one
        can be built, else by geometry.point_in_polygon.
        """
        cdf = self._area_cdf
        if cdf is None:
            raise GeometryError("map has no area to sample from")
        kernels = _ckernel.load()
        for _ in range(SAMPLE_MAX_TRIES):
            # the polygon rng.choice(n, p=areas / total) picks, from the same draw
            pid = int(cdf.searchsorted(rng.random(), side="right"))
            bx0, by0, bx1, by1 = self.bboxes[pid]
            x = float(rng.uniform(bx0, bx1))
            y = float(rng.uniform(by0, by1))
            if kernels is None:
                inside = geometry.point_in_polygon(x, y, self.polygons[pid])
            else:
                inside = kernels.point_walkable(x, y, self.edges, self.edge_start, self.bboxes,
                                                pid)
            if inside:
                return (x, y)
        raise GeometryError("failed to sample a walkable point")

    def cell_centers_inside(self) -> np.ndarray:
        """Read-only (ny, nx) union membership of the centers of the square
        cells of side NAV_RESOLUTION that tile the bounds from (minx, miny);
        computed once."""
        inside = self._raster
        if inside is None:
            minx, miny, maxx, maxy = self.bounds
            nx = max(1, int(math.ceil((maxx - minx) / NAV_RESOLUTION)))
            ny = max(1, int(math.ceil((maxy - miny) / NAV_RESOLUTION)))
            xs = minx + (np.arange(nx) + 0.5) * NAV_RESOLUTION
            ys = miny + (np.arange(ny) + 0.5) * NAV_RESOLUTION
            gx, gy = np.meshgrid(xs, ys)
            inside = self.contains_points(gx.ravel(), gy.ravel()).reshape(ny, nx)
            inside.setflags(write=False)
            self._raster = inside
        return inside

    def walkable_area(self) -> float:
        """Union area estimated by counting walkable cell centers."""
        return float(self.cell_centers_inside().sum()) * NAV_RESOLUTION * NAV_RESOLUTION

    def to_dict(self) -> dict:
        return {
            "version": MAP_SCHEMA_VERSION,
            "origin": [self.origin[0], self.origin[1]],
            "polygons": [[[float(x), float(y)] for x, y in p] for p in self.polygons],
            "bounds": list(self.bounds),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WalkableMap":
        if not isinstance(data, dict):
            raise MapFormatError(f"map file holds a JSON {type(data).__name__}, not an object")
        if data.get("version") != MAP_SCHEMA_VERSION:
            raise MapFormatError(
                f"unsupported map version {data.get('version')!r}, expected {MAP_SCHEMA_VERSION}"
            )
        # a "cell_size", which older map files carry, is ignored
        for key in ("origin", "polygons", "bounds"):
            if key not in data:
                raise MapFormatError(f"map file missing field {key!r}")
        polys = data["polygons"]
        if not isinstance(polys, list) or not polys:
            raise MapFormatError("polygons must be a non-empty list")
        for p in polys:
            if not isinstance(p, list) or len(p) < 3:
                raise MapFormatError("polygon that is not a list of at least 3 vertices")
        origin = data["origin"]
        if not (isinstance(origin, list) and len(origin) == 2
                and all(isinstance(v, (int, float)) for v in origin)):
            raise MapFormatError(f"origin {origin!r} is not a [lat, lon] pair of numbers")
        return cls(polys, origin=tuple(origin))

    def __eq__(self, other):
        if not isinstance(other, WalkableMap):
            return NotImplemented
        return (
            self.origin == other.origin
            and self.bounds == other.bounds
            and len(self.polygons) == len(other.polygons)
            and all(np.array_equal(a, b) for a, b in zip(self.polygons, other.polygons))
        )


def build_walkable_map(net: SidewalkNetwork, origin=(0.0, 0.0)) -> WalkableMap:
    """Buffer every polyline of the network and index the resulting polygons."""
    if len(net) == 0:
        raise GeometryError("empty sidewalk network")
    polygons = []
    for verts, width in net.polylines:
        try:
            polygons.extend(geometry.buffer_polyline(verts, width))
        except ValueError as exc:
            raise GeometryError(str(exc)) from exc
    return WalkableMap(polygons, origin=origin)


def generate_synthetic_map(kind: str, length: float, width: float | None = None,
                           seed: int = 0) -> WalkableMap:
    """Deterministic test maps: straight corridor, L-shape, or street grid.

    width=None draws per-polyline widths from the sidewalk range with the
    given seed; an explicit width is used verbatim.
    """
    if length <= 0.0 or (width is not None and width <= 0.0):
        raise GeometryError("length and width must be positive")
    rng = np.random.default_rng(seed)

    def next_width() -> float:
        if width is not None:
            return width
        return float(rng.uniform(*SIDEWALK_WIDTH_RANGE))

    if kind == "corridor":
        cw = next_width()
        lines = [([(0.0, cw / 2.0), (length, cw / 2.0)], cw)]
    elif kind == "L-shape":
        cw = next_width()
        lines = [([(0.0, 0.0), (length, 0.0), (length, length)], cw)]
    elif kind == "grid":
        # three streets each way spanning a square block layout
        lines = []
        for frac in (0.0, 0.5, 1.0):
            y = frac * length
            lines.append(([(0.0, y), (length, y)], next_width()))
            x = frac * length
            lines.append(([(x, 0.0), (x, length)], next_width()))
    else:
        raise GeometryError(f"unknown synthetic map kind {kind!r}")
    return build_walkable_map(SidewalkNetwork(lines))


def save_map(wmap: WalkableMap, path) -> None:
    with open(path, "w") as f:
        json.dump(wmap.to_dict(), f, separators=(",", ":"))
        f.write("\n")


def load_map(path) -> WalkableMap:
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise MapFormatError(f"invalid JSON in map file: {exc}") from exc
    return WalkableMap.from_dict(data)
