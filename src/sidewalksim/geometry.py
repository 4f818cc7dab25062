"""Planar geometry primitives: polygon tests, ray intersections, polyline buffering.

Everything works in local metric coordinates (meters). Scalar and vectorized
variants of the point-in-polygon test use the exact same arithmetic expression
so that indexed queries and brute-force oracles agree bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def normalize_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    r = math.remainder(a, TWO_PI)
    if r <= -math.pi:
        r += TWO_PI
    return r


def polygon_area(vertices) -> float:
    """Absolute shoelace area of a simple polygon given as an (N, 2) sequence."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    s = np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)
    return abs(s) / 2.0


def point_in_polygon(x: float, y: float, vertices) -> bool:
    """Even-odd crossing test, half-open edge rule.

    A point exactly on a right-hand boundary is classified outside; the
    vectorized twin below replicates the same comparisons elementwise.
    """
    inside = False
    n = len(vertices)
    ax, ay = vertices[n - 1]
    for i in range(n):
        bx, by = vertices[i]
        if (ay <= y) != (by <= y):
            t = (y - ay) / (by - ay)
            if x < ax + t * (bx - ax):
                inside = not inside
        ax, ay = bx, by
    return inside


def points_in_polygon(px: np.ndarray, py: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Vectorized even-odd test over many points; same edge rule as the scalar form."""
    inside = np.zeros(px.shape, dtype=bool)
    n = len(vertices)
    ax, ay = vertices[n - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(n):
            bx, by = vertices[i]
            crossing = (ay <= py) != (by <= py)
            if crossing.any():
                t = (py - ay) / (by - ay)
                inside ^= crossing & (px < ax + t * (bx - ax))
            ax, ay = bx, by
    return inside


def ray_circle_t(ox, oy, dx, dy, cx, cy, r):
    """Distance along the ray to the closed disc; 0 when the origin is inside.

    Unit direction assumed. Accepts scalars or broadcastable arrays; returns
    inf where the ray misses.
    """
    fx = np.asarray(ox) - cx
    fy = np.asarray(oy) - cy
    b = fx * dx + fy * dy
    c = fx * fx + fy * fy - np.asarray(r) ** 2
    disc = b * b - c
    sq = np.sqrt(np.maximum(disc, 0.0))
    t_near = -b - sq
    t = np.where(t_near >= 0.0, t_near, np.inf)
    t = np.where(c <= 0.0, 0.0, t)  # on or inside the disc already
    return np.where(disc >= 0.0, t, np.inf)


def rays_segments_t(ox: float, oy: float, dirs: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """Intersection parameters for R rays against S segments.

    dirs: (R, 2) unit directions from a common origin.
    segments: (S, 4) rows (x1, y1, x2, y2).
    Returns (R, S) ray parameters t >= 0, inf where there is no hit with
    segment parameter s in [0, 1]. Parallel (including collinear) pairs miss.
    """
    if segments.size == 0:
        return np.full((dirs.shape[0], 0), np.inf)
    ex = segments[:, 2] - segments[:, 0]
    ey = segments[:, 3] - segments[:, 1]
    fx = segments[:, 0] - ox
    fy = segments[:, 1] - oy
    dxs = dirs[:, 0:1]
    dys = dirs[:, 1:2]
    denom = dxs * ey - dys * ex  # (R, S)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (fx * ey - fy * ex) / denom
        s = (fx * dys - fy * dxs) / denom
    ok = (denom != 0.0) & (t >= 0.0) & (s >= 0.0) & (s <= 1.0)
    return np.where(ok, t, np.inf)


def point_oriented_rect_distance(px, py, cx, cy, half_w, half_h, yaw):
    """Distance from a point to a rotated rectangle (0 inside)."""
    c, s = math.cos(yaw), math.sin(yaw)
    dx, dy = px - cx, py - cy
    lx = dx * c + dy * s
    ly = -dx * s + dy * c
    qx = min(max(lx, -half_w), half_w)
    qy = min(max(ly, -half_h), half_h)
    return math.hypot(lx - qx, ly - qy)


def oriented_rect_corners(cx, cy, half_w, half_h, yaw) -> np.ndarray:
    """Corners of a rotated rectangle, CCW order, as a (4, 2) array."""
    c, s = math.cos(yaw), math.sin(yaw)
    local = np.array(
        [[-half_w, -half_h], [half_w, -half_h], [half_w, half_h], [-half_w, half_h]]
    )
    rot = np.array([[c, -s], [s, c]])
    return local @ rot.T + np.array([cx, cy])


def oriented_rects_offsets(half_w, half_h, cos_yaw, sin_yaw) -> np.ndarray:
    """Corners of R rotated rectangles relative to their centres, CCW, as an
    (R, 4, 2) array, from (R,) arrays of half-extents and of each yaw's cosine
    and sine.

    Computes every rectangle with the same stacked matmul as
    oriented_rect_corners, so adding a centre gives its corners bit for bit
    (an expanded lx*c - ly*s does not: BLAS may fuse it).
    """
    n = len(half_w)
    local = np.empty((n, 4, 2))
    local[:, 0, 0] = local[:, 3, 0] = -half_w
    local[:, 1, 0] = local[:, 2, 0] = half_w
    local[:, 0, 1] = local[:, 1, 1] = -half_h
    local[:, 2, 1] = local[:, 3, 1] = half_h
    rot = np.empty((n, 2, 2))
    rot[:, 0, 0] = rot[:, 1, 1] = cos_yaw
    rot[:, 0, 1] = -sin_yaw
    rot[:, 1, 0] = sin_yaw
    return local @ rot.transpose(0, 2, 1)


def _unit(vx, vy):
    n = math.hypot(vx, vy)
    return vx / n, vy / n


def buffer_polyline(vertices, width: float) -> list[np.ndarray]:
    """Buffer a polyline into simple polygons covering a band of the given width.

    Each segment becomes a flat-capped rectangle; every interior vertex gets a
    miter wedge whose tip is clamped to twice the half-width, so sharp turns
    degrade to a blunt quad instead of a self-intersecting spike. The pieces
    overlap and are meant for union-at-query-time semantics.
    """
    pts = [(float(x), float(y)) for x, y in vertices]
    if len(pts) < 2:
        raise ValueError("polyline needs at least 2 vertices")
    h = width / 2.0
    if h <= 0.0:
        raise ValueError("width must be positive")

    polys: list[np.ndarray] = []
    normals = []
    tangents = []
    for (x1, y1), (x2, y2) in zip(pts[:-1], pts[1:]):
        if x1 == x2 and y1 == y2:
            raise ValueError("degenerate zero-length segment")
        ux, uy = _unit(x2 - x1, y2 - y1)
        tangents.append((ux, uy))
        nx, ny = -uy, ux  # left normal
        normals.append((nx, ny))
        polys.append(
            np.array(
                [
                    [x1 + nx * h, y1 + ny * h],
                    [x1 - nx * h, y1 - ny * h],
                    [x2 - nx * h, y2 - ny * h],
                    [x2 + nx * h, y2 + ny * h],
                ]
            )
        )

    # Miter wedges at interior vertices fill the gap the turn opens on the
    # outer side between consecutive rectangles.
    for i in range(1, len(pts) - 1):
        u1x, u1y = tangents[i - 1]
        u2x, u2y = tangents[i]
        turn = u1x * u2y - u1y * u2x
        if abs(turn) < 1e-12:
            continue  # collinear continuation or exact U-turn: no gap to fill
        sign = -1.0 if turn > 0.0 else 1.0  # left turn opens a gap on the right
        n1x, n1y = normals[i - 1]
        n2x, n2y = normals[i]
        vx, vy = pts[i]
        bis_x, bis_y = sign * (n1x + n2x), sign * (n1y + n2y)
        blen = math.hypot(bis_x, bis_y)
        dot = max(min(n1x * n2x + n1y * n2y, 1.0), -1.0)
        miter_len = min(h * math.sqrt(2.0 / (1.0 + dot)), 2.0 * h)
        mx = vx + bis_x / blen * miter_len
        my = vy + bis_y / blen * miter_len
        wedge = np.array(
            [
                [vx, vy],
                [vx + sign * n1x * h, vy + sign * n1y * h],
                [mx, my],
                [vx + sign * n2x * h, vy + sign * n2y * h],
            ]
        )
        if polygon_area(wedge) > 1e-12:
            polys.append(wedge)
    return polys
