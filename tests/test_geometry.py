import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidewalksim import geometry


def shoelace(poly):
    """Independent area oracle."""
    s = 0.0
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        s += x1 * y2 - x2 * y1
    return abs(s) / 2.0


@given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
def test_normalize_angle_range(a):
    r = geometry.normalize_angle(a)
    assert -math.pi < r <= math.pi
    # same direction
    assert math.isclose(math.cos(r), math.cos(a), abs_tol=1e-12)
    assert math.isclose(math.sin(r), math.sin(a), abs_tol=1e-12)


def test_normalize_angle_pi_maps_to_pi():
    assert geometry.normalize_angle(math.pi) == math.pi
    assert geometry.normalize_angle(-math.pi) == math.pi
    assert geometry.normalize_angle(3 * math.pi) == pytest.approx(math.pi)


def test_polygon_area_square():
    sq = [[0, 0], [2, 0], [2, 2], [0, 2]]
    assert geometry.polygon_area(sq) == pytest.approx(4.0)
    assert geometry.polygon_area(sq) == pytest.approx(shoelace(sq))


def test_point_in_polygon_basic():
    sq = [[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]]
    assert geometry.point_in_polygon(1.0, 1.0, sq)
    assert not geometry.point_in_polygon(3.0, 1.0, sq)
    assert not geometry.point_in_polygon(-0.1, 1.0, sq)


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=10_000))
def test_points_in_polygon_matches_scalar(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    ang = np.sort(rng.uniform(0, 2 * math.pi, n))
    rad = rng.uniform(0.5, 3.0, n)
    poly = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    px = rng.uniform(-3.5, 3.5, 64)
    py = rng.uniform(-3.5, 3.5, 64)
    vec = geometry.points_in_polygon(px, py, poly)
    for i in range(len(px)):
        assert vec[i] == geometry.point_in_polygon(px[i], py[i], poly)


def test_ray_circle_hit_and_miss():
    # circle of radius 1 centered 3 ahead on +x
    t = geometry.ray_circle_t(0.0, 0.0, 1.0, 0.0, 3.0, 0.0, 1.0)
    assert float(t) == pytest.approx(2.0)
    t = geometry.ray_circle_t(0.0, 0.0, 0.0, 1.0, 3.0, 0.0, 1.0)
    assert np.isinf(t)
    # behind
    t = geometry.ray_circle_t(0.0, 0.0, -1.0, 0.0, 3.0, 0.0, 1.0)
    assert np.isinf(t)


def test_ray_circle_origin_inside_is_zero():
    t = geometry.ray_circle_t(3.0, 0.2, 1.0, 0.0, 3.0, 0.0, 1.0)
    assert float(t) == 0.0


def test_rays_segments_t():
    dirs = np.array([[1.0, 0.0], [0.0, 1.0]])
    segs = np.array([[2.0, -1.0, 2.0, 1.0]])  # vertical segment at x=2
    t = geometry.rays_segments_t(0.0, 0.0, dirs, segs)
    assert t[0, 0] == pytest.approx(2.0)
    assert np.isinf(t[1, 0])


def test_rays_segments_parallel_misses():
    dirs = np.array([[1.0, 0.0]])
    segs = np.array([[0.0, 1.0, 5.0, 1.0]])  # parallel above the ray
    t = geometry.rays_segments_t(0.0, 0.0, dirs, segs)
    assert np.isinf(t[0, 0])


def test_point_oriented_rect_distance():
    # axis-aligned 1x1 rect at origin
    assert geometry.point_oriented_rect_distance(2.0, 0.0, 0.0, 0.0, 0.5, 0.5, 0.0) == pytest.approx(1.5)
    assert geometry.point_oriented_rect_distance(0.2, 0.1, 0.0, 0.0, 0.5, 0.5, 0.0) == 0.0
    # rotate 45 degrees: corner now points along +x at sqrt(0.5)
    d = geometry.point_oriented_rect_distance(1.0, 0.0, 0.0, 0.0, 0.5, 0.5, math.pi / 4)
    assert d == pytest.approx(1.0 - math.sqrt(0.5))


def test_batched_rect_corners_equal_scalar():
    rng = np.random.default_rng(11)
    n = 2000
    cx, cy = rng.uniform(-60.0, 60.0, (2, n))
    half_w, half_h = rng.uniform(0.05, 3.0, (2, n))
    yaw = rng.uniform(-math.pi, math.pi, n)
    yaw[:6] = [0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi, -0.0]
    cos_yaw = np.array([math.cos(a) for a in yaw])
    sin_yaw = np.array([math.sin(a) for a in yaw])
    offsets = geometry.oriented_rects_offsets(half_w, half_h, cos_yaw, sin_yaw)
    batch = offsets + np.stack([cx, cy], axis=1)[:, None, :]
    scalar = [geometry.oriented_rect_corners(cx[i], cy[i], half_w[i], half_h[i], yaw[i])
              for i in range(n)]
    assert np.array_equal(batch, np.stack(scalar))
    empty = geometry.oriented_rects_offsets(*np.zeros((4, 0)))
    assert empty.shape == (0, 4, 2)


def test_buffer_single_segment_exact_area():
    polys = geometry.buffer_polyline([(0.0, 0.0), (10.0, 0.0)], 3.0)
    assert len(polys) == 1
    assert shoelace(polys[0]) == pytest.approx(30.0, rel=1e-9)


def test_buffer_right_angle_adds_wedge():
    polys = geometry.buffer_polyline([(0.0, 0.0), (10.0, 0.0), (10.0, 10.0)], 3.0)
    # two rectangles plus one outer wedge
    assert len(polys) == 3
    areas = sorted(shoelace(p) for p in polys)
    assert areas[-1] == pytest.approx(30.0, rel=1e-9)
    assert areas[-2] == pytest.approx(30.0, rel=1e-9)
    # wedge covers the outer corner gap: point just outside both rectangles
    probe = (11.0, -1.0)
    assert any(geometry.point_in_polygon(*probe, p) for p in polys)


def test_buffer_rejects_degenerate():
    with pytest.raises(ValueError):
        geometry.buffer_polyline([(0.0, 0.0), (0.0, 0.0)], 2.0)
    with pytest.raises(ValueError):
        geometry.buffer_polyline([(0.0, 0.0)], 2.0)
    with pytest.raises(ValueError):
        geometry.buffer_polyline([(0.0, 0.0), (1.0, 0.0)], 0.0)


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=10_000))
def test_buffer_polygons_are_simple_quads(seed):
    rng = np.random.default_rng(seed)
    pts = np.cumsum(rng.uniform(-3, 3, size=(5, 2)), axis=0)
    # keep consecutive vertices distinct
    pts = [tuple(p) for i, p in enumerate(pts)]
    try:
        polys = geometry.buffer_polyline(pts, float(rng.uniform(1.0, 4.0)))
    except ValueError:
        return  # degenerate random polyline
    for p in polys:
        assert len(p) in (3, 4)
        assert geometry.polygon_area(p) > 0
