import json
import math
import pickle
import warnings

import numpy as np
import pytest

from sidewalksim import _ckernel, suites
from sidewalksim.errors import GeometryError, MapFormatError
from sidewalksim.geometry import point_in_polygon, polygon_area
from sidewalksim.walkmap import (
    SidewalkNetwork,
    build_walkable_map,
    generate_synthetic_map,
    load_map,
    save_map,
)
from tests.conftest import needs_c_compiler


def walkable_bruteforce(wmap, x, y):
    """Bbox-free oracle: test every polygon directly."""
    return any(point_in_polygon(x, y, p) for p in wmap.polygons)


def grid_bfs_path_length(wmap, a, b, resolution=0.25):
    """Independent 8-connected BFS oracle over walkable cell centers."""
    import heapq

    minx, miny, maxx, maxy = wmap.bounds
    nx = int(math.ceil((maxx - minx) / resolution))
    ny = int(math.ceil((maxy - miny) / resolution))
    free = [[walkable_bruteforce(wmap, minx + (c + 0.5) * resolution,
                                 miny + (r + 0.5) * resolution)
             for c in range(nx)] for r in range(ny)]

    def cell(p):
        return (int((p[1] - miny) / resolution), int((p[0] - minx) / resolution))

    start, goal = cell(a), cell(b)
    dist = {start: 0.0}
    heap = [(0.0, start)]
    while heap:
        d, cur = heapq.heappop(heap)
        if cur == goal:
            return d
        if d > dist[cur]:
            continue
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr == dc == 0:
                    continue
                r, c = cur[0] + dr, cur[1] + dc
                if 0 <= r < ny and 0 <= c < nx and free[r][c]:
                    nd = d + resolution * (math.sqrt(2.0) if dr and dc else 1.0)
                    if nd < dist.get((r, c), math.inf):
                        dist[(r, c)] = nd
                        heapq.heappush(heap, (nd, (r, c)))
    return math.inf


def test_corridor_bounds_and_area(corridor):
    assert corridor.bounds == (0.0, 0.0, 20.0, 3.0)
    assert corridor.walkable_area() == pytest.approx(60.0)


def test_buffered_straight_polyline_area():
    net = SidewalkNetwork([([(0.0, 0.0), (10.0, 0.0)], 3.0)])
    wmap = build_walkable_map(net)
    assert len(wmap.polygons) == 1
    from tests.test_geometry import shoelace

    assert shoelace(wmap.polygons[0]) == pytest.approx(30.0, rel=1e-6)


def test_walkable_at_perpendicular_distances():
    net = SidewalkNetwork([([(0.0, 0.0), (10.0, 0.0)], 3.0)])
    wmap = build_walkable_map(net)
    assert wmap.is_walkable(5.0, 1.4)
    assert not wmap.is_walkable(5.0, 1.6)


def adversarial_points(wmap):
    """Points on the polygons' boundaries and bboxes, and one ulp either side;
    and the boundary points moved one ulp outside each side of their polygon's
    bbox.

    Vertices, edge midpoints, quarter points of horizontal edges, and the
    corners and side midpoints of every polygon bbox.
    """
    base = []
    outside = []
    for poly, (bx0, by0, bx1, by1) in zip(wmap.polygons, wmap.bboxes):
        nxt = np.roll(poly, -1, axis=0)
        on_poly = list(poly) + list((poly + nxt) / 2.0)
        for (ax, ay), (bx, by) in zip(poly, nxt):
            if ay == by:
                on_poly.extend((ax + f * (bx - ax), ay) for f in (0.25, 0.75))
        base.extend(on_poly)
        base.extend([(bx0, by0), (bx1, by0), (bx1, by1), (bx0, by1),
                     ((bx0 + bx1) / 2.0, by0), ((bx0 + bx1) / 2.0, by1),
                     (bx0, (by0 + by1) / 2.0), (bx1, (by0 + by1) / 2.0)])
        for x, y in on_poly:
            outside.extend([(np.nextafter(bx0, -np.inf), y), (np.nextafter(bx1, np.inf), y),
                            (x, np.nextafter(by0, -np.inf)), (x, np.nextafter(by1, np.inf))])
    points = [(float(x), float(y)) for x, y in outside]
    for x, y in base:
        for sx in (-np.inf, None, np.inf):
            for sy in (-np.inf, None, np.inf):
                px = x if sx is None else np.nextafter(x, sx)
                py = y if sy is None else np.nextafter(y, sy)
                points.append((float(px), float(py)))
    return points


@needs_c_compiler
def test_kernel_fallback_and_bulk_match_bruteforce(rng):
    assert _ckernel.load() is not None, "the C kernels failed to build or load"
    configs = suites.training_suite() + suites.validation_suite() + [suites.bench_config()]
    maps = [generate_synthetic_map("grid", 28.0, 4.0, seed=5)] + [cfg.map for cfg in configs]
    checked = inside = 0
    for wmap in maps:
        minx, miny, maxx, maxy = wmap.bounds
        xs = rng.uniform(minx - 1, maxx + 1, 2_000)
        ys = rng.uniform(miny - 1, maxy + 1, 2_000)
        points = list(zip(xs.tolist(), ys.tolist())) + adversarial_points(wmap)
        px, py = np.array(points).T
        bulk = wmap.contains_points(px, py)
        for (x, y), in_bulk in zip(points, bulk):
            expected = walkable_bruteforce(wmap, x, y)
            assert wmap.is_walkable(x, y) == expected, (x, y)
            assert wmap._is_walkable_python(x, y) == expected, (x, y)
            assert in_bulk == expected, (x, y)
            inside += expected
        checked += len(points)
    assert checked > 40_000 and 0.2 < inside / checked < 0.8


def test_failed_kernel_build_warns_once_and_uses_bbox_loop(monkeypatch, rng):
    def failing_build(source):
        raise OSError("cc failed: error: unknown type name")

    monkeypatch.setattr(_ckernel, "build", failing_build)
    monkeypatch.setattr(_ckernel, "_loaded", _ckernel._UNLOADED)
    wmap = generate_synthetic_map("L-shape", 15.0, 3.5, seed=2)
    points = list(zip(rng.uniform(-1.0, 16.0, 500).tolist(),
                      rng.uniform(-3.0, 16.0, 500).tolist())) + adversarial_points(wmap)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        answers = [wmap.is_walkable(x, y) for x, y in points]
    messages = [str(w.message) for w in caught]
    assert len(messages) == 1 and "pure-Python paths" in messages[0]
    assert _ckernel.load() is None
    assert answers == [walkable_bruteforce(wmap, x, y) for x, y in points]
    assert any(answers) and not all(answers)


@needs_c_compiler
def test_non_finite_points_are_not_walkable_on_both_paths():
    assert _ckernel.load() is not None
    wmap = suites.validation_suite()[6].map
    x, y = wmap.sample_walkable_point(np.random.default_rng(4))
    assert wmap.is_walkable(x, y) and wmap._is_walkable_python(x, y)
    for bad in (math.nan, math.inf, -math.inf):
        for point in ((bad, y), (x, bad), (bad, bad)):
            assert not wmap.is_walkable(*point), point
            assert not wmap._is_walkable_python(*point), point


def test_map_pickled_after_query_answers_identically(rng):
    wmap = generate_synthetic_map("grid", 26.0, None, seed=9)
    minx, miny, maxx, maxy = wmap.bounds
    points = list(zip(rng.uniform(minx, maxx, 2_000).tolist(),
                      rng.uniform(miny, maxy, 2_000).tolist()))
    answers = [wmap.is_walkable(x, y) for x, y in points]
    data = pickle.dumps(wmap)
    del wmap
    clone = pickle.loads(data)
    assert [clone.is_walkable(x, y) for x, y in points] == answers
    assert any(answers) and not all(answers)


def test_contains_points_matches_scalar(rng):
    wmap = generate_synthetic_map("L-shape", 15.0, 3.5, seed=2)
    minx, miny, maxx, maxy = wmap.bounds
    xs = rng.uniform(minx - 1, maxx + 1, 2_000)
    ys = rng.uniform(miny - 1, maxy + 1, 2_000)
    vec = wmap.contains_points(xs, ys)
    for i in range(len(xs)):
        assert vec[i] == walkable_bruteforce(wmap, xs[i], ys[i])


def test_synthetic_corridor_spec():
    m = generate_synthetic_map("corridor", 20.0, 3.0)
    assert m.bounds == (0.0, 0.0, 20.0, 3.0)


def test_synthetic_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_map(generate_synthetic_map("grid", 26.0, None, seed=9), a)
    save_map(generate_synthetic_map("grid", 26.0, None, seed=9), b)
    assert a.read_bytes() == b.read_bytes()


def test_synthetic_seed_changes_sampled_widths():
    a = generate_synthetic_map("corridor", 20.0, None, seed=1)
    b = generate_synthetic_map("corridor", 20.0, None, seed=2)
    assert a.bounds != b.bounds  # widths drawn from the sidewalk range


def test_lshape_geodesic_between_arm_ends():
    m = generate_synthetic_map("L-shape", 10.0, 3.0)
    # probe just inside the flat end caps so both cells are walkable
    a, b = (0.3, 0.0), (10.0, 9.7)
    d = grid_bfs_path_length(m, a, b)
    # shortest walkable path hugs the inner corner at (8.5, 1.5): two straight
    # legs of hypot(8.2, 1.5) + hypot(1.5, 8.2) = 16.67 m; the 8-connected
    # metric overestimates Euclidean lengths by at most sqrt(4 - 2*sqrt(2))
    legs = math.hypot(8.2, 1.5) + math.hypot(1.5, 8.2)
    assert legs <= d <= legs * 1.083
    # within a corner-cut of the two 10 m centerline arms
    assert d == pytest.approx(20.0, abs=3.5)


def test_unknown_kind_rejected():
    with pytest.raises(GeometryError):
        generate_synthetic_map("spiral", 10.0, 3.0)
    with pytest.raises(GeometryError):
        generate_synthetic_map("corridor", -1.0, 3.0)


def test_save_load_round_trip(tmp_path, corridor):
    path = tmp_path / "map.json"
    save_map(corridor, path)
    loaded = load_map(path)
    assert loaded == corridor
    # second save is byte-identical
    path2 = tmp_path / "map2.json"
    save_map(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_rejects_wrong_version(tmp_path, corridor):
    path = tmp_path / "map.json"
    save_map(corridor, path)
    doc = json.loads(path.read_text())
    doc["version"] = 0
    path.write_text(json.dumps(doc))
    with pytest.raises(MapFormatError, match="version"):
        load_map(path)


def test_load_rejects_two_vertex_polygon(tmp_path, corridor):
    path = tmp_path / "map.json"
    save_map(corridor, path)
    doc = json.loads(path.read_text())
    doc["polygons"].append([[0.0, 0.0], [1.0, 1.0]])
    path.write_text(json.dumps(doc))
    with pytest.raises(MapFormatError):
        load_map(path)


def test_load_rejects_missing_fields(tmp_path, corridor):
    path = tmp_path / "map.json"
    save_map(corridor, path)
    doc = json.loads(path.read_text())
    del doc["origin"]
    path.write_text(json.dumps(doc))
    with pytest.raises(MapFormatError, match="origin"):
        load_map(path)


def test_map_file_with_cell_size_still_loads(tmp_path, corridor):
    # map files written while maps had a grid index carry its cell size
    path = tmp_path / "map.json"
    save_map(corridor, path)
    doc = json.loads(path.read_text())
    doc["cell_size"] = 1.0
    path.write_text(json.dumps(doc))
    assert load_map(path) == corridor


def test_sample_walkable_point_is_walkable(corridor, rng):
    for _ in range(200):
        x, y = corridor.sample_walkable_point(rng)
        assert corridor.is_walkable(x, y)


def test_sampler_accepts_only_inside_the_drawn_polygon():
    # Replays the sampler's draws: an area-weighted polygon, a point uniform
    # in its bbox, kept only when inside that same polygon. Where a sidewalk
    # runs obliquely, as ingested streets do, its polygon's bbox covers parts
    # of its neighbours, so some rejected candidates lie in the union; a union
    # test such as is_walkable would keep them and change every layout drawn
    # after them. (The synthetic suite maps are unions of axis-aligned
    # rectangles, where the sampler never rejects.)
    wmap = build_walkable_map(SidewalkNetwork([([(0.0, 0.0), (12.0, 0.0), (20.0, 8.0)], 3.0)]))
    areas = np.array([polygon_area(p) for p in wmap.polygons])
    weights = areas / areas.sum()
    rng, replay = np.random.default_rng(21), np.random.default_rng(21)
    rejected_in_union = 0
    for _ in range(1000):
        while True:
            pid = int(replay.choice(len(wmap.polygons), p=weights))
            poly = wmap.polygons[pid]
            x = float(replay.uniform(poly[:, 0].min(), poly[:, 0].max()))
            y = float(replay.uniform(poly[:, 1].min(), poly[:, 1].max()))
            if point_in_polygon(x, y, poly):
                break
            rejected_in_union += walkable_bruteforce(wmap, x, y)
        assert wmap.sample_walkable_point(rng) == (x, y)
    assert rejected_in_union > 0


@needs_c_compiler
def test_sampler_draws_and_generator_state_are_the_same_with_the_kernel_off(monkeypatch):
    # the kernel tests a candidate against the drawn polygon only, as
    # point_in_polygon does; the oblique map rejects candidates in the union
    assert _ckernel.load() is not None, "the C kernels failed to build or load"
    maps = [build_walkable_map(SidewalkNetwork([([(0.0, 0.0), (12.0, 0.0), (20.0, 8.0)], 3.0)])),
            suites.bench_config().map, suites.validation_suite()[1].map]

    def draws():
        rng = np.random.default_rng(8)
        points = [wmap.sample_walkable_point(rng) for _ in range(400) for wmap in maps]
        return points, rng.bit_generator.state

    loaded = draws()
    monkeypatch.setattr(_ckernel, "_loaded", None)
    assert draws() == loaded
