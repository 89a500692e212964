import math
import random
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (brute_enclosing_circle, brute_inscribed_circle,
                      empty_square_terrain, random_convex_polygon, square)
from support import obstacle_inside
from thunt import (GeometryError, Location, Point, Polygon,
                   Terrain, TerrainError, convex_hull, distance_to_boundary, first_hit,
                   is_c_fat, largest_inscribed_circle, perimeter_split, point_in_polygon, point_in_terrain, sees,
                   segment_in_terrain, smallest_enclosing_circle,
                   validate_regular_terrain)
from thunt import geom
from thunt.generators import CombParams, comb_terrain, random_fat_polygon
from thunt.geom import march


UNIT = square(0, 0, 1)


# --- polygon construction ---------------------------------------------------

def test_polygon_normalizes_orientation():
    cw = Polygon([(0, 0), (0, 1), (1, 1), (1, 0)])
    assert geom._signed_area(cw.vertices) > 0
    assert cw.is_convex


def test_polygon_drops_collinear_vertices():
    p = Polygon([(0, 0), (0.5, 0), (1, 0), (1, 1), (0, 1)])
    assert p.n == 4


def test_polygon_rejects_self_intersection():
    with pytest.raises(GeometryError):
        Polygon([(0, 0), (1, 1), (1, 0), (0, 1)])


def test_polygon_rejects_degenerate():
    with pytest.raises(GeometryError):
        Polygon([(0, 0), (1, 0)])


def _edges_touch_by_brute_force(ring):
    n = len(ring)
    return any(geom.segment_segment_distance(ring[i], ring[(i + 1) % n],
                                             ring[j], ring[(j + 1) % n]) <= geom.EPS
               for i in range(n) for j in range(i + 2, n) if (j + 1) % n != i)


GRID_RING = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=3, max_size=9)
FLOAT_RING = st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10)), min_size=3, max_size=9)


@settings(max_examples=300)
@given(st.one_of(GRID_RING, FLOAT_RING))
def test_polygon_rejects_touching_edges_exactly_when_brute_force_does(ring):
    # grid vertices give collinear, overlapping and vertex-touching edges
    try:
        Polygon(ring)
        reason = "simple"
    except GeometryError as exc:
        reason = str(exc)
    assume("fold-back" not in reason and "at least 3" not in reason)
    verts = geom._normalize_ring([Point(float(x), float(y)) for x, y in ring])
    assert ("touch" in reason) == _edges_touch_by_brute_force(verts)


# --- point classification ---------------------------------------------------

def test_point_in_polygon_center():
    assert point_in_polygon(Point(0.5, 0.5), UNIT) is Location.INTERIOR


def test_point_in_polygon_vertex():
    assert point_in_polygon(Point(0, 0), UNIT) is Location.ON_BOUNDARY


def test_point_in_polygon_far_outside():
    assert point_in_polygon(Point(10, 10), UNIT) is Location.EXTERIOR


def test_point_in_terrain_obstacle_edge_belongs():
    t = Terrain(square(0, 0, 10), [square(4, 4, 2)])
    assert point_in_terrain(Point(4, 5), t)          # obstacle edge
    assert not point_in_terrain(Point(5, 5), t)      # obstacle interior
    assert not point_in_terrain(Point(-1, 5), t)     # outside outer
    assert point_in_terrain(Point(1, 1), t)


# --- segments and visibility -------------------------------------------------

def test_segment_in_empty_terrain():
    t = empty_square_terrain()
    assert segment_in_terrain(Point(1, 1), Point(9, 9), t)


def test_segment_crossing_obstacle():
    t = Terrain(square(0, 0, 10), [square(4, 4, 2)])
    assert not segment_in_terrain(Point(1, 5), Point(9, 5), t)


def test_segment_along_obstacle_edge_contained():
    t = Terrain(square(0, 0, 10), [square(4, 4, 2)])
    assert segment_in_terrain(Point(3, 4), Point(7, 4), t)  # rides the bottom edge


def test_sees_self():
    t = empty_square_terrain()
    assert sees(Point(2, 2), Point(2, 2), t)


def test_sees_beyond_unit_range():
    t = empty_square_terrain()
    assert not sees(Point(2, 2), Point(3.5, 2), t)


def test_sees_blocked_by_thin_obstacle():
    # thin sliver straddling the midpoint of a 0.9-long segment
    t = Terrain(square(0, 0, 10), [Polygon([(4.4, 4.0), (4.5, 4.0), (4.5, 6.0), (4.4, 6.0)])])
    p, q = Point(4.0, 5.0), Point(4.9, 5.0)
    assert math.dist(p, q) <= 0.9 + 1e-12
    assert not sees(p, q, t)
    assert sees(p, Point(4.35, 5.0), t)


def test_sees_requires_terrain_points():
    t = empty_square_terrain()
    with pytest.raises(GeometryError):
        sees(Point(-5, -5), Point(1, 1), t)


@given(st.integers(0, 10 ** 6))
def test_sees_symmetric(seed):
    rng = random.Random(seed)
    t = Terrain(square(0, 0, 10), [square(4, 4, 2)])
    def sample():
        while True:
            pt = Point(rng.uniform(0, 10), rng.uniform(0, 10))
            if point_in_terrain(pt, t):
                return pt
    p, q = sample(), sample()
    assert sees(p, q, t) == sees(q, p, t)


# --- first_hit ---------------------------------------------------------------

def test_first_hit_clear_path():
    t = empty_square_terrain()
    assert first_hit(Point(1, 1), Point(9, 9), t) is None


def test_first_hit_enters_obstacle():
    t = Terrain(square(0, 0, 10), [square(4, 4, 2)])
    hit = first_hit(Point(1, 5), Point(9, 5), t)
    assert hit is not None
    assert hit.ring == 0
    assert abs(hit.point.x - 4.0) < 1e-9 and abs(hit.point.y - 5.0) < 1e-9
    assert abs(hit.travel - 3.0) < 1e-9


def test_first_hit_grazing_vertex_is_not_a_hit():
    t = Terrain(square(0, 0, 10), [square(4, 4, 2)])
    # slope -1 through corner (4,4): touches the vertex, never enters
    assert first_hit(Point(3, 5), Point(5, 3), t) is None
    # whereas the diagonal through the same corner into the square is a hit
    hit = first_hit(Point(3, 3), Point(5, 5), t)
    assert hit is not None
    assert abs(hit.travel - math.sqrt(2)) < 1e-9


def test_first_hit_exits_outer():
    t = empty_square_terrain()
    hit = first_hit(Point(5, 5), Point(15, 5), t)
    assert hit is not None
    assert hit.ring == -1
    assert abs(hit.travel - 5.0) < 1e-9


def test_first_hit_riding_outer_wall():
    t = empty_square_terrain()
    assert first_hit(Point(0, 2), Point(0, 8), t) is None


def test_first_hit_reentry_through_opposite_vertex():
    diamond = Polygon([(3, 0), (4, 1), (5, 0), (4, -1)])
    t = Terrain(square(-2, -3, 12), [diamond])
    hit = first_hit(Point(0, 0), Point(8, 0), t)
    assert hit.ring == 0
    assert math.dist(hit.point, (3, 0)) < 1e-12
    assert math.dist(hit.reentry, (5, 0)) < 1e-12


def test_first_hit_reentry_skips_a_graze_outside():
    # a notch cut from the top of the outer ring, with a spike rising from
    # its floor to touch y = 6 at (5, 6): the walk along y = 6 leaves at
    # x = 3, grazes the spike from outside and comes back in at x = 7
    outer = Polygon([(0, 0), (10, 0), (10, 10), (7, 10), (7, 4), (5, 6), (3, 4),
                     (3, 10), (0, 10)])
    hit = first_hit(Point(1, 6), Point(9, 6), Terrain(outer))
    assert hit.ring == -1
    assert math.dist(hit.point, (3, 6)) < 1e-12
    assert math.dist(hit.reentry, (7, 6)) < 1e-12


@given(st.integers(0, 10 ** 6))
def test_first_hit_finds_both_ends_of_a_chord(seed):
    rng = random.Random(seed)
    poly = random_fat_polygon(rng, rng.choice([1.5, 2.0, 3.0]),
                              radius=0.5 + 2.5 * rng.random())
    t = Terrain(square(-20, -20, 40), [poly])
    # chord ends inside two different edges, so the chord runs through the
    # interior; extended beyond both ends it starts and ends in free space
    vs = poly.vertices
    a, b = (geom.lerp(vs[k], vs[(k + 1) % poly.n], rng.uniform(0.1, 0.9))
            for k in rng.sample(range(poly.n), 2))
    hit = first_hit(geom.lerp(a, b, -rng.uniform(0.1, 2)),
                    geom.lerp(b, a, -rng.uniform(0.1, 2)), t)
    assert hit.ring == 0
    assert math.dist(hit.point, a) <= 1e-9
    assert math.dist(hit.reentry, b) <= 1e-9


@given(st.integers(0, 10 ** 6))
def test_first_hit_consistent_with_containment(seed):
    rng = random.Random(seed)
    t = Terrain(square(0, 0, 10), [square(3, 3, 2), square(6.5, 6.5, 1.5)])
    def sample():
        while True:
            pt = Point(rng.uniform(0.2, 9.8), rng.uniform(0.2, 9.8))
            if point_in_terrain(pt, t):
                return pt
    a, b = sample(), sample()
    if a == b:
        return
    hit = first_hit(a, b, t)
    if segment_in_terrain(a, b, t):
        assert hit is None
    else:
        assert hit is not None
        assert 0.0 <= hit.travel <= math.dist(a, b) + 1e-9
        assert point_in_terrain(hit.point, t)


@given(st.integers(0, 10 ** 6))
def test_segment_in_terrain_is_no_first_hit_and_an_end_inside(seed):
    rng = random.Random(seed)
    t = Terrain(square(0, 0, 10), [square(3, 3, 2), square(6.5, 6.5, 1.5)])
    corners = [v for _, ring in t.rings() for v in ring.vertices]

    def sample(lo, hi):
        # ring vertices now and then, so that segments run along edges
        if rng.random() < 0.3:
            return rng.choice(corners)
        return Point(rng.uniform(lo, hi), rng.uniform(lo, hi))
    a = sample(0, 10)
    while not point_in_terrain(a, t):
        a = sample(0, 10)
    b = sample(-2, 12)
    assert segment_in_terrain(a, b, t) == (point_in_terrain(b, t)
                                           and first_hit(a, b, t) is None)


# --- boundary walks ------------------------------------------------------------

def polyline_length(pts):
    return sum(math.dist(pts[i], pts[i + 1]) for i in range(len(pts) - 1))


def test_walk_full_perimeter_returns_to_start():
    pts = march(UNIT, 0.5, UNIT.perimeter, 1)
    assert math.dist(pts[0], pts[-1]) < 1e-9
    assert abs(polyline_length(pts) - 4.0) < 1e-9


def test_walk_distance_from_corner():
    pts = march(UNIT, 0.0, 1.0, 1)
    assert math.dist(pts[-1], (1.0, 0.0)) < 1e-9


def test_walk_backward():
    pts = march(UNIT, 0.0, 1.5, -1)
    # backward from (0,0): up the left side to (0,1), then half the top edge
    assert math.dist(pts[-1], (0.5, 1.0)) < 1e-9


@given(st.integers(0, 10 ** 6), st.floats(0, 1), st.sampled_from([1, -1]),
       st.floats(0, 3))
def test_walk_length_and_closure(seed, start_frac, direction, length_frac):
    poly = random_convex_polygon(random.Random(seed))
    start = start_frac * poly.perimeter
    # arbitrary walk has exactly the requested arc length
    want = length_frac * poly.perimeter
    got = polyline_length(march(poly, start, want, direction))
    assert abs(got - want) < 1e-9 * max(1.0, want)
    # a full lap returns to the starting point
    pts = march(poly, start, poly.perimeter, direction)
    assert math.dist(pts[0], pts[-1]) < 1e-9


# --- perimeter split -----------------------------------------------------------

def test_split_opposite_midpoints():
    assert perimeter_split(UNIT, Point(0.5, 0), Point(0.5, 1)) == (2.0, 2.0)


def test_split_same_point():
    lo, hi = perimeter_split(UNIT, Point(0.5, 0), Point(0.5, 0))
    assert lo == 0.0 and abs(hi - 4.0) < 1e-12


def test_split_adjacent_corners():
    lo, hi = perimeter_split(UNIT, Point(0, 0), Point(1, 0))
    assert abs(lo - 1.0) < 1e-12 and abs(hi - 3.0) < 1e-12


@given(st.integers(0, 10 ** 6), st.floats(0, 1), st.floats(0, 1))
def test_split_sums_to_perimeter(seed, u, v):
    poly = random_convex_polygon(random.Random(seed))
    a = poly.point_at_arc(u * poly.perimeter)
    b = poly.point_at_arc(v * poly.perimeter)
    lo, hi = perimeter_split(poly, a, b)
    assert lo <= hi
    assert abs((lo + hi) - poly.perimeter) < 1e-9 * max(1.0, poly.perimeter)


# --- distance to boundary --------------------------------------------------------

def test_distance_center_of_empty_square():
    t = Terrain(square(0, 0, 4))
    assert abs(distance_to_boundary(Point(2, 2), t) - 2.0) < 1e-12


def test_distance_near_side():
    t = Terrain(square(0, 0, 4))
    assert abs(distance_to_boundary(Point(1, 2), t) - 1.0) < 1e-12


def test_distance_obstacle_closer_than_wall():
    t = Terrain(square(0, 0, 4), [square(1.3, 2.5, 0.5)])
    # obstacle bottom edge at y=2.5 is 0.3 above the probe point
    assert abs(distance_to_boundary(Point(1.55, 2.2), t) - 0.3) < 1e-12


def test_distance_outside_raises():
    t = Terrain(square(0, 0, 4))
    with pytest.raises(GeometryError):
        distance_to_boundary(Point(9, 9), t)


# --- circles and fatness ----------------------------------------------------------

def test_enclosing_circle_unit_square():
    c, R = smallest_enclosing_circle(UNIT)
    assert math.dist(c, (0.5, 0.5)) < 1e-9
    assert abs(R - math.sqrt(2) / 2) < 1e-9


def test_enclosing_circle_equilateral_triangle():
    tri = Polygon([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
    _, R = smallest_enclosing_circle(tri)
    assert abs(R - 1 / math.sqrt(3)) < 1e-9


def test_enclosing_circle_near_collinear_quad():
    poly = Polygon([(0, 0), (2, 0.01), (4, 0), (2, -0.01)])
    c, R = smallest_enclosing_circle(poly)
    _, R_brute = brute_enclosing_circle(poly.vertices)
    assert abs(R - R_brute) < 1e-9
    assert abs(R - 2.0) < 1e-3


@given(st.integers(0, 10 ** 6))
@example(1793)
@example(2321)
def test_enclosing_circle_matches_brute_force(seed):
    poly = random_convex_polygon(random.Random(seed))
    _, R = smallest_enclosing_circle(poly)
    _, R_brute = brute_enclosing_circle(poly.vertices)
    assert abs(R - R_brute) <= 1e-9 * max(1.0, R_brute)


def test_inscribed_circle_unit_square():
    c, r = largest_inscribed_circle(UNIT)
    assert abs(r - 0.5) < 1e-9


def test_inscribed_circle_equilateral_triangle():
    tri = Polygon([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
    _, r = largest_inscribed_circle(tri)
    assert abs(r - 1 / (2 * math.sqrt(3))) < 1e-9


def test_inscribed_circle_rectangle():
    rect = Polygon([(0, 0), (2, 0), (2, 1), (0, 1)])
    _, r = largest_inscribed_circle(rect)
    assert abs(r - 0.5) < 1e-9


def test_inscribed_circle_rejects_nonconvex():
    notch = Polygon([(0, 0), (4, 0), (4, 4), (2, 1), (0, 4)])
    with pytest.raises(GeometryError):
        largest_inscribed_circle(notch)



@given(st.integers(0, 10 ** 6), st.integers(3, 12), st.floats(0.01, 100.0))
def test_inscribed_circle_equals_the_scalar_triple_scan(seed, n, radius):
    rng = random.Random(seed)
    center = Point(rng.uniform(-50, 50), rng.uniform(-50, 50))
    poly = random_convex_polygon(rng, radius, center, n)
    assert largest_inscribed_circle(poly) == brute_inscribed_circle(poly)


def _rotated_rectangle(x0, y0, w, h, angle):
    c, s = math.cos(angle), math.sin(angle)
    return Polygon([(x0 + u * c - v * s, y0 + u * s + v * c)
                    for u, v in ((0, 0), (w, 0), (w, h), (0, h))])


@given(st.floats(-50, 50), st.floats(-50, 50), st.floats(0.01, 20), st.floats(0.01, 20),
       st.floats(0, math.pi))
def test_inscribed_circle_of_rectangle_equals_the_scalar_triple_scan(x0, y0, w, h, angle):
    # opposite sides are parallel, so some triples have a vanishing determinant
    # (exactly zero when axis-aligned, rounding-sized when rotated)
    rect = _rotated_rectangle(x0, y0, w, h, angle)
    assert largest_inscribed_circle(rect) == brute_inscribed_circle(rect)



def test_inscribed_circle_of_a_96_gon_in_bounded_memory():
    # the triples are solved in blocks, so memory does not grow as m**4
    m = 96
    poly = Polygon([(math.cos(2 * math.pi * i / m), math.sin(2 * math.pi * i / m))
                    for i in range(m)])
    tracemalloc.start()
    try:
        _, r = largest_inscribed_circle(poly)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(r - math.cos(math.pi / m)) < 1e-12
    assert peak < 64 << 20

@given(st.integers(0, 10 ** 6))
def test_enclosing_at_least_inscribed(seed):
    poly = random_convex_polygon(random.Random(seed))
    _, R = smallest_enclosing_circle(poly)
    _, r = largest_inscribed_circle(poly)
    assert R >= r - 1e-9


def test_square_is_2_fat():
    assert is_c_fat(UNIT, 2.0)


def test_long_rectangle_is_not_2_fat():
    rect = Polygon([(0, 0), (10, 0), (10, 1), (0, 1)])
    assert not is_c_fat(rect, 2.0)
    # R ~ sqrt(101)/2, r = 0.5
    _, R = smallest_enclosing_circle(rect)
    _, r = largest_inscribed_circle(rect)
    assert abs(R - math.sqrt(101) / 2) < 1e-9 and abs(r - 0.5) < 1e-9


def test_exact_ratio_is_fat():
    _, R = smallest_enclosing_circle(UNIT)
    _, r = largest_inscribed_circle(UNIT)
    assert is_c_fat(UNIT, R / r)


# c a hair below, at, or above the exact R/r; rectangles are where the
# certificate is tight (the vertex mean is both centers)
NEAR_RATIO = st.sampled_from([-1e-3, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 2e-9, 1e-6, 1e-3, 0.5])


def _certificate_is_a_proof(poly, rel):
    _, R = smallest_enclosing_circle(poly)
    _, r = largest_inscribed_circle(poly)
    c = R / r * (1 + rel)
    if geom._certified_fat(poly, c):
        assert R <= c * r + geom.EPS


@given(st.integers(0, 10 ** 6), st.integers(3, 12), st.floats(0.01, 100.0), NEAR_RATIO)
def test_fatness_certificate_is_a_proof_on_convex_polygons(seed, n, radius, rel):
    rng = random.Random(seed)
    center = Point(rng.uniform(-50, 50), rng.uniform(-50, 50))
    poly = random_convex_polygon(rng, radius, center, n)
    _certificate_is_a_proof(poly, rel)


@given(st.floats(-50, 50), st.floats(-50, 50), st.floats(0.01, 20), st.floats(1e-3, 1),
       st.floats(0, math.pi), NEAR_RATIO)
def test_fatness_certificate_is_a_proof_on_thin_rectangles(x0, y0, w, aspect, angle, rel):
    _certificate_is_a_proof(_rotated_rectangle(x0, y0, w, w * aspect, angle), rel)


def test_is_c_fat_rejects_an_l_shape():
    ell = Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
    with pytest.raises(GeometryError, match="convex"):
        is_c_fat(ell, 2.0)


def test_a_translated_square_is_certified_without_circles(monkeypatch):
    def never(poly):
        raise AssertionError("the certificate should have settled this call")

    monkeypatch.setattr(geom, "smallest_enclosing_circle", never)
    monkeypatch.setattr(geom, "largest_inscribed_circle", never)
    assert is_c_fat(square(1e7 + 0.1, 1e7 - 0.3, 0.7), 2.0)


# --- regularity ---------------------------------------------------------------------

def test_regular_terrain_accepts_squares():
    t = Terrain(square(0, 0, 10), [square(2, 2, 1), square(6, 6, 1)])
    validate_regular_terrain(t, 2.0)


def test_comb_is_not_regular():
    t, _, _ = comb_terrain(CombParams(12, 1, 0.25))
    with pytest.raises(TerrainError, match="convex"):
        validate_regular_terrain(t, 2.0)


def test_thin_obstacle_fails_fatness():
    t = Terrain(square(0, 0, 20), [Polygon([(2, 2), (12, 2), (12, 3), (2, 3)])])
    with pytest.raises(TerrainError, match="fat"):
        validate_regular_terrain(t, 2.0)


def test_terrain_rejects_outside_obstacle():
    with pytest.raises(TerrainError):
        Terrain(square(0, 0, 10), [square(20, 20, 2)])


def test_terrain_rejects_obstacle_poking_out_through_outer_vertices():
    # the obstacle's top edge runs along y = 5 through the notch's two
    # vertices (3, 5) and (5, 5): no proper crossing, its midpoint inside,
    # yet the stretch between them lies outside the outer polygon
    notched = Polygon([(0, 0), (10, 0), (10, 10), (5, 10), (5, 5), (4, 4.5),
                       (3, 5), (3, 10), (0, 10)])
    with pytest.raises(TerrainError, match="obstacle 0 is not inside the outer polygon"):
        Terrain(notched, [Polygon([(2, 5), (6, 2), (9.5, 5)])])
    # lowered to y = 4.5, the edge only grazes the notch's tip from inside
    assert len(Terrain(notched, [Polygon([(2, 4.5), (6, 2), (9.5, 4.5)])]).obstacles) == 1


def test_terrain_rejects_obstacle_cutting_under_a_shallow_dent():
    # (1000, 4e-7) is a shallow reflex turn, so the outer ring is not
    # convex; the obstacle's bottom edge joins two points of the outer ring
    # on either side of it and passes 2e-7 below it, outside the outer polygon
    h = 4e-7
    outer = Polygon([(0, 0), (1000, h), (2000, 0), (2000, 1000), (0, 1000)])
    assert not outer.is_convex
    with pytest.raises(TerrainError, match="obstacle 0 is not inside the outer polygon"):
        Terrain(outer, [Polygon([(500, h / 2), (1500, h / 2), (1000, 5)])])
    # raised to the dent's tip, the edge stays inside
    assert len(Terrain(outer, [Polygon([(500, h), (1500, h), (1000, 5)])]).obstacles) == 1


# an obstacle vertex: an integer point, or a point of an outer edge moved
# outward by a nudge: a small one along the edge's normal, +-0.5 along the
# ray from the outer ring's vertex mean (halfway to it when inward)
NUDGES = [-0.5, -1e-6, -3e-9, -5e-10, 0.0, 5e-10, 3e-9, 1e-6, 0.5]


@st.composite
def convex_outer_and_obstacle(draw):
    grid = st.tuples(st.integers(-8, 8), st.integers(-8, 8))
    real = st.tuples(st.floats(-8, 8), st.floats(-8, 8))
    hull = convex_hull(draw(st.lists(st.one_of(grid, real), min_size=3, max_size=8)))
    assume(len(hull) >= 3)
    try:
        outer = Polygon(hull)
    except GeometryError:
        assume(False)
    cx = sum(v.x for v in outer.vertices) / outer.n
    cy = sum(v.y for v in outer.vertices) / outer.n
    reach = draw(st.sampled_from(NUDGES))  # the farthest outward nudge
    with_grid = draw(st.booleans())
    vertices = []
    for _ in range(draw(st.integers(3, 6))):
        if with_grid and draw(st.booleans()):
            vertices.append(Point(*map(float, draw(grid))))
            continue
        a, b = outer.edges()[draw(st.integers(0, outer.n - 1))]
        s = draw(st.sampled_from([0.0, 1.0, draw(st.floats(0, 1))]))
        x, y = a.x + s * (b.x - a.x), a.y + s * (b.y - a.y)
        nudge = draw(st.sampled_from([n for n in NUDGES if n <= reach]))
        if abs(nudge) == 0.5:
            vertices.append(Point(x + nudge * (x - cx), y + nudge * (y - cy)))
        else:
            d = nudge / math.dist(a, b)
            vertices.append(Point(x + d * (b.y - a.y), y - d * (b.x - a.x)))
    # a star-shaped ring about the mean, so obstacles may be non-convex
    mx = sum(v.x for v in vertices) / len(vertices)
    my = sum(v.y for v in vertices) / len(vertices)
    vertices.sort(key=lambda v: math.atan2(v.y - my, v.x - mx))
    try:
        obs = Polygon(vertices)
    except GeometryError:
        assume(False)
    return outer, obs


@given(convex_outer_and_obstacle())
@settings(max_examples=300)
def test_convex_outer_ring_certifies_obstacle_containment(case):
    # on a convex outer ring the vertices alone decide containment
    outer, obs = case
    assert outer.is_convex
    try:
        Terrain(outer, [obs])
        accepted = True
    except TerrainError:
        accepted = False
    assert accepted == obstacle_inside(outer, obs)


def test_terrain_rejects_overlapping_obstacles():
    with pytest.raises(TerrainError):
        Terrain(square(0, 0, 10), [square(2, 2, 2), square(3, 3, 2)])


@pytest.mark.parametrize("gap", [0.0, 1e-10])
def test_terrain_rejects_obstacles_meeting_at_a_corner(gap):
    with pytest.raises(TerrainError, match="not disjoint"):
        Terrain(square(0, 0, 10), [square(2, 2, 1), square(3 + gap, 3 + gap, 1)])


def test_terrain_accepts_obstacles_1e_6_apart():
    t = Terrain(square(0, 0, 10), [square(2, 2, 1), square(3 + 1e-6, 2.5, 1)])
    assert len(t.obstacles) == 2


def _star_ring(points):
    # a star-shaped ring about the mean, so the polygon may be non-convex
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    try:
        return Polygon(sorted(points, key=lambda v: math.atan2(v[1] - my, v[0] - mx)))
    except GeometryError:
        assume(False)


@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=3, max_size=6),
       st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=3, max_size=6),
       st.sampled_from([1.0, 0.25]),
       st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
       st.booleans(),
       st.sampled_from([0.0, 5e-10, -5e-10, 3e-9, -3e-9, 1e-6, -1e-6]))
@example([(0, 0), (0, 1), (4, 0)], [(0, 0), (-2, 0), (4, 1)], 1.0, (0, 0), True, 5e-10)
@example([(0, 0), (0, 1), (4, 0)], [(0, 0), (-2, 0), (4, 1)], 1.0, (0, 0), True, 3e-9)
@settings(max_examples=300)
def test_terrain_rejects_obstacle_pairs_by_a_full_scan(pa, pb, scale, shift, abut, nudge):
    # two rings are disjoint unless some edge pair comes within EPS or one
    # ring holds all of the other's vertices.  With `abut`, b's leftmost
    # x lies a nudge right of a's rightmost
    a = _star_ring([(float(x), float(y)) for x, y in pa])
    dx = (a.bbox[2] - scale * min(x for x, _ in pb) if abut else shift[0] / 2) + nudge
    b = _star_ring([(scale * x + dx, scale * y + shift[1] / 2) for x, y in pb])
    touch = min(geom.segment_segment_distance(*ea, *eb)
                for ea in a.edges() for eb in b.edges()) <= geom.EPS
    inside = any(all(point_in_polygon(v, outer) is not Location.EXTERIOR
                     for v in inner.vertices) for inner, outer in ((a, b), (b, a)))
    try:
        Terrain(square(-20, -20, 40), [a, b])
        accepted = True
    except TerrainError:
        accepted = False
    assert accepted == (not touch and not inside)


# --- fat-polygon chord/perimeter property --------------------------------------------

@given(st.integers(0, 10 ** 6), st.floats(0, 1), st.floats(0, 1),
       st.sampled_from([1.5, 2.0, 3.0]))
def test_chord_perimeter_ratio_bound(seed, u, v, c):
    rng = random.Random(seed)
    poly = random_fat_polygon(rng, c, radius=1.0 + 2.0 * rng.random())
    a = poly.point_at_arc(u * poly.perimeter)
    b = poly.point_at_arc(v * poly.perimeter)
    chord = math.dist(a, b)
    if chord < 1e-9:
        return
    smaller, _ = perimeter_split(poly, a, b)
    assert smaller <= (4 * c + 2) * chord + 1e-9
