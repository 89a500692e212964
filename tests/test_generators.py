import hashlib
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import ndimage

from thunt import (GadgetParams, GenerationError, Point, accessibility,
                   distance_to_boundary, gadget, is_c_fat,
                   point_in_terrain, sees, shortest_path,
                   validate_regular_terrain)
from thunt.generators import (CombParams, comb_terrain, random_fat_polygon,
                              random_regular_terrain, regular_lb_terrain)
from thunt.geom import (EPS, Terrain, Polygon, convex_hull, point_in_rings,
                        ring_distance, segment_segment_distance)
from thunt.harness import bench_scenario
from conftest import square
from support import gadget_hull
from thunt import generators, geom, vecgeom


def free_space_labels(terrain, step, offset=0.5):
    """Flood-fill audit: label the 4-connected free-space components of an
    offset lattice (offset keeps sample points off boundaries)."""
    x0, y0, x1, y1 = terrain.outer.bbox
    xs = np.arange(x0 + offset * step, x1, step)
    ys = np.arange(y0 + offset * step, y1, step)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    mask = vecgeom.points_in_terrain(gx.ravel(), gy.ravel(), terrain)
    grid = mask.reshape(len(xs), len(ys))
    labels, _ = ndimage.label(grid, structure=np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]]))

    def label_at(pt):
        ix = int(round((pt[0] - xs[0]) / step))
        iy = int(round((pt[1] - ys[0]) / step))
        return labels[ix, iy]

    return labels, label_at


# --- gadget -------------------------------------------------------------------

def test_gadget_layout_lam_1():
    gp = GadgetParams(Point(0, 0), 1.0)
    assert gp.square_side == 1.5
    assert gp.lateral_gap == 0.25
    squares = gadget(gp)
    assert len(squares) == 8
    north = squares[0]
    cx = sum(v.x for v in north.vertices) / 4
    cy = sum(v.y for v in north.vertices) / 4
    assert math.dist((cx, cy), (0, 1.75)) < 1e-12
    hull = gadget_hull(gp)
    assert hull.bbox == (-2.5, -2.5, 2.5, 2.5)


@pytest.mark.parametrize("lam", [0.0, -0.5, 1.5, math.nan])
def test_gadget_params_reject_lam_outside_0_1(lam):
    with pytest.raises(GenerationError, match=r"lam must lie in \(0, 1\]"):
        GadgetParams(Point(0, 0), lam)


@pytest.mark.parametrize("lam", [0.25, 0.5, 1.0])
def test_gadget_squares_pairwise_disjoint(lam):
    squares = gadget(GadgetParams(Point(3, 7), lam))
    for i in range(len(squares)):
        for j in range(i + 1, len(squares)):
            d = min(segment_segment_distance(*ea, *eb)
                    for ea in squares[i].edges for eb in squares[j].edges)
            assert d > 1e-9


@pytest.mark.parametrize("lam", [0.25, 1.0])
def test_gadget_blinds_outside_points(lam):
    o = Point(0, 0)
    gp = GadgetParams(o, lam)
    margin = 10 * lam
    outer = Polygon([(-margin, -margin), (margin, -margin), (margin, margin),
                     (-margin, margin)])
    t = Terrain(outer, gadget(gp))
    hull = gadget_hull(gp)
    rng = random.Random(5)
    for _ in range(300):
        if rng.random() < 0.5:
            pt = hull.point_at_arc(rng.random() * hull.perimeter)
        else:
            d = 2.5 * lam + rng.random() * lam
            ang = rng.random() * 2 * math.pi
            pt = Point(d * math.cos(ang) * 1.2, d * math.sin(ang) * 1.2)
            if abs(pt.x) <= 2.5 * lam and abs(pt.y) <= 2.5 * lam:
                continue
            if abs(pt.x) >= margin or abs(pt.y) >= margin:
                continue
        assert not sees(pt, o, t)
    assert sees(Point(0, lam), o, t)


# --- gadget-grid terrain ---------------------------------------------------------

def test_lb_terrain_k1():
    t, p, centers = regular_lb_terrain(1, 1.0)
    assert t.outer.bbox == (0.0, 0.0, 20.0, 20.0)
    assert p == Point(0.0, 0.0)
    assert len(centers) == 1          # k^2 candidates
    assert len(t.obstacles) == 8
    assert centers[0] == Point(12.5, 17.5)
    validate_regular_terrain(t, 2.0)


@pytest.mark.parametrize("k,lam", [(1, 1.0), (2, 0.5), (1, 0.25)])
def test_lb_candidates_have_exact_accessibility(k, lam):
    t, _, centers = regular_lb_terrain(k, lam)
    assert len(centers) == k * k
    for o in centers:
        spec = accessibility(t, o)
        assert abs(spec.lam - lam) < 1e-9
        assert abs(distance_to_boundary(o, t) - lam) < 1e-9


def test_lb_candidate_spacing():
    t, _, centers = regular_lb_terrain(2, 0.5)
    tile = 5 * 0.5
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            assert math.dist(centers[i], centers[j]) >= 2 * tile - 1e-9


def test_lb_shortest_path_window():
    t, p, centers = regular_lb_terrain(1, 1.0)
    A = 20.0
    L = shortest_path(t, p, centers[0])
    assert math.sqrt(2) * A / 2 <= L <= math.sqrt(2) * A / 2 + A


# --- comb ------------------------------------------------------------------------

def test_comb_params_validation():
    with pytest.raises(GenerationError):
        CombParams(8, 1, 0.25)          # A too small
    with pytest.raises(GenerationError):
        CombParams(12, 0, 0.25)         # bad corridor index
    with pytest.raises(GenerationError):
        CombParams(12, 25, 0.25)        # beyond k = 24
    with pytest.raises(GenerationError):
        CombParams(12, 1, 0.26)         # A/(2x) not integral
    assert CombParams(12, 1, 0.25).k == 24
    assert CombParams(14, 1).k == 114688  # 2**17 corridors at most
    for A in (15, 30, 1050, 2000):  # too many corridors, or a width of 0
        with pytest.raises(GenerationError):
            CombParams(A, 1)
    with pytest.raises(GenerationError):
        CombParams(12, 1, 1e-300)       # too many corridors
    for x in (math.nan, math.inf, -0.25):
        with pytest.raises(GenerationError, match="finite number >= 0"):
            CombParams(12, 1, x)


def test_lb_terrain_size_limit():
    assert len(regular_lb_terrain(1, 1.0)[0].obstacles) == 8
    for k in (0, 17, 100000):
        with pytest.raises(GenerationError, match=r"k must be an integer in \[1, 16\]"):
            regular_lb_terrain(k, 0.5)


def test_comb_structure_and_connectivity():
    params = CombParams(12, 5, 0.25)
    t, p, q = comb_terrain(params)
    A, x, k, i = 12.0, 0.25, params.k, 5
    assert point_in_terrain(p, t) and point_in_terrain(q, t)
    spec = accessibility(t, q)
    assert spec.lam == 1.0

    # openness: only corridor i is free inside the sealing layer
    y_probe = A / 2 - x / 2
    for j in range(1, k + 1):
        cx = (2 * j - 2) * x + x / 2
        assert point_in_terrain(Point(cx, y_probe), t) == (j == i)

    # flood fill: bottom chamber and top chamber connect
    labels, label_at = free_space_labels(t, step=x / 4)
    bottom = label_at((A / 2, A / 8))
    top = label_at((A / 2, 3 * A / 4))
    assert bottom != 0 and top != 0
    assert bottom == top

    # ...but only through corridor i: masking its mouth disconnects them
    x0, y0, _, _ = t.outer.bbox
    step = x / 4
    xs0 = x0 + 0.5 * step
    ys0 = y0 + 0.5 * step
    gxs = np.arange(xs0, t.outer.bbox[2], step)
    gys = np.arange(ys0, t.outer.bbox[3], step)
    gx, gy = np.meshgrid(gxs, gys, indexing="ij")
    mask = vecgeom.points_in_terrain(gx.ravel(), gy.ravel(), t).reshape(len(gxs), len(gys))
    mouth = ((gx >= (2 * i - 2) * x) & (gx <= (2 * i - 1) * x)
             & (gy >= A / 2 - x) & (gy <= A / 2))
    mask2 = mask & ~mouth
    labels2, _ = ndimage.label(mask2, structure=np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]]))
    bi = (int(round((A / 2 - xs0) / step)), int(round((A / 8 - ys0) / step)))
    ti = (int(round((A / 2 - xs0) / step)), int(round((3 * A / 4 - ys0) / step)))
    assert labels2[bi] != labels2[ti]


def test_comb_shortest_path_window():
    t, p, q = comb_terrain(CombParams(12, 3, 0.25))
    L = shortest_path(t, p, q)
    assert 6.0 < L < 30.0


def test_comb_default_width_is_tiny():
    params = CombParams(9, 1)
    assert params.width == 1.0 / 2 ** 9
    assert params.k == 9 * 2 ** 8


def test_comb_builds_at_the_default_width():
    t, p, q = comb_terrain(CombParams(10, 3))
    assert t.outer.n == 20486
    assert point_in_terrain(p, t) and point_in_terrain(q, t)


# --- random regular terrains --------------------------------------------------------

def test_random_fat_polygon_respects_c():
    rng = random.Random(1)
    for c in (1.5, 2.0, 3.0):
        for _ in range(20):
            poly = random_fat_polygon(rng, c, radius=1.0)
            assert is_c_fat(poly, c)


@st.composite
def fat_polygon_draws(draw):
    """Points as `random_fat_polygon` draws them (5 to 9 gaps in
    [0.35, 1.35), radii down to half the radius), then some radii made
    equal to the first, or one point moved onto the chord of its
    neighbours and then off it by a relative 0 to 1e-9."""
    n = draw(st.integers(5, 9))
    gaps = draw(st.lists(st.floats(0.35, 1.35, exclude_max=True), min_size=n, max_size=n))
    radius = draw(st.sampled_from([0.35, 1.0, 9.0]))
    center = Point(draw(st.floats(-300, 300)), draw(st.floats(-300, 300)))
    rs = [radius * f for f in draw(st.lists(st.floats(0.5, 1.0), min_size=n, max_size=n))]
    total = sum(gaps)
    angles = list(itertools.accumulate(2 * math.pi * g / total for g in gaps))
    edit = draw(st.sampled_from(["none", "equal radii", "chord"]))
    if edit == "equal radii":
        same = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        rs = [rs[0] if keep else r for keep, r in zip(same, rs)]
    elif edit == "chord":
        i = draw(st.integers(0, n - 1))
        (r1, a1), (r3, a3) = (rs[i - 1], angles[i - 1]), (rs[(i + 1) % n], angles[(i + 1) % n])
        x1, y1, x3, y3 = r1 * math.cos(a1), r1 * math.sin(a1), r3 * math.cos(a3), r3 * math.sin(a3)
        ux, uy = math.cos(angles[i]), math.sin(angles[i])
        ex, ey = x3 - x1, y3 - y1
        if x1 * y3 - y1 * x3 > 0:  # the neighbours are less than pi apart
            off = draw(st.sampled_from([0.0, 1e-16, -1e-16, 1e-12, -1e-12, 1e-9, -1e-9]))
            rs[i] = (ex * y1 - ey * x1) / (ex * uy - ey * ux) * (1.0 + off)
    return [Point(center.x + r * math.cos(a), center.y + r * math.sin(a))
            for r, a in zip(rs, angles)]


@given(fat_polygon_draws())
def test_the_sort_free_hull_is_convex_hull(pts):
    # same vertices, from the same start: the lexicographic minimum
    assert generators._star_hull(pts) == convex_hull(pts)


def test_random_regular_terrain_is_regular():
    for seed in range(8):
        t, p, q = random_regular_terrain(seed, seed % 6, c=2.0)
        validate_regular_terrain(t, 2.0)
        assert point_in_terrain(p, t) and point_in_terrain(q, t)
        assert distance_to_boundary(q, t) >= 0.05


def _min_distance(poly, rings):
    return min(segment_segment_distance(*e, *eo)
               for ring in rings for e in poly.edges for eo in ring.edges)


def _clear_of(poly, others, outer, clearance):
    """The clearance rule of `random_regular_terrain`."""
    return all(ring_distance(poly, ring, clearance + EPS) >= clearance
               for ring in (outer, *others))


def test_clear_of_agrees_with_a_full_scan():
    # candidates drawn as random_regular_terrain draws them; most rejected ones
    # cross or overlap a placed obstacle or the outer ring
    outcomes = set()
    for seed in range(6):
        rng = random.Random(seed)
        outer = Polygon(convex_hull([Point(0.4 + 9.2 * rng.random(), 0.4 + 9.2 * rng.random())
                                     for _ in range(14)]))
        placed: list[Polygon] = []
        for _ in range(40):
            radius = 0.35 + 0.55 * rng.random()
            center = Point(rng.uniform(outer.bbox[0], outer.bbox[2]),
                           rng.uniform(outer.bbox[1], outer.bbox[3]))
            poly = random_fat_polygon(rng, 2.0, radius, center)
            clearance = rng.choice([0.1, 0.5])
            d = _min_distance(poly, [outer, *placed])
            clear = _clear_of(poly, placed, outer, clearance)
            assert clear == (d >= clearance), (seed, d, clearance)
            outcomes.add((clear, d == 0.0))
            if clear:
                placed.append(poly)
    assert outcomes == {(True, False), (False, False), (False, True)}


def test_clearance_and_one_vertex_settle_containment():
    # ring_distance alone does not place a candidate: one clear of the outer
    # ring lies wholly inside or wholly outside it, and both occur; the
    # generator's signed distances to the walls tell the two apart
    sides = set()
    for seed in range(6):
        rng = random.Random(seed)
        outer = Polygon(convex_hull([Point(0.4 + 9.2 * rng.random(), 0.4 + 9.2 * rng.random())
                                     for _ in range(14)]))
        for _ in range(60):
            center = Point(rng.uniform(outer.bbox[0], outer.bbox[2]),
                           rng.uniform(outer.bbox[1], outer.bbox[3]))
            poly = random_fat_polygon(rng, 2.0, 0.35 + 0.55 * rng.random(), center)
            if ring_distance(poly, outer, 0.1 + EPS) < 0.1:
                continue
            where = {point_in_rings(v, (outer,)) for v in poly.vertices}
            assert len(where) == 1, (seed, where)
            sides |= where
    assert sides == {True, False}


@pytest.mark.parametrize("c", [math.nan, math.inf])
def test_generators_reject_a_non_finite_fatness(c):
    with pytest.raises(GenerationError, match="finite"):
        random_fat_polygon(random.Random(0), c, 1.0)
    with pytest.raises(GenerationError, match="finite"):
        random_regular_terrain(0, 3, c=c)


def test_clear_of_at_exactly_the_clearance():
    outer, placed = square(0, 0, 8), square(2, 2, 1)
    poly = square(3.125, 2.5, 1)  # 0.125 right of placed, bboxes 0.125 apart
    assert _min_distance(poly, [placed]) == 0.125
    assert _clear_of(poly, [placed], outer, 0.125)
    assert not _clear_of(poly, [placed], outer, math.nextafter(0.125, 1.0))
    assert not _clear_of(square(0.125, 3, 1), [], outer, 0.25)  # near the outer ring


# sha256 of the geometry of bench_scenario(0..199), recorded before generation
# culled clearance and disjointness tests by bbox: any drift in the rng path shows
GENERATION_DIGEST = "d39e978c28497671973d45a7b731cccdb4c423a443b18c7672cc7370a9e1dfe5"


def test_bench_scenarios_are_generated_as_recorded():
    rows = []
    for s in range(200):
        sc = bench_scenario(s)
        rows.append((sc.terrain.outer.vertices, [o.vertices for o in sc.terrain.obstacles],
                     sc.start, sc.treasure))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == GENERATION_DIGEST


def test_the_fatness_certificate_settles_most_suite_calls(monkeypatch):
    # counted from outside: a call the star certificate does not settle
    # measures the polygon, starting with Welzl's circle (3,201 of 3,259
    # calls settled when the area-centroid certificate came in, 2,969 with
    # the vertex mean before it)
    calls, measured = [], []
    is_fat, enclosing = generators.is_c_fat, geom.smallest_enclosing_circle

    def counted_is_fat(poly, c):
        calls.append(poly)
        return is_fat(poly, c)

    def counted_enclosing(poly):
        measured.append(poly)
        return enclosing(poly)

    monkeypatch.setattr(generators, "is_c_fat", counted_is_fat)
    monkeypatch.setattr(geom, "smallest_enclosing_circle", counted_enclosing)
    for s in range(200):
        bench_scenario(s)
    assert len(calls) == 3259
    assert len(calls) - len(measured) >= 3150


def test_the_simplicity_certificate_settles_every_suite_ring(monkeypatch):
    # every ring the suite builds is a convex hull, and none needs the sweep;
    # the comb's outer ring is not convex, and gets it
    built, swept = [], []
    check_simple, polygon = geom._check_simple, generators.Polygon

    def counted_check(edges):
        swept.append(edges)
        check_simple(edges)

    def counted_polygon(verts):
        built.append(verts)
        return polygon(verts)

    monkeypatch.setattr(geom, "_check_simple", counted_check)
    monkeypatch.setattr(generators, "Polygon", counted_polygon)
    for s in range(200):
        bench_scenario(s)
    assert (len(built), len(swept)) == (3459, 0)
    comb, _, _ = comb_terrain(CombParams(12, 5, 0.25))
    assert swept == [comb.outer.edges]


def test_outer_clearance_decides_as_ring_distance(monkeypatch):
    # every suite candidate passes the outer test exactly when its first
    # vertex lies inside the outer ring and ring_distance puts it 0.1 from
    # that ring; a candidate that passes is next measured against an
    # obstacle, or accepted
    sampled, passed, candidates = [], set(), []
    sample = generators.random_fat_polygon

    def sampling(*args):
        sampled.append(sample(*args))
        return sampled[-1]

    def measured(poly, ring, cutoff):
        passed.add(id(poly))
        return ring_distance(poly, ring, cutoff)

    monkeypatch.setattr(generators, "random_fat_polygon", sampling)
    monkeypatch.setattr(generators, "ring_distance", measured)
    for s in range(200):
        terrain = bench_scenario(s).terrain
        passed.update(id(o) for o in terrain.obstacles)
        candidates += [(poly, terrain.outer) for poly in sampled]
        sampled.clear()
    assert len(candidates) == 3258
    inside = [point_in_rings(poly.vertices[0], (outer,)) for poly, outer in candidates]
    assert sum(inside) == 2193
    for (poly, outer), first_inside in zip(candidates, inside):
        assert (id(poly) in passed) == (
            first_inside and ring_distance(poly, outer, 0.1 + EPS) >= 0.1)


def test_random_regular_terrain_deterministic():
    t1, p1, q1 = random_regular_terrain(99, 5)
    t2, p2, q2 = random_regular_terrain(99, 5)
    assert p1 == p2 and q1 == q2
    assert t1.outer.vertices == t2.outer.vertices
    assert all(a.vertices == b.vertices for a, b in zip(t1.obstacles, t2.obstacles))


def test_empty_random_terrain_straight_hunt():
    from thunt import Scenario, run_scenario
    t, p, q = random_regular_terrain(3, 0)
    report = run_scenario(Scenario(t, p, q))
    assert report.outcome.trajectory == [report.outcome.q_prime]
    assert report.searches == []
