import contextlib
import itertools
import math
import random
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import empty_square_terrain, square
from support import all_vertex_path, grid_path_oracle, reference_edge_classification
from thunt import (AdviceTriple, GeometryError, Point, Polygon, Terrain, accessibility,
                   decode, encode, make_advice, segment_in_terrain, select_tile,
                   shortest_path)
from thunt import oracle, vecgeom
from thunt.geom import EPS, cross3, dist, distance_to_boundary, lerp, point_in_terrain
from thunt.generators import (CombParams, comb_terrain, random_regular_terrain,
                              regular_lb_terrain)
from thunt.harness import bench_scenario
from thunt.codec import tile_center
from thunt.oracle import _visibility_graph
from thunt.vecgeom import pairwise_edge_classification, segments_in_terrain


def brute_select_tile(p, q, lam, window=64):
    """Independent oracle: scan every grid cell near q against closed-disc
    containment and pick (smallest row, then smallest column)."""
    a1 = max(1, math.ceil(2.0 / lam - 1e-9))
    side = 1.0 / a1
    r_hat = lam * (1.0 - 1e-6)
    kx_c = math.floor((q.x - p.x) / side)
    ky_c = math.floor((q.y - p.y) / side)
    best = None
    for ky in range(ky_c - window, ky_c + window + 1):
        for kx in range(kx_c - window, kx_c + window + 1):
            corners = [(p.x + kx * side, p.y + ky * side),
                       (p.x + (kx + 1) * side, p.y + ky * side),
                       (p.x + (kx + 1) * side, p.y + (ky + 1) * side),
                       (p.x + kx * side, p.y + (ky + 1) * side)]
            if all(math.dist(c, q) <= r_hat for c in corners):
                row = ky + 1 if ky >= 0 else ky
                col = kx + 1 if kx >= 0 else kx
                key = (row, col)
                if best is None or key < best:
                    best = key
    assert best is not None
    return AdviceTriple(a1, best[1], best[0])


# --- accessibility -------------------------------------------------------------

def test_accessibility_center_of_square():
    t = Terrain(square(0, 0, 4))
    assert abs(distance_to_boundary(Point(2, 2), t) - 2.0) < 1e-12
    assert accessibility(t, Point(2, 2)) == 1.0


def test_accessibility_near_wall():
    t = Terrain(square(0, 0, 4))
    assert abs(accessibility(t, Point(2, 0.25)) - 0.25) < 1e-12


def test_accessibility_obstacle_dominates():
    t = Terrain(square(0, 0, 10), [square(4.0, 5.5, 1.0)])
    assert abs(accessibility(t, Point(4.5, 5.0)) - 0.5) < 1e-12


def test_accessibility_rejects_boundary_point():
    t = Terrain(square(0, 0, 4))
    with pytest.raises(GeometryError):
        accessibility(t, Point(0, 2))


def test_accessibility_and_advice_reject_points_outside_the_terrain():
    # outside the outer ring, and inside the obstacle
    t = Terrain(square(0, 0, 10), [square(4, 4, 2)])
    q = Point(8, 8)
    lam = accessibility(t, q)
    for outside in (Point(-1, 5), Point(5, 5)):
        with pytest.raises(GeometryError, match="treasure must lie inside the terrain"):
            accessibility(t, outside)
        with pytest.raises(GeometryError, match="start point must lie in the terrain"):
            make_advice(t, outside, q, lam)


# --- tile selection ------------------------------------------------------------

def test_select_tile_worked_example():
    t = empty_square_terrain(10, -5)
    p, q = Point(0, 0), Point(0.75, 0.75)
    triple = select_tile(p, q, accessibility(t, q))
    assert triple == AdviceTriple(a1=2, a2=2, a3=1)
    assert math.dist(tile_center(p, triple), (0.75, 0.25)) < 1e-12


def test_select_tile_prefers_south_most_row():
    # q exactly at a tile center with lam much larger than a tile: the
    # selected row is the south-most row any contained tile reaches
    t = empty_square_terrain(20, -10)
    p, q = Point(0, 0), Point(0.25, 0.25)
    lam = accessibility(t, q)
    triple = select_tile(p, q, lam)
    assert triple == brute_select_tile(p, q, lam)
    assert triple.a3 < 0  # lam = 1 reaches well south of q's own row


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40)
def test_select_tile_matches_brute_force(seed):
    rng = random.Random(seed)
    t = empty_square_terrain(40, -20)
    p = Point(rng.uniform(-2, 2), rng.uniform(-2, 2))
    q = Point(rng.uniform(-8, 8), rng.uniform(-8, 8))
    lam = rng.choice([1.0, 0.7, 0.33, 0.21])
    triple = select_tile(p, q, lam)
    assert triple == brute_select_tile(p, q, lam)
    # the tile is inside the disc, hence qp sees q
    qp = tile_center(p, triple)
    assert math.dist(qp, q) <= lam
    assert segment_in_terrain(qp, q, t)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40)
def test_select_tile_index_bound(seed):
    rng = random.Random(seed)
    t = empty_square_terrain(60, -30)
    p = Point(0, 0)
    q = Point(rng.uniform(-12, 12), rng.uniform(-12, 12))
    if math.dist(p, q) < 1e-6:
        return
    lam = accessibility(t, q)
    L = shortest_path(t, p, q)
    _, col, row = select_tile(p, q, lam)
    bound = 3 * L / lam + 4
    assert abs(col) <= bound
    assert abs(row) <= bound


def test_select_tile_deterministic():
    t = empty_square_terrain(10, -5)
    q = Point(1.3, 2.1)
    runs = {select_tile(Point(0, 0), q, accessibility(t, q)) for _ in range(5)}
    assert len(runs) == 1


@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(-12, 12), st.floats(-12, 12),
       st.sampled_from([1.0, 0.7, 0.33, 0.21, 0.05]))
@settings(max_examples=60)
def test_the_advice_decodes_to_the_oracles_tile_center(px, py, dx, dy, lam):
    # the agent's side of the tile rule gives back, bit for bit, the center
    # the oracle selected
    p = Point(px, py)
    q = Point(px + dx, py + dy)
    t = Terrain(square(px - 20, py - 20, 40))
    advice = make_advice(t, p, q, lam)
    assert tile_center(p, decode(advice)) == tile_center(p, select_tile(p, q, lam))


# --- advice --------------------------------------------------------------------

def test_make_advice_worked_example():
    t = empty_square_terrain(10, -5)
    p, q = Point(0, 0), Point(0.75, 0.75)
    advice = make_advice(t, p, q, accessibility(t, q))
    assert advice == encode(2, 2, 1)
    assert math.dist(tile_center(p, decode(advice)), (0.75, 0.25)) < 1e-12


def test_make_advice_mirrored_southwest():
    t = empty_square_terrain(10, -5)
    q = Point(-0.75, -0.75)
    advice = make_advice(t, Point(0, 0), q, accessibility(t, q))
    _, a2, a3 = decode(advice)
    assert a2 < 0 and a3 < 0


def test_make_advice_near_start_nonzero_indices():
    t = empty_square_terrain(10, -5)
    q = Point(0.05, 0.05)
    advice = make_advice(t, Point(0, 0), q, accessibility(t, q))
    _, a2, a3 = decode(advice)
    assert a2 != 0 and a3 != 0


# --- shortest path ----------------------------------------------------------------

def test_shortest_path_empty_terrain():
    t = empty_square_terrain()
    L = shortest_path(t, Point(1, 1), Point(7, 9))
    assert abs(L - math.dist((1, 1), (7, 9))) < 1e-12


def test_shortest_path_detours_around_square():
    t = Terrain(square(0, 0, 10), [square(4, 4, 2)])
    p, q = Point(2, 5), Point(8, 5)
    L = shortest_path(t, p, q)
    # independent check: best bend route through obstacle corners
    corners = [Point(4, 4), Point(6, 4), Point(4, 6), Point(6, 6)]
    best = math.inf
    for c1 in corners:
        for c2 in corners:
            route = [p, c1, q] if c1 == c2 else [p, c1, c2, q]
            if all(segment_in_terrain(route[i], route[i + 1], t)
                   for i in range(len(route) - 1)):
                best = min(best, sum(math.dist(route[i], route[i + 1])
                                     for i in range(len(route) - 1)))
    assert abs(L - best) < 1e-9
    assert L > math.dist(p, q) + 1e-9


def test_shortest_path_symmetric():
    t = Terrain(square(0, 0, 10), [square(4, 4, 2), square(2, 7, 1.5)])
    p, q = Point(1, 1), Point(9, 9)
    L1 = shortest_path(t, p, q)
    L2 = shortest_path(t, q, p)
    assert abs(L1 - L2) < 1e-9


def test_shortest_path_between_a_point_and_itself_is_zero():
    t = Terrain(square(0, 0, 10), [square(4, 4, 2)])
    p = Point(2.5, 3.25)
    assert shortest_path(t, p, p) == 0.0


def test_shortest_path_between_points_under_eps_apart_is_their_distance():
    t = empty_square_terrain()
    p, q = Point(3, 3), Point(3 + 5e-10, 3)
    assert 0.0 < dist(p, q) <= EPS
    assert shortest_path(t, p, q) == dist(p, q)


def test_shortest_path_from_outside_to_itself_raises():
    t = Terrain(square(0, 0, 10), [square(4, 4, 2)])
    for p in (Point(-1, 5), Point(5, 5)):
        with pytest.raises(GeometryError, match="endpoints must lie in the terrain"):
            shortest_path(t, p, p)


@given(st.integers(0, 400))
@settings(max_examples=20)
def test_shortest_path_at_least_euclidean(seed):
    t, p, q = random_regular_terrain(seed, seed % 5)
    L = shortest_path(t, p, q)
    assert L >= math.dist(p, q) - 1e-9
    if segment_in_terrain(p, q, t):
        assert abs(L - math.dist(p, q)) < 1e-9


def diamond_lattice(n):
    """n x n unit cells in [0, n]^2 with a diamond of half-diagonal 0.3 in each."""
    r = 0.3
    diamonds = [Polygon([(i + 0.5, j + 0.5 - r), (i + 0.5 + r, j + 0.5),
                         (i + 0.5, j + 0.5 + r), (i + 0.5 - r, j + 0.5)])
                for i in range(n) for j in range(n)]
    return Terrain(square(0, 0, n), diamonds)


def random_regular():
    return random_regular_terrain(123, 6)


def gadget_grid():
    t, p, centers = regular_lb_terrain(1, 0.5)
    return t, p, centers[0]


def lattice_3x3():
    return diamond_lattice(3), Point(0.1, 0.1), Point(2.9, 2.9)


def comb():
    # reflex outer wedges, and sides collinear with many other sides
    return comb_terrain(CombParams(12, 3, 1.0))


def suite_terrain(seed=7):
    sc = bench_scenario(seed)
    return sc.terrain, sc.start, sc.treasure


@pytest.mark.parametrize("make", [
    random_regular, gadget_grid, lattice_3x3, comb,
    # ten obstacles each, where most pairs reach the kernel past the wedges
    pytest.param(lambda: suite_terrain(10), id="suite_10"),
    pytest.param(lambda: suite_terrain(21), id="suite_21")])
def test_visibility_edges_match_scalar_predicate(make):
    # the vectorized admission rule agrees with the exact predicate on every pair
    t, p, q = make()
    nodes, ai, aj, w = _visibility_graph(t, p, q)
    admitted = set(zip(ai, aj))
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            assert ((i, j) in admitted) == segment_in_terrain(nodes[i], nodes[j], t), (i, j)
    assert w == [dist(nodes[i], nodes[j]) for i, j in zip(ai, aj)]


def test_visibility_graph_exact_calls_on_diamond_lattice(monkeypatch):
    # collinear contacts on the lattice need the exact test, which runs as one batch
    calls = []

    def counted(a, b, t):
        calls.append((a, b))
        return segment_in_terrain(a, b, t)

    monkeypatch.setattr(oracle, "segment_in_terrain", counted)
    _, ai, _, _ = _visibility_graph(diamond_lattice(4), Point(0.1, 0.1), Point(3.9, 3.9))
    assert len(ai) == 768
    assert len(calls) == 0


@pytest.mark.parametrize("make, rows", [
    pytest.param(lambda: (diamond_lattice(4), Point(0.1, 0.1), Point(3.9, 3.9)), 1197,
                 id="lattice_4"),
    pytest.param(suite_terrain, 491, id="suite_7")])
def test_kernel_sees_only_the_pairs_the_wedges_leave_open(monkeypatch, make, rows):
    # the shared-edge and wedge tests run first; the kernel gets what they leave
    t, p, q = make()
    kernel, seen = vecgeom.pairwise_edge_classification, []

    def spy(P, I, J, terrain, incident):
        seen.append(list(zip(I.tolist(), J.tolist())))
        return kernel(P, I, J, terrain, incident)

    monkeypatch.setattr(vecgeom, "pairwise_edge_classification", spy)
    nodes, _, _, _ = _visibility_graph(t, p, q)
    [pairs] = seen
    sides = {frozenset(e) for e in t.boundary_edges}
    assert not any(frozenset((nodes[i], nodes[j])) in sides for i, j in pairs)
    assert len(pairs) == rows < len(nodes) * (len(nodes) - 1) // 2


NOTCH = Terrain(Polygon([(-4, 0), (0, 0), (1, 1), (2, 0), (4, 0), (4, 4), (-4, 4)]))


def notch_apex():
    # p -> q passes 1e-5 below the apex (1, 1) of a V notch cut into the
    # bottom side: it leaves the terrain for 2e-5, about 3e-6 of its length,
    # between two crossing events that the dedup rule must both keep
    return NOTCH, Point(-3, 1 - 1e-5), Point(3, 1 - 1e-5)


def notch_floor():
    # p -> q runs 0.9 EPS below the bottom side, under the notch.  At the
    # notch's 45-degree corners it passes 1.27 EPS from the sides, so they
    # give no crossing event: only the ends of its collinear overlaps with
    # the bottom side mark where it leaves and re-enters the terrain
    return NOTCH, Point(-3.9, -0.9 * EPS), Point(2.5, -0.9 * EPS)


def l_obstacle():
    # the obstacle's reflex corner (3, 3) is convex in free space
    ell = Polygon([(2, 2), (6, 2), (6, 3), (3, 3), (3, 6), (2, 6)])
    return Terrain(square(0, 0, 8), [ell]), Point(4, 4), Point(1, 1)


@pytest.mark.parametrize("make", [
    random_regular, gadget_grid, lattice_3x3, comb, notch_apex, notch_floor, l_obstacle,
    pytest.param(lambda: suite_terrain(10), id="suite_10"),
    pytest.param(lambda: suite_terrain(21), id="suite_21")])
def test_visibility_graph_drops_exactly_the_free_space_convex_vertices(make):
    # a shortest path bends only where free space is reflex, so the graph
    # without the convex vertices gives the L of the graph with them all
    t, p, q = make()
    kept, dropped = [p, q], []
    for ring in t.rings:
        vs, n = ring.vertices, ring.n
        for i, v in enumerate(vs):
            a, b = vs[i - 1], vs[(i + 1) % n]
            # free space on the left: the outer ring as stored, obstacles reversed
            turn = cross3(a, v, b) if ring is t.outer else cross3(b, v, a)
            (dropped if turn > 0 else kept).append(v)
    nodes, _, _, _ = _visibility_graph(t, p, q)
    assert nodes == kept and dropped
    assert t.outer.is_convex == all(v not in nodes[2:] for v in t.outer.vertices)
    assert shortest_path(t, p, q) == all_vertex_path(t, p, q)


class _StopAtKernel(Exception):
    pass


def reflex_cases():
    for s in range(200):
        yield suite_terrain(s)
    for n in (8, 16):
        yield diamond_lattice(n), Point(0.1, 0.1), Point(n - 0.1, n - 0.1)
    for i in range(1, 25):
        yield comb_terrain(CombParams(12, i, 0.25))
    for k in (1, 2, 3, 4):
        for lam in (0.05, 0.5, 1.0):
            t, p, centers = regular_lb_terrain(k, lam)
            yield t, p, centers[-1]
    yield random_regular_terrain(1, 60, extent=30)
    yield random_regular_terrain(4, 40, extent=300)


def test_the_wedge_rule_needs_only_its_reflex_case(monkeypatch):
    # a free-space convex vertex would be free only left of both wedge
    # sides; the rule keeps only the reflex case, left of either, which is
    # exact when no kept vertex turns left by the wedge's own product
    # ix*oy - iy*ox (the node drop decides by cross3, rounded otherwise)
    kept = []

    def turn(a, u, b):
        c = cross3(a, u, b)
        if c <= 0:
            kept.append((a, u, b))
        return c

    def stop(*args):
        raise _StopAtKernel

    monkeypatch.setattr(oracle, "cross3", turn)
    monkeypatch.setattr(vecgeom, "pairwise_edge_classification", stop)
    for t, p, q in reflex_cases():
        with pytest.raises(_StopAtKernel):
            _visibility_graph(t, p, q)
    assert len(kept) == 12598
    assert not [u for a, u, b in kept
                if (u.x - a.x) * (b.y - u.y) - (u.y - a.y) * (b.x - u.x) > 0]


def last_gadget_treasure():
    t, p, centers = regular_lb_terrain(2, 0.5)
    return t, p, centers[-1]


# L as recorded before the visibility graph dropped the convex vertices
@pytest.mark.parametrize("make, L", [
    pytest.param(lambda: comb_terrain(CombParams(12, 1, 0.25)), 13.625081401796242, id="comb_1"),
    pytest.param(lambda: comb_terrain(CombParams(12, 12, 0.25)), 14.280591814011533,
                 id="comb_12"),
    pytest.param(lambda: comb_terrain(CombParams(12, 24, 0.25)), 22.317898697663967,
                 id="comb_24"),
    pytest.param(last_gadget_treasure, 21.399402875912713, id="gadget_grid_2_last")])
def test_shortest_path_keeps_its_recorded_bits(make, L):
    assert shortest_path(*make()) == L


def _probe_points(t, p, q):
    """p, q, then per boundary edge: its start, its midpoint and the two
    points EPS off the midpoint along the edge normal; then points 3e-12
    and 6e-12 along the first edge from its start."""
    pts = [p, q]
    for a, b in t.boundary_edges:
        m = lerp(a, b, 0.5)
        nx, ny = (a.y - b.y) / dist(a, b), (b.x - a.x) / dist(a, b)
        pts += [a, m, Point(m.x + EPS * nx, m.y + EPS * ny), Point(m.x - EPS * nx, m.y - EPS * ny)]
    a, b = t.boundary_edges[0]
    pts += [lerp(a, b, s / dist(a, b)) for s in (3e-12, 6e-12)]
    return pts


@pytest.mark.parametrize("make", [suite_terrain, lattice_3x3, comb, gadget_grid,
                                  notch_apex, notch_floor])
@given(data=st.data())
@settings(max_examples=15)
def test_batch_exact_test_is_the_scalar_test(make, data):
    t, p, q = make()
    pts = _probe_points(t, p, q)
    any_point = st.integers(0, len(pts) - 1)
    edge_start = st.integers(0, len(t.boundary_edges) - 1).map(lambda k: 2 + 4 * k)
    pair = st.one_of(
        st.tuples(any_point, any_point),
        any_point.map(lambda i: (i, i)),                            # zero length
        edge_start.map(lambda i: (i, i + 1)),                       # along an edge
        # from the edge midpoint, or a point EPS off it, back to the edge start
        st.tuples(edge_start, st.sampled_from([1, 2, 3])).map(lambda s: (s[0] + s[1], s[0])),
    )
    # p -> q always: the notch makers put their decisive segment there
    pairs = [(0, 1)] + data.draw(st.lists(pair, min_size=1, max_size=300))
    A = np.array([pts[i] for i, _ in pairs])
    B = np.array([pts[j] for _, j in pairs])
    got = segments_in_terrain(A, B, t)
    assert got.tolist() == [segment_in_terrain(pts[i], pts[j], t) for i, j in pairs]


# obstacles that touch the outer ring: an edge on an outer edge, a vertex on one
SHARED_EDGE = Terrain(square(0, 0, 10), [square(4, 0, 2)])
TOUCHING_DIAMOND = Terrain(square(0, 0, 10), [Polygon([(5, 0), (6, 1), (5, 2), (4, 1)])])

POINT_TERRAINS = {
    "suite": st.integers(0, 199).map(lambda seed: bench_scenario(seed).terrain),
    # a suite obstacle as its own terrain: the one-ring question of `nested`,
    # the obstacle-inside check and `first_hit`
    "obstacle_alone": (st.integers(0, 199)
                       .map(lambda seed: bench_scenario(seed).terrain.obstacles)
                       .filter(bool).flatmap(st.sampled_from).map(Terrain)),
    "comb": st.integers(1, 24).map(lambda i: comb_terrain(CombParams(12, i, 0.25))[0]),
    "lattice_4": st.just(diamond_lattice(4)),
    "shared_edge": st.just(SHARED_EDGE),
    "touching_diamond": st.just(TOUCHING_DIAMOND),
}


@pytest.mark.parametrize("family", sorted(POINT_TERRAINS))
@given(data=st.data())
@settings(max_examples=20)
def test_batch_point_test_is_the_scalar_test(family, data):
    t = data.draw(POINT_TERRAINS[family])
    edges = t.boundary_edges
    x0, _, x1, _ = t.outer.bbox
    edge = st.sampled_from(edges)
    on_ring = st.one_of(edge.map(lambda e: e[0]),                          # a vertex
                        st.tuples(edge, st.floats(0, 1)).map(lambda es: lerp(*es[0], es[1])))
    nudge = st.sampled_from([0.0, EPS, -EPS, 3 * EPS, -3 * EPS])
    point = st.one_of(
        on_ring,
        st.tuples(on_ring, nudge, nudge).map(lambda v: Point(v[0].x + v[1], v[0].y + v[2])),
        # at a vertex's exact y, so the parity ray may run through the vertex
        st.tuples(edge, st.floats(x0 - 1, x1 + 1)).map(lambda ex: Point(ex[1], ex[0][0].y)),
    )
    pts = data.draw(st.lists(point, min_size=1, max_size=200))
    got = vecgeom.points_in_terrain(np.array([p.x for p in pts]), np.array([p.y for p in pts]), t)
    assert got.tolist() == [point_in_terrain(p, t) for p in pts]


def test_within_eps_of_any_boundary_edge_is_in_the_terrain():
    # more than EPS below the outer edge y = 0 once rounded, but within EPS of
    # the obstacle edge on it: on the boundary, so in the terrain
    p = Point(5.3693720278750465, -1e-9)
    assert point_in_terrain(p, SHARED_EDGE)
    assert vecgeom.points_in_terrain(np.array([p.x]), np.array([p.y]), SHARED_EDGE).tolist() == [True]


def test_batch_exact_test_answers_do_not_depend_on_the_batch_size(monkeypatch):
    t, p, q = lattice_3x3()
    pts = np.array(_probe_points(t, p, q))
    I, J = np.triu_indices(len(pts), k=1)
    whole = segments_in_terrain(pts[I], pts[J], t)
    monkeypatch.setattr(vecgeom, "CHUNK_CELLS", 997 * len(t.boundary_edges))
    assert (segments_in_terrain(pts[I], pts[J], t) == whole).all()


# --- grid oracle ---------------------------------------------------------------------

def test_kernel_on_segments_along_an_edge_line_with_no_incident_edges():
    # the grid oracle's call: no point is a ring vertex, so every edge counts
    t = Terrain(square(0, 0, 10), [square(4, 4, 2)])  # bottom edge (4,4)-(6,4)
    P = np.array([[0.5, 4], [3, 4], [3, 4], [5, 4], [5, 3], [5, 5]], dtype=float)
    I, J = np.array([0, 2, 4]), np.array([1, 3, 5])
    blocked, ambiguous = pairwise_edge_classification(P, I, J, t, np.full((6, 2), -1))
    # collinear and apart: clear; collinear and overlapping: ambiguous; crossing: blocked
    assert blocked.tolist() == [False, False, True]
    assert ambiguous.tolist() == [False, True, False]


GRAPH_CALLS = [
    *(pytest.param(lambda s=seed: suite_terrain(s), id=f"suite_{seed}")
      for seed in range(0, 200, 10)),
    pytest.param(lambda: (diamond_lattice(4), Point(0.1, 0.1), Point(3.9, 3.9)), id="lattice_4"),
    *(pytest.param(lambda i=i: comb_terrain(CombParams(12, i, 0.25)), id=f"comb_{i}")
      for i in (1, 12, 24))]


@contextlib.contextmanager
def rows_split(blocks):
    """Every kernel call splits its rows into `blocks` blocks, whatever its
    size and the CPU count, each on a worker of its own, with thread
    switches forced often; yields (rows, future) of each block submitted."""
    submitted, interval = [], sys.getswitchinterval()
    with ThreadPoolExecutor(blocks) as pool:
        def submit(fill, rows):
            submitted.append((rows, pool.submit(fill, rows)))
            return submitted[-1][1]

        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.multiple(vecgeom, CHUNK_CELLS=1, _CPUS=blocks,
                                     _POOL=SimpleNamespace(submit=submit)):
                yield submitted
        finally:
            sys.setswitchinterval(interval)


def _graph_call_is_the_reference(make) -> int:
    """The kernel's answer on the visibility graph's one call is the
    broadcast reference's; returns the call's pair count."""
    t, p, q = make()
    kernel, calls = vecgeom.pairwise_edge_classification, []

    def both(*args):
        got = kernel(*args)
        calls.append((got, reference_edge_classification(*args)))
        return got

    with mock.patch.object(vecgeom, "pairwise_edge_classification", both):
        _visibility_graph(t, p, q)
    [(got, ref)] = calls
    assert [a.tolist() for a in got] == [a.tolist() for a in ref]
    return len(got[0])


@pytest.mark.parametrize("make", GRAPH_CALLS)
def test_kernel_is_the_broadcast_reference_on_the_graph_calls(make):
    _graph_call_is_the_reference(make)


@pytest.mark.parametrize("make", GRAPH_CALLS)
def test_kernel_split_into_row_blocks_is_the_broadcast_reference_on_the_graph_calls(make):
    # three blocks, of unequal sizes unless three divides the pair count,
    # alike in each of the kernel's passes over the rows (two when a cell
    # is collinear)
    with rows_split(3) as submitted:
        k = _graph_call_is_the_reference(make)
    sizes = [rows.stop - rows.start for rows, _ in submitted]
    assert len(sizes) in (3, 6) and sizes == sizes[:3] * (len(sizes) // 3)
    assert sum(sizes[:3]) == k and max(sizes) - min(sizes) <= 1


# The outer square's edges lie on the axes and on x, y = 10, so a point
# EPS/2, EPS or 2 EPS off one, on a candidate along the same line, lands
# on the kernel's margins EPS*max(|d|, 1) and EPS*max(|e|, 1) exactly; the
# obstacle's edges put the same offsets within rounding of them.
MARGIN_TERRAIN = Terrain(square(0, 0, 10), [square(4, 4, 2)])
EDGE_PARAMS = [-0.75, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 1.75]
EDGE_OFFSETS = [0.0, EPS / 2, EPS, 2 * EPS, -EPS / 2, -EPS, -2 * EPS]


def _off_edge(k, s, d):
    a, b = MARGIN_TERRAIN.boundary_edges[k]
    n = dist(a, b)
    return a.x + s * (b.x - a.x) + d * (a.y - b.y) / n, a.y + s * (b.y - a.y) + d * (b.x - a.x) / n


def _margin_calls_are_the_reference(data) -> int:
    """The kernel's answer on candidates along and across the margin
    terrain's edge lines is the broadcast reference's; returns the pair
    count."""
    edges = len(MARGIN_TERRAIN.boundary_edges)
    # every candidate with both ends off one edge line: each pair of
    # parameters along it and each pair of offsets (collinear overlaps,
    # collinear but apart, and tilted by a margin or two)
    k = data.draw(st.integers(0, edges - 1))
    pairs = list(itertools.product([_off_edge(k, s, d) for s in EDGE_PARAMS
                                    for d in EDGE_OFFSETS], repeat=2))
    # then candidates whose ends lie off edges of their own
    end = st.builds(_off_edge, st.integers(0, edges - 1), st.sampled_from(EDGE_PARAMS),
                    st.sampled_from(EDGE_OFFSETS))
    pairs += data.draw(st.lists(st.tuples(end, end), max_size=40))
    P = np.array([pt for pair in pairs for pt in pair], dtype=float)
    I, J = np.arange(0, len(P), 2), np.arange(1, len(P), 2)
    # half the ends carry edge ids, as ring vertices do, so some cells are not relevant
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    incident = np.where(rng.random((len(P), 1)) < 0.5, -1, rng.integers(0, edges, (len(P), 2)))
    got = pairwise_edge_classification(P, I, J, MARGIN_TERRAIN, incident)
    ref = reference_edge_classification(P, I, J, MARGIN_TERRAIN, incident)
    assert [a.tolist() for a in got] == [a.tolist() for a in ref]
    return len(I)


@given(data=st.data())
@settings(max_examples=40)
def test_kernel_is_the_broadcast_reference_at_its_margins(data):
    _margin_calls_are_the_reference(data)


@given(data=st.data())
@settings(max_examples=40)
def test_kernel_split_into_row_blocks_is_the_broadcast_reference_at_its_margins(data):
    blocks = data.draw(st.integers(2, 5))
    with rows_split(blocks) as submitted:
        k = _margin_calls_are_the_reference(data)
    sizes = [rows.stop - rows.start for rows, _ in submitted]
    assert len(sizes) in (blocks, 2 * blocks) and sizes == sizes[:blocks] * (len(sizes) // blocks)
    assert sum(sizes[:blocks]) == k and max(sizes) - min(sizes) <= 1


def test_a_block_that_fails_raises_once_every_block_has_ended():
    # of two blocks, the second raises MemoryError in its first side
    # product while the first is held up in each of its own: the caller
    # sees the error only once the first block has ended, so that no block
    # still writes into the arrays
    side = vecgeom._side

    def first_slow_second_fails(*args):
        out = args[6]  # a block's rows of one plane of the kernel's float arrays
        if (out.ctypes.data - out.base.ctypes.data) % out.base[0].nbytes:  # not from row 0
            raise MemoryError("second block")
        time.sleep(0.05)
        return side(*args)

    P = np.array([_off_edge(k, s, EPS) for k in range(8) for s in EDGE_PARAMS], dtype=float)
    I, J = np.triu_indices(len(P), k=1)
    with rows_split(2) as submitted, \
            mock.patch.object(vecgeom, "_side", first_slow_second_fails):
        with pytest.raises(MemoryError, match="second block"):
            pairwise_edge_classification(P, I, J, MARGIN_TERRAIN, np.full((len(P), 2), -1))
        assert [future.done() for _, future in submitted] == [True, True]
        assert submitted[0][1].exception() is None


def test_grid_oracle_empty_terrain_distortion():
    t = empty_square_terrain()
    p, q = Point(1.1, 1.3), Point(8.2, 6.1)
    L = math.dist(p, q)
    G = grid_path_oracle(t, p, q, 0.05)
    assert L <= G <= 1.09 * L


def test_grid_oracle_degenerate():
    t = empty_square_terrain()
    assert grid_path_oracle(t, Point(2, 2), Point(2, 2), 0.1) == 0.0


def test_grid_oracle_on_a_comb_in_bounded_memory():
    # the lattice edges are classified in chunks, so memory does not grow
    # with the number of lattice edges times boundary edges
    t, p, q = comb_terrain(CombParams(12, 3, 0.25))
    tracemalloc.start()
    try:
        G = grid_path_oracle(t, p, q, 0.0625)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    L = shortest_path(t, p, q)
    assert L <= G <= 1.09 * L
    assert peak < 100 << 20


def test_grid_oracle_upper_bounds_geodesic():
    t, p, q = random_regular_terrain(42, 4)
    L = shortest_path(t, p, q)
    G = grid_path_oracle(t, p, q, 0.05)
    assert L <= G <= 1.09 * L
