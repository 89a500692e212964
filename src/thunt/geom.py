"""Planar geometry kernel: polygons, terrains with obstacles, visibility,
boundary walks, and fatness measures.

Conventions
-----------
* Polygons are simple and stored counterclockwise.  The constructor
  passes over the edges until a pass changes nothing, each time doing the
  first that applies: drop the vertices that start an edge no longer than
  EPS, drop the vertices within EPS of their neighbours' chord (measured
  from its lexicographically smaller end, so that the orientation decides
  no vertex), reverse a clockwise ring.  So a clean counterclockwise ring
  takes one pass, which also reads the edge lengths, the bbox and strict
  convexity.  It then takes the ring's star certificate about the area
  centroid c0, and stores R_plus and rho (not c0).  With the shortest
  edge, the certificate proves most convex rings simple without the
  sweep; alone it settles most fatness questions.
* A Terrain is a closed outer polygon minus the *open* interiors of its
  obstacles, so every boundary point belongs to the terrain.
* All predicates use the absolute tolerance EPS: a point within EPS of a
  boundary counts as being on it.  Generated terrains keep their features
  far above this scale.
"""
from __future__ import annotations

import bisect
import heapq
import itertools
import math
from typing import NamedTuple, Optional, Sequence

EPS = 1e-9
# The one on-ring tolerance, of the agent and the verifier alike: points that
# land on a ring via chained intersection arithmetic carry more rounding error
# than raw coordinates, so it is looser than EPS but far below feature sizes.
ON_RING_TOL = 1e-7
# Arc-length slack: of the agent's boundary-walk stop detection and of the
# verifier's arc and cow-path bound comparisons.
ARC_TOL = 1e-9
# The paper's sight radius: p sees q when |pq| is at most 1, within EPS.
SIGHT_RADIUS = 1.0 + EPS
# The boundary-event rule of the segment test: a segment and an edge are
# parallel when the sine of their angle is at most PARALLEL_SIN, and an
# event is kept only when it lies more than EVENT_GAP above the one before.
PARALLEL_SIN = 1e-12
EVENT_GAP = 1e-12


class GeometryError(ValueError):
    pass


class TerrainError(GeometryError):
    pass


class Point(NamedTuple):
    x: float
    y: float


def dist(a: Point, b: Point) -> float:
    return math.hypot(b.x - a.x, b.y - a.y)


def polyline_length(points: Sequence[Point]) -> float:
    """The length of a polyline, its steps summed in order."""
    return sum(dist(a, b) for a, b in zip(points, points[1:]))


def lerp(a: Point, b: Point, t: float) -> Point:
    return Point(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)


def cross3(o: Point, a: Point, b: Point) -> float:
    """Twice the signed area of triangle o-a-b (positive = left turn)."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def point_segment_distance(p: Point, a: Point, b: Point) -> float:
    dx, dy = b.x - a.x, b.y - a.y
    L2 = dx * dx + dy * dy
    if L2 <= EPS * EPS:
        return math.hypot(p.x - a.x, p.y - a.y)
    t = ((p.x - a.x) * dx + (p.y - a.y) * dy) / L2
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    return math.hypot(p.x - (a.x + t * dx), p.y - (a.y + t * dy))


def segment_segment_distance(a: Point, b: Point, c: Point, d: Point) -> float:
    """Least distance between segments ab and cd: 0 when they cross
    transversally, else the least distance from an endpoint to the other
    segment."""
    abx, aby = b.x - a.x, b.y - a.y
    cdx, cdy = d.x - c.x, d.y - c.y
    # cross3(a, b, c), cross3(a, b, d), cross3(c, d, a), cross3(c, d, b)
    s0 = abx * (c.y - a.y) - aby * (c.x - a.x)
    s1 = abx * (d.y - a.y) - aby * (d.x - a.x)
    w0 = cdx * (a.y - c.y) - cdy * (a.x - c.x)
    w1 = cdx * (b.y - c.y) - cdy * (b.x - c.x)
    if ((s0 > 0.0 > s1 or s0 < 0.0 < s1) and (w0 > 0.0 > w1 or w0 < 0.0 < w1)
            and math.hypot(abx, aby) > EPS and math.hypot(cdx, cdy) > EPS):
        return 0.0
    return min(
        point_segment_distance(a, c, d),
        point_segment_distance(b, c, d),
        point_segment_distance(c, a, b),
        point_segment_distance(d, a, b),
    )


def convex_hull(points: Sequence[Point]) -> list[Point]:
    """Counterclockwise convex hull (Andrew's monotone chain)."""
    pts = sorted(set(Point(float(p[0]), float(p[1])) for p in points))
    if len(pts) < 3:
        return pts
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and cross3(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross3(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


class Polygon:
    """Simple polygon with normalized counterclockwise vertex order.

    The constructor takes one star certificate of the normalized ring.
    `is_convex` is whether it turns strictly left (cross3 > 0) at every
    vertex.  For a convex ring, take c0, the area centroid (summed
    relative to vertex 0, so its offsets survive translation); `R_plus` is
    the largest |v - c0| and `rho` the least signed distance from c0 to an
    edge line, inward positive.  Any other ring gets inf and -inf.  The
    disc about c0 of radius R_plus holds the polygon, and when rho > 0 the
    disc of radius rho lies in it.  With the shortest edge and the winding
    number about c0, the certificate settles simplicity
    (`_star_is_simple`); alone it settles fatness (`is_c_fat`).
    """

    __slots__ = ("vertices", "n", "perimeter", "cum_arc", "bbox", "edges",
                 "is_convex", "R_plus", "rho")

    def __init__(self, vertices: Sequence):
        verts = [Point(float(v[0]), float(v[1])) for v in vertices]
        for v in verts:
            if not (math.isfinite(v.x) and math.isfinite(v.y)):
                raise GeometryError("polygon vertex has non-finite coordinates")
        verts, lengths, self.bbox, self.is_convex = _ring(verts)
        self.vertices: tuple[Point, ...] = tuple(verts)
        self.n = len(verts)
        self.edges: tuple[tuple[Point, Point], ...] = tuple(
            zip(self.vertices, self.vertices[1:] + self.vertices[:1]))
        self.cum_arc: tuple[float, ...] = tuple(itertools.accumulate(lengths, initial=0.0))
        self.perimeter = self.cum_arc[-1]
        self.R_plus, self.rho, winds = (
            _star(verts, lengths) if self.is_convex else (math.inf, -math.inf, 0))
        if not _star_is_simple(self, min(lengths), winds):
            _check_simple(self.edges)

    def point_at_arc(self, s: float) -> Point:
        s = s % self.perimeter
        i = bisect.bisect_right(self.cum_arc, s) - 1
        i = min(i, self.n - 1)
        seg_len = self.cum_arc[i + 1] - self.cum_arc[i]
        t = 0.0 if seg_len <= EPS else (s - self.cum_arc[i]) / seg_len
        return lerp(self.vertices[i], self.vertices[(i + 1) % self.n], t)

    def locate(self, p: Point, near: Optional[int] = None) -> tuple[int, float]:
        """Edge index and arc position (in [0, perimeter)) of a point on the
        ring, within ON_RING_TOL; raises if off it.  Given `near`, an edge
        index, that edge and its two neighbours are tried first, and the
        whole ring only if none is close."""
        vs, n = self.vertices, self.n
        tries = [range(n)] if near is None else [[(near + k) % n for k in (-1, 0, 1)], range(n)]
        for edges in tries:
            best = (ON_RING_TOL, -1, 0.0)
            for i in edges:
                a, b = vs[i], vs[(i + 1) % n]
                d = point_segment_distance(p, a, b)
                if d < best[0]:
                    L2 = (b.x - a.x) ** 2 + (b.y - a.y) ** 2
                    t = 0.0
                    if L2 > EPS * EPS:
                        t = ((p.x - a.x) * (b.x - a.x) + (p.y - a.y) * (b.y - a.y)) / L2
                        t = min(1.0, max(0.0, t))
                    best = (d, i, t)
            _, i, t = best
            if i >= 0:
                cum = self.cum_arc
                return i, (cum[i] + t * (cum[i + 1] - cum[i])) % self.perimeter
        raise GeometryError("point is not on the ring")

    def __repr__(self) -> str:
        return f"Polygon({list(self.vertices)!r})"


def _ring(verts: list[Point]):
    """The ring normalized as the module docstring says, its edge lengths,
    its bbox and whether it turns strictly left at every vertex.  It is
    reversed at most once: the shoelace sum of a ring with next to no area
    can round negative in both orders."""
    flipped = False
    while len(verts) >= 3:
        lengths, keep = [], []
        convex, area, a = True, 0.0, verts[-1]
        for v, b in zip(verts, verts[1:] + verts[:1]):
            lengths.append(dist(v, b))
            keep.append(point_segment_distance(v, *((a, b) if a <= b else (b, a))) > EPS)
            area += v.x * b.y - b.x * v.y
            convex = convex and cross3(a, v, b) > 0
            a = v
        if min(lengths) <= EPS:
            verts = [v for v, L in zip(verts, lengths) if L > EPS]
        elif not all(keep):
            verts = list(itertools.compress(verts, keep))
        elif area < 0 and not flipped:
            verts, flipped = verts[::-1], True
        else:
            xs, ys = zip(*verts)
            return verts, lengths, (min(xs), min(ys), max(xs), max(ys)), convex
    raise GeometryError("polygon needs at least 3 non-degenerate vertices")


def _star(verts: Sequence[Point], lengths: Sequence[float]) -> tuple[float, float, int]:
    """R_plus and rho of a convex ring (see `Polygon`), and the number of
    times it winds about c0."""
    x0, y0 = verts[0]
    rel = [(v.x - x0, v.y - y0) for v in verts]
    a2 = sx = sy = 0.0
    for (ux, uy), (wx, wy) in zip(rel, rel[1:] + rel[:1]):
        k = ux * wy - uy * wx
        a2 += k
        sx += (ux + wx) * k
        sy += (uy + wy) * k
    cx, cy = sx / (3.0 * a2), sy / (3.0 * a2)
    offsets = [(ux - cx, uy - cy) for ux, uy in rel]
    pairs = list(zip(offsets, offsets[1:] + offsets[:1]))
    R_plus = max(math.hypot(ux, uy) for ux, uy in offsets)
    rho = min((ux * wy - uy * wx) / L for ((ux, uy), (wx, wy)), L in zip(pairs, lengths))
    # with rho > 0 every edge turns counterclockwise about c0, so each
    # upward crossing of the line through c0 is a crossing of its +x ray
    winds = sum(uy < 0.0 <= wy for (_, uy), (_, wy) in pairs)
    return R_plus, rho, winds


def _star_is_simple(poly: Polygon, ell: float, winds: int) -> bool:
    """Whether the star certificate, with the shortest edge `ell` and the
    winding number about c0, proves the ring simple, so that
    `_check_simple` would pass it.

    Let the ring be convex, with rho > 0 and winding once about c0.  Each
    edge then sweeps an angle phi in (0, pi) about c0, and in ring order
    these angles fill one turn about c0.  The triangle of c0 and an edge
    of length L has area L h / 2 with h >= rho, and at most
    R_plus^2 sin(phi) / 2, so sin(phi) >= ell rho / R_plus^2.

    Non-adjacent edges.  Take a vertex v and an edge e not incident to it.
    On either side, a whole edge's sector lies between v's ray from c0 and
    e's sector, so the rays to v and to any point p of e are psi >= min phi
    apart, and v and p lie at least rho from c0.  Then |v - p| >= rho when
    psi >= pi/2, and >= rho sin(psi) >= rho sin(min phi) when it is less.
    So non-adjacent edges, whose sectors do not overlap, lie at least
    gap = rho min(1, ell rho / R_plus^2) apart.

    Fold-back.  At a vertex whose edges e1, e2 have dot(e1, e2) < 0 the
    interior angle alpha is below pi/2.  The disc of radius rho about c0
    lies in the vertex's wedge with its centre at most R_plus from the
    apex, so sin(alpha/2) >= rho / R_plus and
    |e1 x e2| = |e1||e2| sin(alpha) >= sqrt(2) |e1||e2| rho / R_plus
    >= sqrt(2) fold max(1, |e1||e2|), where fold = rho min(1, ell^2) / R_plus.

    `_check_simple` flags a pair of edges at most EPS apart and a fold-back
    with |e1 x e2| <= EPS max(1, |e1||e2|).  So gap > 2 EPS and fold > 2 EPS
    pass both tests with room for the rounding of the certificate's own
    sums; gap also clears 2^-46 times the largest coordinate magnitude,
    which bounds the rounding of `point_segment_distance` in absolute
    coordinates.  Nor does `segment_segment_distance` find a crossing:
    every vertex of a strictly convex ring lies left of each edge line it
    is not on, and both of a pair's side tests would have to round to the
    wrong sign.
    """
    if winds != 1 or not poly.rho > 0.0:
        return False
    rho, R_plus = poly.rho, poly.R_plus
    scale = max(map(abs, poly.bbox))
    return (rho * min(1.0, ell * rho / (R_plus * R_plus)) > 2.0 * EPS + scale * 2.0 ** -46
            and rho * min(1.0, ell * ell) / R_plus > 2.0 * EPS)


def _check_simple(edges: Sequence[tuple[Point, Point]]) -> None:
    n = len(edges)
    # adjacent edges must not fold back onto each other
    for i in range(n):
        a, b = edges[i - 1]
        _, c = edges[i]
        e1 = (b.x - a.x, b.y - a.y)
        e2 = (c.x - b.x, c.y - b.y)
        crs = e1[0] * e2[1] - e1[1] * e2[0]
        dot = e1[0] * e2[0] + e1[1] * e2[1]
        if abs(crs) <= EPS * max(1.0, math.hypot(*e1) * math.hypot(*e2)) and dot < 0:
            raise GeometryError("polygon is not simple (fold-back at a vertex)")
    # non-adjacent edges must not come within EPS of each other.  A sweep
    # by leftmost x (Shamos & Hoey 1976) tests each edge only against the
    # earlier edges whose x-range still reaches its own: near-linear on
    # dense rings such as combs with thousands of narrow teeth
    boxes = [_segment_bbox(a, b) for a, b in edges]
    active: list[int] = []
    for i in sorted(range(n), key=lambda k: boxes[k][0]):
        x0, y0, _, y1 = boxes[i]
        active = [j for j in active if boxes[j][2] >= x0 - EPS]
        for j in active:
            if (boxes[j][1] > y1 + EPS or boxes[j][3] < y0 - EPS
                    or j == (i + 1) % n or i == (j + 1) % n):
                continue
            if segment_segment_distance(*edges[i], *edges[j]) <= EPS:
                raise GeometryError(
                    f"polygon is not simple (edges {min(i, j)} and {max(i, j)} touch)")
        active.append(i)


class Terrain:
    """Closed outer polygon minus the open interiors of its obstacles.

    Obstacles are open sets: their interiors must lie inside the outer
    polygon's interior (a closure may touch the outer boundary from
    within), and their closures must be pairwise disjoint: rings more than
    EPS apart (`ring_distance`), neither `nested` in the other.  Under those
    conditions the navigable set is automatically connected, so no
    connectivity check is done here.

    `rings` is the one ring list, the outer ring first and then the
    obstacles: a ring is named by its `Polygon`, never by a number.
    `boundary_edges` chains the rings' edges in that order.
    """

    __slots__ = ("outer", "obstacles", "rings", "boundary_edges")

    def __init__(self, outer: Polygon, obstacles: Sequence[Polygon] = ()):
        self.outer = outer
        self.obstacles = tuple(obstacles)
        self.rings: tuple[Polygon, ...] = (outer, *self.obstacles)
        # an obstacle lies in the outer polygon when its boundary does: no
        # vertex outside, and no edge leaving it between boundary events.
        # A convex outer ring holds every edge whose ends it holds
        bare = Terrain(outer) if self.obstacles and not outer.is_convex else None
        for i, obs in enumerate(self.obstacles):
            if (not all(point_in_rings(v, (outer,)) for v in obs.vertices)
                    or (bare is not None
                        and any(_first_exit(a, b, bare) is not None for a, b in obs.edges))):
                raise TerrainError(f"obstacle {i} is not inside the outer polygon")
        for (i, a), (j, b) in itertools.combinations(enumerate(self.obstacles), 2):
            # rings whose bboxes lie apart can neither touch nor nest
            if bbox_gap(a.bbox, b.bbox) <= 2 * EPS and (
                    ring_distance(a, b, 2 * EPS) <= EPS or nested(a, b)):
                raise TerrainError(f"obstacles {i} and {j} are not disjoint")
        self.boundary_edges: tuple[tuple[Point, Point], ...] = tuple(
            itertools.chain.from_iterable(ring.edges for ring in self.rings))


def bbox_gap(a: tuple[float, ...], b: tuple[float, ...]) -> float:
    """Largest axis gap between two (x0, y0, x1, y1) boxes; no two points
    of them are closer than that."""
    return max(b[0] - a[2], a[0] - b[2], b[1] - a[3], a[1] - b[3])


def _segment_bbox(a: Point, b: Point) -> tuple[float, float, float, float]:
    return (min(a.x, b.x), min(a.y, b.y), max(a.x, b.x), max(a.y, b.y))


def ring_distance(a: Polygon, b: Polygon, reach: float) -> float:
    """Least distance between the rings of a and b when below `reach`, else
    at least `reach`; edges whose bbox lies `reach` from the other ring's
    are skipped, being at least that far away."""
    if bbox_gap(a.bbox, b.bbox) >= reach:
        return reach
    near = [e for e in b.edges if bbox_gap(_segment_bbox(*e), a.bbox) < reach]
    best = reach
    for ea in a.edges:
        if bbox_gap(_segment_bbox(*ea), b.bbox) >= reach:
            continue
        for eb in near:
            d = segment_segment_distance(*ea, *eb)
            if d < best:
                if d == 0.0:
                    return 0.0
                best = d
    return best


def nested(a: Polygon, b: Polygon) -> bool:
    """Whether either ring holds the other's first vertex: for rings that
    do not touch, whether one polygon lies inside the other."""
    return point_in_rings(a.vertices[0], (b,)) or point_in_rings(b.vertices[0], (a,))


def point_in_rings(p: Point, rings: Sequence[Polygon]) -> bool:
    """Whether p lies within EPS of an edge of the rings, or else inside an
    odd number of them: the even-odd rule (Shimrat 1962), in one pass over
    the edges, whose half-open rule makes vertex hits unambiguous.  A ring
    whose bbox lies more than EPS from p is skipped: no edge of it is that
    close, and the ray from p crosses it an even number of times.  On one
    ring this is the closed polygon."""
    px, py = p
    inside = False
    for ring in rings:
        x0, y0, x1, y1 = ring.bbox
        if px < x0 - EPS or px > x1 + EPS or py < y0 - EPS or py > y1 + EPS:
            continue
        for a, b in ring.edges:
            if (a.y > py) != (b.y > py) and px < a.x + (py - a.y) * (b.x - a.x) / (b.y - a.y):
                inside = not inside
            if ((px >= a.x - EPS or px >= b.x - EPS) and (px <= a.x + EPS or px <= b.x + EPS)
                    and (py >= a.y - EPS or py >= b.y - EPS)
                    and (py <= a.y + EPS or py <= b.y + EPS)
                    and point_segment_distance(p, a, b) <= EPS):
                return True
    return inside


def point_in_terrain(p: Point, t: Terrain) -> bool:
    """`point_in_rings` over the terrain's rings.  Parity is enough: the
    obstacle interiors lie in the outer ring's interior and are pairwise
    disjoint, so an odd count means inside the outer ring and outside every
    obstacle."""
    return point_in_rings(p, t.rings)


def _segment_boundary_params(a: Point, b: Point, t: Terrain) -> list[float]:
    """Sorted parameters in [0,1] where segment ab meets any boundary edge.

    Collinear overlaps contribute both overlap endpoints, and 0 and 1 are
    always events.  The segment and an edge are parallel when the sine of
    their angle is at most PARALLEL_SIN.  An event within EVENT_GAP of the
    event just before it is dropped, so a run of such events (a graze
    through a vertex) is one.
    """
    dx, dy = b.x - a.x, b.y - a.y
    L = math.hypot(dx, dy)  # > EPS: `_first_exit`, the one caller, returned on shorter ones
    sx0, sx1 = min(a.x, b.x) - EPS, max(a.x, b.x) + EPS
    sy0, sy1 = min(a.y, b.y) - EPS, max(a.y, b.y) + EPS
    tol_t = EPS / L
    ts = [0.0, 1.0]
    for u, v in t.boundary_edges:
        if max(u.x, v.x) < sx0 or min(u.x, v.x) > sx1 or max(u.y, v.y) < sy0 or min(u.y, v.y) > sy1:
            continue
        ex, ey = v.x - u.x, v.y - u.y
        Le = math.hypot(ex, ey)
        denom = dx * ey - dy * ex
        if abs(denom) > PARALLEL_SIN * L * Le:
            wx, wy = u.x - a.x, u.y - a.y
            tt = (wx * ey - wy * ex) / denom
            ss = (wx * dy - wy * dx) / denom
            if -tol_t <= tt <= 1.0 + tol_t and -EPS / Le <= ss <= 1.0 + EPS / Le:
                ts.append(min(1.0, max(0.0, tt)))
        else:
            # parallel; collinear overlap only when the lines coincide
            if abs((u.x - a.x) * dy - (u.y - a.y) * dx) / L <= EPS:
                tu = ((u.x - a.x) * dx + (u.y - a.y) * dy) / (L * L)
                tv = ((v.x - a.x) * dx + (v.y - a.y) * dy) / (L * L)
                lo, hi = min(tu, tv), max(tu, tv)
                if hi >= -tol_t and lo <= 1.0 + tol_t:
                    ts.append(min(1.0, max(0.0, lo)))
                    ts.append(min(1.0, max(0.0, hi)))
    ts.sort()
    return ts[:1] + [v for u, v in zip(ts, ts[1:]) if v - u > EVENT_GAP]


def _first_exit(a: Point, b: Point, t: Terrain) -> Optional[tuple[list[float], int, Point]]:
    """First interval of segment ab, between consecutive boundary events,
    whose midpoint leaves the terrain: the events, the interval's index
    and its midpoint.  None when every midpoint stays in (or on) the
    terrain."""
    if dist(a, b) <= EPS:
        return None
    ts = _segment_boundary_params(a, b, t)
    for i in range(len(ts) - 1):
        mid = lerp(a, b, 0.5 * (ts[i] + ts[i + 1]))
        if not point_in_terrain(mid, t):
            return ts, i, mid
    return None


def segment_in_terrain(a: Point, b: Point, t: Terrain) -> bool:
    """True iff every point of segment ab lies in the terrain.

    Segments riding along boundaries count as contained: the interval
    midpoints between boundary events land on the boundary, which belongs
    to the terrain.
    """
    return point_in_terrain(a, t) and point_in_terrain(b, t) and _first_exit(a, b, t) is None


def sees(p: Point, q: Point, t: Terrain) -> bool:
    """The paper's sight predicate, for any two points of the plane: |pq| is
    at most SIGHT_RADIUS and the segment pq lies in the terrain.  A point
    outside the terrain sees nothing."""
    return dist(p, q) <= SIGHT_RADIUS and segment_in_terrain(p, q, t)


class HitEvent(NamedTuple):
    point: Point
    ring: Polygon  # the ring crossed: an obstacle entered, or t.outer left
    reentry: Point


def first_hit(frm: Point, toward: Point, t: Terrain) -> Optional[HitEvent]:
    """First point along segment frm->toward where continuing would leave
    the terrain (enter an obstacle interior or exit the outer polygon),
    and the point where the segment comes back into the terrain.

    Both are boundary events of the segment: the hit starts the first run
    of intervals whose midpoints lie outside, and the re-entry ends that
    run (it is `toward` itself when the segment ends outside).  Tangential
    touches and stretches riding along a boundary do not count, neither as
    a hit nor as a re-entry.  Returns None when the whole segment stays
    navigable.
    """
    if not point_in_terrain(frm, t):
        raise GeometryError("free move must start inside the terrain")
    found = _first_exit(frm, toward, t)
    if found is None:
        return None
    ts, i, mid = found
    # mid lies outside the terrain, so no edge lies within EPS of it, and
    # the closed obstacle that holds it holds it in its interior
    ring = next((obs for obs in t.obstacles if point_in_rings(mid, (obs,))), t.outer)
    j = i + 1
    while j + 1 < len(ts) and not point_in_terrain(
            lerp(frm, toward, 0.5 * (ts[j] + ts[j + 1])), t):
        j += 1
    return HitEvent(lerp(frm, toward, ts[i]), ring, lerp(frm, toward, ts[j]))


def march(ring: Polygon, start_arc: float, length: float, direction: int) -> list[Point]:
    """Polyline along the ring boundary from an arc position.

    Walks in the sense `direction` (+1 counterclockwise, -1 clockwise).
    Includes both endpoints and every vertex passed; wraps around the ring
    as many times as the length requires.
    """
    P = ring.perimeter
    cum = ring.cum_arc
    n = ring.n
    arc = start_arc % P
    pts = [ring.point_at_arc(arc)]
    remaining = length
    i = min(bisect.bisect_right(cum, arc) - 1, n - 1)
    if direction < 0 and arc - cum[i] <= 1e-12:
        # sitting on the start of edge i: walking backward means edge i-1
        i = (i - 1) % n
        arc = cum[i + 1]
    while remaining > 1e-12:
        step = min(cum[i + 1] - arc if direction > 0 else arc - cum[i], remaining)
        arc += direction * step
        remaining -= step
        if step > 1e-12:
            pts.append(ring.point_at_arc(arc % P))
        if remaining > 1e-12:  # on to the next edge, from its exact end
            i = (i + direction) % n
            arc = cum[i] if direction > 0 else cum[i + 1]
    return pts


def distance_to_boundary(p: Point, t: Terrain) -> float:
    """Distance from any point of the plane to the nearest boundary edge;
    whether the point lies in the terrain is the caller's question."""
    return min(point_segment_distance(p, a, b) for a, b in t.boundary_edges)


def _circle_from2(a: Point, b: Point) -> tuple[Point, float]:
    c = Point(0.5 * (a.x + b.x), 0.5 * (a.y + b.y))
    return c, max(dist(c, a), dist(c, b))


def _circle_from3(a: Point, b: Point, c: Point) -> tuple[Point, float]:
    """The circle through a, b and c; for three collinear points, the circle
    on the pair farthest apart."""
    d = 2.0 * (a.x * (b.y - c.y) + b.x * (c.y - a.y) + c.x * (a.y - b.y))
    if abs(d) < 1e-14 * max(1.0, dist(a, b) * dist(b, c)):
        return _circle_from2(*max((a, b), (b, c), (a, c), key=lambda e: dist(*e)))
    ax2, bx2, cx2 = a.x ** 2 + a.y ** 2, b.x ** 2 + b.y ** 2, c.x ** 2 + c.y ** 2
    ux = (ax2 * (b.y - c.y) + bx2 * (c.y - a.y) + cx2 * (a.y - b.y)) / d
    uy = (ax2 * (c.x - b.x) + bx2 * (a.x - c.x) + cx2 * (b.x - a.x)) / d
    ctr = Point(ux, uy)
    return ctr, max(dist(ctr, a), dist(ctr, b), dist(ctr, c))


def _in_circle(circle: tuple[Point, float], p: Point) -> bool:
    c, r = circle
    return dist(c, p) <= r * (1.0 + 1e-12) + 1e-14


def smallest_enclosing_circle(poly: Polygon) -> tuple[Point, float]:
    """Minimal circle containing the polygon (Welzl's incremental loops over
    the shuffled vertex set, so expected linear time and no recursion;
    enclosing a convex polygon equals enclosing its vertices).  Solved
    relative to vertex 0, so translation moves only the centre."""
    import random as _random
    x0, y0 = poly.vertices[0]
    pts = [Point(v.x - x0, v.y - y0) for v in poly.vertices]
    _random.Random(0x5EC).shuffle(pts)
    pts.reverse()  # the visiting order sets R's last bits, which the recorded suite keeps
    circle = (pts[0], 0.0)
    for i, p in enumerate(pts):
        if _in_circle(circle, p):
            continue
        circle = (p, 0.0)  # p is on the circle of pts[:i + 1]
        for j, q in enumerate(pts[:i]):
            if _in_circle(circle, q):
                continue
            circle = _circle_from2(p, q)  # so are p and q
            for r in pts[:j]:
                if not _in_circle(circle, r):
                    circle = _circle_from3(p, q, r)
    return Point(circle[0].x + x0, circle[0].y + y0), circle[1]


def largest_inscribed_circle(poly: Polygon) -> tuple[Point, float]:
    """Chebyshev center and radius of a convex polygon, relative to vertex 0.

    Every edge line moves inward at unit speed, and edge i shrinks to a
    point at the r where its neighbours' lines meet it.  The earliest such
    edge drops out and its neighbours become adjacent.  For a convex
    polygon this straight skeleton is the medial axis, so its last event,
    among the last four lines, is the optimum.  O(m log m) on m vertices.
    """
    if not poly.is_convex:
        raise GeometryError("largest_inscribed_circle requires a convex polygon")
    x0, y0 = poly.vertices[0]
    rel = [(v.x - x0, v.y - y0) for v in poly.vertices]
    lines = []
    for (ax, ay), (bx, by) in zip(rel, rel[1:] + rel[:1]):
        L = math.hypot(bx - ax, by - ay)
        nx, ny = (ay - by) / L, (bx - ax) / L  # inward for a CCW ring
        lines.append((nx, ny, nx * ax + ny * ay, -1.0))
    m = len(lines)
    prev, succ = [(i - 1) % m for i in range(m)], [(i + 1) % m for i in range(m)]

    def vanish_at(k: int) -> float:  # rows in index order, as the last scan takes them
        solved = _cramer([lines[j] for j in sorted((prev[k], k, succ[k]))], 0.0)
        return math.inf if solved is None else solved[2]

    vanish: list = [vanish_at(i) for i in range(m)]
    heap = sorted(zip(vanish, range(m)))  # a sorted list is a heap
    for _ in range(m - 4):
        r, i = heapq.heappop(heap)
        while vanish[i] != r:  # stale: dropped, or its neighbours changed
            r, i = heapq.heappop(heap)
        vanish[i] = None
        a, b = prev[i], succ[i]
        succ[a], prev[b] = b, a
        for k in (a, b):
            vanish[k] = vanish_at(k)
            heapq.heappush(heap, (vanish[k], k))
    # three of the last four lines can tie for the optimum in several ways
    # (a square's four triples): the first largest feasible triple wins
    live = [lines[k] for k in range(m) if vanish[k] is not None]
    fits = [s for s in (_cramer(t, 1e-12) for t in itertools.combinations(live, 3))
            if s and all(nx * s[0] + ny * s[1] - o >= s[2] - 1e-9 for nx, ny, o, _ in live)]
    if not fits:
        raise GeometryError("inscribed circle search failed (degenerate polygon)")
    x, y, r = max(fits, key=lambda s: s[2])
    return Point(x + x0, y + y0), r


def _cramer(rows, tiny: float) -> Optional[tuple[float, float, float]]:
    """The (x, y, r) at signed distance r from three edge lines, by Cramer's
    rule on their rows [nx, ny, -1 | o]; None when the determinant is at
    most `tiny` in magnitude."""
    def det(a, b, c):  # of the columns a, b, c, along the first row
        return (a[0] * (b[1] * c[2] - c[1] * b[2]) - b[0] * (a[1] * c[2] - c[1] * a[2])
                + c[0] * (a[1] * b[2] - b[1] * a[2]))

    nx, ny, o, ones = zip(*rows)
    D = det(nx, ny, ones)
    if not abs(D) > tiny:
        return None
    return det(o, ny, ones) / D, det(nx, o, ones) / D, det(nx, ny, o) / D


def is_c_fat(poly: Polygon, c: float) -> bool:
    """Enclosing-to-inscribed radius ratio at most c.

    The star certificate (see `Polygon`) comes first.  The disc about c0
    of radius R_plus holds every vertex, so the polygon, so R <= R_plus.
    If rho > 0, the disc about c0 of radius rho lies in every inner
    half-plane of the convex ring, so in the polygon, so r >= rho.  Then
    R_plus (1 + 1e-9) <= c rho proves R <= c r; the relative margin covers
    rounding.  Only when it fails are Welzl's circle and the Chebyshev
    center computed; a non-convex polygon always takes that path, and
    raises there.
    """
    if not 1 < c < math.inf:  # NaN too
        raise GeometryError("fatness parameter must be a finite number > 1")
    if poly.R_plus * (1.0 + 1e-9) <= c * poly.rho:
        return True
    _, R = smallest_enclosing_circle(poly)
    _, r = largest_inscribed_circle(poly)
    return R <= c * r + EPS


def validate_regular_terrain(t: Terrain, c: float) -> None:
    """Check for a convex outer polygon with convex c-fat obstacles; raises
    TerrainError with the reason when the terrain is not regular."""
    if not 1 < c < math.inf:  # NaN too
        raise GeometryError("fatness parameter must be a finite number > 1")
    if not t.outer.is_convex:
        raise TerrainError("outer polygon is not convex")
    for i, obs in enumerate(t.obstacles):
        if not obs.is_convex:
            raise TerrainError(f"obstacle {i} is not convex")
        if not is_c_fat(obs, c):
            _, R = smallest_enclosing_circle(obs)
            _, r = largest_inscribed_circle(obs)
            raise TerrainError(f"obstacle {i} is not {c}-fat (R/r = {R / r:.3f})")
