"""Planar geometry kernel: polygons, terrains with obstacles, visibility,
boundary walks, and fatness measures.

Conventions
-----------
* Polygons are simple and stored counterclockwise; the constructor accepts
  either orientation and normalizes (duplicate and collinear vertices are
  dropped).
* A Terrain is a closed outer polygon minus the *open* interiors of its
  obstacles, so every boundary point belongs to the terrain.
* All predicates use the absolute tolerance EPS: a point within EPS of a
  boundary counts as being on it.  Generated terrains keep their features
  far above this scale.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
from enum import Enum
from typing import NamedTuple, Optional, Sequence

import numpy as np

EPS = 1e-9
# Tolerance for "is this point on the ring" queries.  Points that land on a
# ring via chained intersection arithmetic carry more rounding error than raw
# coordinates, so this is looser than EPS but still far below feature sizes.
ON_RING_TOL = 1e-7
# Arc-length slack for boundary-walk stop detection.
ARC_TOL = 1e-9

OUTER_RING = -1  # ring id of the outer boundary (obstacles use their index)


class GeometryError(ValueError):
    pass


class TerrainError(GeometryError):
    pass


class Point(NamedTuple):
    x: float
    y: float


class Location(Enum):
    INTERIOR = "interior"
    ON_BOUNDARY = "on_boundary"
    EXTERIOR = "exterior"


def dist(a: Point, b: Point) -> float:
    return math.hypot(b.x - a.x, b.y - a.y)


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
    """Simple polygon with normalized counterclockwise vertex order."""

    __slots__ = ("vertices", "n", "perimeter", "cum_arc", "_bbox", "_convex", "_edges")

    def __init__(self, vertices: Sequence):
        verts = [Point(float(v[0]), float(v[1])) for v in vertices]
        for v in verts:
            if not (math.isfinite(v.x) and math.isfinite(v.y)):
                raise GeometryError("polygon vertex has non-finite coordinates")
        verts = _normalize_ring(verts)
        if len(verts) < 3:
            raise GeometryError("polygon needs at least 3 non-degenerate vertices")
        if _signed_area(verts) < 0:
            verts.reverse()
        self.vertices: tuple[Point, ...] = tuple(verts)
        self.n = len(verts)
        self._edges = tuple(zip(self.vertices, self.vertices[1:] + self.vertices[:1]))
        _check_simple(self._edges)
        cum = [0.0]
        for a, b in self._edges:
            cum.append(cum[-1] + dist(a, b))
        self.cum_arc: tuple[float, ...] = tuple(cum)
        self.perimeter = cum[-1]
        xs = [v.x for v in verts]
        ys = [v.y for v in verts]
        self._bbox = (min(xs), min(ys), max(xs), max(ys))
        self._convex: Optional[bool] = None

    @property
    def bbox(self) -> tuple[float, float, float, float]:
        return self._bbox

    def edges(self) -> tuple[tuple[Point, Point], ...]:
        return self._edges

    @property
    def is_convex(self) -> bool:
        """Whether the ring turns strictly left (cross3 > 0) at every vertex."""
        if self._convex is None:
            vs = self.vertices
            self._convex = all(cross3(vs[i - 1], v, vs[(i + 1) % self.n]) > 0
                               for i, v in enumerate(vs))
        return self._convex

    def point_at_arc(self, s: float) -> Point:
        s = s % self.perimeter
        i = bisect.bisect_right(self.cum_arc, s) - 1
        i = min(i, self.n - 1)
        seg_len = self.cum_arc[i + 1] - self.cum_arc[i]
        t = 0.0 if seg_len <= EPS else (s - self.cum_arc[i]) / seg_len
        return lerp(self.vertices[i], self.vertices[(i + 1) % self.n], t)

    def locate(self, p: Point, tol: float = ON_RING_TOL) -> tuple[int, float]:
        """Edge index and parameter of a point on the ring; raises if off it."""
        best = (tol, -1, 0.0)
        vs = self.vertices
        for i in range(self.n):
            a, b = vs[i], vs[(i + 1) % self.n]
            d = point_segment_distance(p, a, b)
            if d < best[0]:
                L2 = (b.x - a.x) ** 2 + (b.y - a.y) ** 2
                t = 0.0
                if L2 > EPS * EPS:
                    t = ((p.x - a.x) * (b.x - a.x) + (p.y - a.y) * (b.y - a.y)) / L2
                    t = min(1.0, max(0.0, t))
                best = (d, i, t)
        if best[1] < 0:
            raise GeometryError("point is not on the ring")
        return best[1], best[2]

    def arc_of_point(self, p: Point, tol: float = ON_RING_TOL) -> float:
        i, t = self.locate(p, tol)
        return (self.cum_arc[i] + t * (self.cum_arc[i + 1] - self.cum_arc[i])) % self.perimeter

    def __repr__(self) -> str:
        return f"Polygon({list(self.vertices)!r})"


def _normalize_ring(verts: list[Point]) -> list[Point]:
    """Drop consecutive duplicates and collinear middle vertices (cyclically)."""
    out = list(verts)
    changed = True
    while changed and len(out) >= 3:
        changed = False
        # duplicates
        kept = []
        for i, v in enumerate(out):
            if dist(v, out[(i + 1) % len(out)]) > EPS:
                kept.append(v)
        if len(kept) != len(out):
            out = kept
            changed = True
            continue
        # collinear middles: v[i] lying on segment v[i-1]..v[i+1]
        kept = []
        n = len(out)
        for i in range(n):
            a, v, b = out[i - 1], out[i], out[(i + 1) % n]
            if point_segment_distance(v, a, b) <= EPS:
                changed = True
                continue
            kept.append(v)
        out = kept
    return out


def _signed_area(verts: Sequence[Point]) -> float:
    s = 0.0
    n = len(verts)
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        s += a.x * b.y - b.x * a.y
    return 0.5 * s


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
    """

    __slots__ = ("outer", "obstacles", "boundary_edges", "_cache")

    def __init__(self, outer: Polygon, obstacles: Sequence[Polygon] = ()):
        self.outer = outer
        self.obstacles = tuple(obstacles)
        # an obstacle lies in the outer polygon when its boundary does: no
        # vertex outside, and no edge leaving it between boundary events.
        # A convex outer ring holds every edge whose ends it holds
        bare = Terrain(outer) if self.obstacles and not outer.is_convex else None
        for i, obs in enumerate(self.obstacles):
            if (any(point_in_polygon(v, outer) is Location.EXTERIOR for v in obs.vertices)
                    or (bare is not None
                        and any(_first_exit(a, b, bare) is not None for a, b in obs.edges()))):
                raise TerrainError(f"obstacle {i} is not inside the outer polygon")
        for (i, a), (j, b) in itertools.combinations(enumerate(self.obstacles), 2):
            # rings whose bboxes lie apart can neither touch nor nest
            if bbox_gap(a.bbox, b.bbox) <= 2 * EPS and (
                    ring_distance(a, b, 2 * EPS) <= EPS or nested(a, b)):
                raise TerrainError(f"obstacles {i} and {j} are not disjoint")
        self.boundary_edges: tuple[tuple[Point, Point], ...] = tuple(
            itertools.chain(outer.edges(), *(obs.edges() for obs in self.obstacles)))
        self._cache: dict = {}

    def ring(self, ring_id: int) -> Polygon:
        return self.outer if ring_id == OUTER_RING else self.obstacles[ring_id]

    def rings(self):
        yield OUTER_RING, self.outer
        for i, obs in enumerate(self.obstacles):
            yield i, obs

    @property
    def bbox(self) -> tuple[float, float, float, float]:
        return self.outer.bbox


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
    near = [e for e in b.edges() if bbox_gap(_segment_bbox(*e), a.bbox) < reach]
    best = reach
    for ea in a.edges():
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
    return (point_in_polygon(a.vertices[0], b) is not Location.EXTERIOR
            or point_in_polygon(b.vertices[0], a) is not Location.EXTERIOR)


def point_in_polygon(p: Point, poly: Polygon) -> Location:
    x0, y0, x1, y1 = poly.bbox
    if p.x < x0 - EPS or p.x > x1 + EPS or p.y < y0 - EPS or p.y > y1 + EPS:
        return Location.EXTERIOR
    px, py = p.x, p.y
    for a, b in poly.edges():
        if px < a.x - EPS and px < b.x - EPS:
            continue
        if px > a.x + EPS and px > b.x + EPS:
            continue
        if py < a.y - EPS and py < b.y - EPS:
            continue
        if py > a.y + EPS and py > b.y + EPS:
            continue
        if point_segment_distance(p, a, b) <= EPS:
            return Location.ON_BOUNDARY
    # even-odd ray cast; the half-open rule makes vertex hits unambiguous and
    # the boundary case was already handled above
    inside = False
    vs = poly.vertices
    n = poly.n
    for i in range(n):
        a, b = vs[i], vs[(i + 1) % n]
        if (a.y > p.y) != (b.y > p.y):
            xint = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y)
            if p.x < xint:
                inside = not inside
    return Location.INTERIOR if inside else Location.EXTERIOR


def point_in_terrain(p: Point, t: Terrain) -> bool:
    loc = point_in_polygon(p, t.outer)
    if loc is Location.EXTERIOR:
        return False
    if loc is Location.ON_BOUNDARY:
        return True
    for obs in t.obstacles:
        loc = point_in_polygon(p, obs)
        if loc is Location.INTERIOR:
            return False
        if loc is Location.ON_BOUNDARY:
            return True
    return True


def _segment_boundary_params(a: Point, b: Point, t: Terrain) -> list[float]:
    """Sorted parameters in [0,1] where segment ab meets any boundary edge.

    Collinear overlaps contribute both overlap endpoints.  Always contains
    0 and 1, deduplicated.
    """
    dx, dy = b.x - a.x, b.y - a.y
    L = math.hypot(dx, dy)
    if L <= EPS:
        return [0.0, 1.0]
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
        if abs(denom) > 1e-12 * L * Le:
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
    out = [ts[0]]
    for v in ts[1:]:
        if v - out[-1] > 1e-12:
            out.append(v)
    return out


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
    """Mutual visibility: |pq| <= 1 and the segment stays in the terrain."""
    if not point_in_terrain(p, t) or not point_in_terrain(q, t):
        raise GeometryError("sees() requires both points inside the terrain")
    if dist(p, q) > 1.0 + EPS:
        return False
    return segment_in_terrain(p, q, t)


class HitEvent(NamedTuple):
    point: Point
    ring: int  # OUTER_RING or obstacle index
    travel: float
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
    ring = next((k for k, obs in enumerate(t.obstacles)
                 if point_in_polygon(mid, obs) is Location.INTERIOR), OUTER_RING)
    j = i + 1
    while j + 1 < len(ts) and not point_in_terrain(
            lerp(frm, toward, 0.5 * (ts[j] + ts[j + 1])), t):
        j += 1
    return HitEvent(lerp(frm, toward, ts[i]), ring, ts[i] * dist(frm, toward),
                    lerp(frm, toward, ts[j]))


def march(ring: Polygon, start_arc: float, length: float, direction: int) -> list[Point]:
    """Polyline along the ring boundary from an arc position.

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
        if direction > 0:
            room = cum[i + 1] - arc
            step = min(room, remaining)
            arc += step
        else:
            room = arc - cum[i]
            step = min(room, remaining)
            arc -= step
        remaining -= step
        if step > 1e-12:
            pts.append(ring.point_at_arc(arc % P))
        if remaining > 1e-12:
            if direction > 0:
                i = (i + 1) % n
                arc = cum[i]
            else:
                i = (i - 1) % n
                arc = cum[i + 1]
    return pts


def perimeter_split(ring: Polygon, a: Point, b: Point) -> tuple[float, float]:
    """The two arc lengths between ring points a and b, smaller first."""
    pa = ring.arc_of_point(a)
    pb = ring.arc_of_point(b)
    d = (pb - pa) % ring.perimeter
    return (d, ring.perimeter - d) if d <= ring.perimeter - d else (ring.perimeter - d, d)


def distance_to_boundary(p: Point, t: Terrain) -> float:
    """Distance from a terrain point to the nearest boundary segment."""
    if not point_in_terrain(p, t):
        raise GeometryError("point is outside the terrain")
    return min(point_segment_distance(p, a, b) for a, b in t.boundary_edges)


def _circle_from2(a: Point, b: Point) -> tuple[Point, float]:
    c = Point(0.5 * (a.x + b.x), 0.5 * (a.y + b.y))
    return c, max(dist(c, a), dist(c, b))


def _circle_from3(a: Point, b: Point, c: Point) -> Optional[tuple[Point, float]]:
    d = 2.0 * (a.x * (b.y - c.y) + b.x * (c.y - a.y) + c.x * (a.y - b.y))
    if abs(d) < 1e-14 * max(1.0, dist(a, b) * dist(b, c)):
        return None
    ax2, bx2, cx2 = a.x ** 2 + a.y ** 2, b.x ** 2 + b.y ** 2, c.x ** 2 + c.y ** 2
    ux = (ax2 * (b.y - c.y) + bx2 * (c.y - a.y) + cx2 * (a.y - b.y)) / d
    uy = (ax2 * (c.x - b.x) + bx2 * (a.x - c.x) + cx2 * (b.x - a.x)) / d
    ctr = Point(ux, uy)
    return ctr, max(dist(ctr, a), dist(ctr, b), dist(ctr, c))


def _in_circle(circle: Optional[tuple[Point, float]], p: Point) -> bool:
    if circle is None:
        return False
    c, r = circle
    return dist(c, p) <= r * (1.0 + 1e-12) + 1e-14


def _trivial_circle(boundary: list[Point]) -> Optional[tuple[Point, float]]:
    if not boundary:
        return None
    if len(boundary) == 1:
        return boundary[0], 0.0
    if len(boundary) == 2:
        return _circle_from2(*boundary)
    # Welzl's recursion puts all three points on the circle
    return _circle_from3(*boundary)


def smallest_enclosing_circle(poly: Polygon) -> tuple[Point, float]:
    """Minimal circle containing the polygon (Welzl over the vertex set;
    enclosing a convex polygon equals enclosing its vertices)."""
    import random as _random
    pts = list(poly.vertices)
    _random.Random(0x5EC).shuffle(pts)

    def welzl(i: int, boundary: list[Point]) -> Optional[tuple[Point, float]]:
        if i == len(pts) or len(boundary) == 3:
            return _trivial_circle(boundary)
        c = welzl(i + 1, boundary)
        if c is not None and _in_circle(c, pts[i]):
            return c
        return welzl(i + 1, boundary + [pts[i]])

    circle = welzl(0, [])
    assert circle is not None
    return circle


def largest_inscribed_circle(poly: Polygon) -> tuple[Point, float]:
    """Chebyshev center and radius of a convex polygon.

    Solved by enumerating edge-line triples: some optimum of the underlying
    linear program is determined by three active edge constraints.  Numpy
    solves them by Cramer's rule in blocks, in a scalar loop's operation
    order (so with its bits), and keeps the first largest feasible radius.
    """
    if not poly.is_convex:
        raise GeometryError("largest_inscribed_circle requires a convex polygon")
    normals = []
    for a, b in poly.edges():
        ex, ey = b.x - a.x, b.y - a.y
        L = math.hypot(ex, ey)
        nx, ny = -ey / L, ex / L  # inward for a CCW ring
        normals.append((nx, ny, nx * a.x + ny * a.y, -1.0))
    N = np.array(normals)
    T = _triples(len(N))
    step = max(1, (1 << 18) // len(N))  # triples per block: bounds the slack matrix
    best = None
    for lo in range(0, len(T), step):
        # rows [nx, ny, -1 | o] in (x, y, r): the determinant, then the numerators
        F = N[T[lo:lo + step]].T  # field, row, triple
        (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = (
            F[cols].swapaxes(0, 1) for cols in ([0, 2, 0, 0], [1, 1, 2, 1], [3, 3, 3, 2]))
        D = a1 * (b2 * c3 - c2 * b3) - b1 * (a2 * c3 - c2 * a3) + c1 * (a2 * b3 - b2 * a3)
        ok = ~(np.abs(D[0]) < 1e-12)
        x, y, r = D[1:, ok] / D[0, ok]
        slack = N[:, :1] * x + N[:, 1:2] * y - N[:, 2:3]
        feasible = np.flatnonzero(~(r < -EPS) & (slack >= r - 1e-9).all(axis=0))
        if len(feasible):
            k = feasible[np.argmax(r[feasible])]  # argmax takes the first largest
            if best is None or r[k] > best[2]:
                best = (x[k], y[k], r[k])
    if best is None:
        raise GeometryError("inscribed circle search failed (degenerate polygon)")
    return Point(float(best[0]), float(best[1])), float(best[2])


@functools.lru_cache(maxsize=8)
def _triples(m: int) -> np.ndarray:
    """Index triples i < j < k of m edges, in the order of nested loops."""
    return np.array(list(itertools.combinations(range(m), 3)), dtype=np.intp).reshape(-1, 3)


def is_c_fat(poly: Polygon, c: float) -> bool:
    """Enclosing-to-inscribed radius ratio at most c.

    A cheap proof comes first.  Take c0, the mean of the vertices.  The
    disc about c0 of radius R+ = max |v - c0| holds every vertex, so the
    polygon, so R <= R+.  Let rho be the least signed distance from c0 to
    an edge line, inward for the CCW ring.  If rho > 0, the disc about c0
    of radius rho lies in every inner half-plane, so in the polygon, so
    r >= rho.  Then R+ (1 + 1e-9) <= c rho proves R <= c r; the relative
    margin covers rounding.  Offsets are taken as v - c0, which nearby
    coordinates give exactly, so the proof survives translation.  Only
    when it fails are Welzl's circle and the Chebyshev center computed;
    a non-convex polygon always takes that path, and raises there.
    """
    if c <= 1:
        raise GeometryError("fatness parameter must exceed 1")
    if poly.is_convex and _certified_fat(poly, c):
        return True
    _, R = smallest_enclosing_circle(poly)
    _, r = largest_inscribed_circle(poly)
    return R <= c * r + EPS


def _certified_fat(poly: Polygon, c: float) -> bool:
    """The vertex-mean proof of c-fatness in `is_c_fat`; False proves nothing."""
    vs = poly.vertices
    cx = sum(v.x for v in vs) / poly.n
    cy = sum(v.y for v in vs) / poly.n
    offsets = [(v.x - cx, v.y - cy) for v in vs]
    R_plus = max(math.hypot(ux, uy) for ux, uy in offsets)
    rho = min((ux * wy - uy * wx) / math.hypot(wx - ux, wy - uy)
              for (ux, uy), (wx, wy) in zip(offsets, offsets[1:] + offsets[:1]))
    return rho > 0.0 and R_plus * (1.0 + 1e-9) <= c * rho


def validate_regular_terrain(t: Terrain, c: float) -> None:
    """Check for a convex outer polygon with convex c-fat obstacles; raises
    TerrainError with the reason when the terrain is not regular."""
    if c <= 1:
        raise GeometryError("fatness parameter must exceed 1")
    if not t.outer.is_convex:
        raise TerrainError("outer polygon is not convex")
    for i, obs in enumerate(t.obstacles):
        if not obs.is_convex:
            raise TerrainError(f"obstacle {i} is not convex")
        if not is_c_fat(obs, c):
            _, R = smallest_enclosing_circle(obs)
            _, r = largest_inscribed_circle(obs)
            raise TerrainError(f"obstacle {i} is not {c}-fat (R/r = {R / r:.3f})")
