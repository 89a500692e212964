"""Terrain constructors: the eight-square blinding gadget, the gadget-grid
square terrain, comb polygons with one open corridor, and seeded random
regular terrains for the test suites.

All generators are pure functions of their parameters (and seed), so
repeated calls produce identical geometry.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

# segment_segment_distance is unused, but perfbench counts calls under this name
from .geom import (EPS, GeometryError, Point, Polygon, Terrain, convex_hull,
                   cross3, dist, distance_to_boundary, is_c_fat, nested,
                   point_in_terrain, ring_distance, segment_segment_distance)


# the largest families that build in seconds; at the default width, the
# comb's corridor count doubles with each A; a random terrain places its
# obstacles by rejection, up to 400 tries each
MAX_CORRIDORS = 2 ** 17
MAX_LB_K = 16
MAX_OBSTACLES = 100


class GenerationError(RuntimeError):
    pass


@dataclass(frozen=True)
class GadgetParams:
    """Eight axis-aligned squares that blind a point from outside a 5*lam box."""
    o: Point
    lam: float

    def __post_init__(self):
        if not (0 < self.lam <= 1):
            raise GenerationError("lam must lie in (0, 1]")

    @property
    def square_side(self) -> float:  # x
        return 1.5 * self.lam

    @property
    def lateral_gap(self) -> float:  # y
        return 0.25 * self.lam


def _square(cx: float, cy: float, side: float) -> Polygon:
    h = side / 2.0
    return Polygon([(cx - h, cy - h), (cx + h, cy - h), (cx + h, cy + h), (cx - h, cy + h)])


def gadget(params: GadgetParams) -> list[Polygon]:
    """The eight squares, in order N, E, S, W, NW, NE, SE, SW."""
    o, lam = params.o, params.lam
    x = params.square_side
    y = params.lateral_gap
    axial = lam + x / 2.0
    n = (o.x, o.y + axial)
    e = (o.x + axial, o.y)
    s = (o.x, o.y - axial)
    w = (o.x - axial, o.y)
    lateral = x + y
    centers = [n, e, s, w,
               (n[0] - lateral, n[1]), (n[0] + lateral, n[1]),
               (s[0] + lateral, s[1]), (s[0] - lateral, s[1])]
    return [_square(cx, cy, x) for cx, cy in centers]


def regular_lb_terrain(k: int, lam: float) -> tuple[Terrain, Point, list[Point]]:
    """Square terrain of side 20*k*lam whose top-right quadrant carries a
    grid of blinding gadgets; returns the terrain, the start at the
    south-west corner, and the candidate treasure centers.

    Tile rows are indexed from the north side of the quadrant; gadgets
    occupy tiles with odd row and odd column index, which spaces any two
    occupied tiles at least 5*lam apart and fills at least a quarter of the
    quadrant.
    """
    if not 1 <= k <= MAX_LB_K:
        raise GenerationError(f"k must be an integer in [1, {MAX_LB_K}]")
    if not (0 < lam <= 1):
        raise GenerationError("lam must lie in (0, 1]")
    A = 20.0 * k * lam
    outer = Polygon([(0, 0), (A, 0), (A, A), (0, A)])
    tile = 5.0 * lam
    obstacles: list[Polygon] = []
    centers: list[Point] = []
    for r in range(1, 2 * k, 2):  # 2k tiles per quadrant axis
        cy = A - (r - 0.5) * tile
        for c in range(1, 2 * k, 2):
            cx = A / 2.0 + (c - 0.5) * tile
            o = Point(cx, cy)
            obstacles.extend(gadget(GadgetParams(o, lam)))
            centers.append(o)
    return Terrain(outer, obstacles), Point(0.0, 0.0), centers


@dataclass(frozen=True)
class CombParams:
    """Comb polygon: k = A/(2x) vertical corridors of width x, all but
    corridor `open_index` sealed from above."""
    A: int
    open_index: int
    x: float = 0.0  # 0 means the default width 1/2**A

    def __post_init__(self):
        if self.A <= 8:
            raise GenerationError("A must exceed 8")
        if not 0 <= self.x < math.inf:  # NaN too
            raise GenerationError("corridor width x must be a finite number >= 0")
        width = self.width
        if width <= 0 or width >= self.A / 4.0:
            raise GenerationError("corridor width out of range")
        k = self.A / (2.0 * width)
        if k > MAX_CORRIDORS:
            raise GenerationError(f"more than {MAX_CORRIDORS} corridors")
        if abs(k - round(k)) > 1e-9:
            raise GenerationError("A/(2x) must be an integer")
        if not (1 <= self.open_index <= round(k)):
            raise GenerationError(f"open corridor index must lie in [1, {round(k)}]")

    @property
    def width(self) -> float:
        return self.x if self.x > 0 else math.ldexp(1.0, -self.A)

    @property
    def k(self) -> int:
        return round(self.A / (2.0 * self.width))


def comb_terrain(params: CombParams) -> tuple[Terrain, Point, Point]:
    """Build the comb polygon (no obstacles), the start at the lower-left
    corner, and the treasure 1 below the top side, horizontally centered.

    Corridor j spans x in [(2j-2)x, (2j-1)x]; the teeth between corridors
    span y in [A/4, A/2-x]; two sealing strips at y in [A/2-x, A/2] cover
    everything except the open corridor's mouth.
    """
    A = float(params.A)
    x = params.width
    k = params.k
    i = params.open_index
    y_teeth_bot = A / 4.0
    y_teeth_top = A / 2.0 - x
    y_cap_top = A / 2.0

    verts: list[tuple[float, float]] = [(0.0, 0.0), (A, 0.0), (A, y_teeth_bot)]
    # right sealing strip with the teeth j = k .. i hanging under it
    verts.append(((2 * k - 1) * x, y_teeth_bot))
    verts.append(((2 * k - 1) * x, y_teeth_top))
    for j in range(k - 1, i - 1, -1):
        verts.append((2 * j * x, y_teeth_top))
        verts.append((2 * j * x, y_teeth_bot))
        verts.append(((2 * j - 1) * x, y_teeth_bot))
        verts.append(((2 * j - 1) * x, y_teeth_top))
    verts.append(((2 * i - 1) * x, y_cap_top))
    verts.append((A, y_cap_top))
    verts.append((A, A))
    verts.append((0.0, A))
    if i > 1:
        # left sealing strip with the teeth j = i-1 .. 1 under it
        verts.append((0.0, y_cap_top))
        verts.append(((2 * i - 2) * x, y_cap_top))
        verts.append(((2 * i - 2) * x, y_teeth_bot))
        for j in range(i - 1, 0, -1):
            verts.append(((2 * j - 1) * x, y_teeth_bot))
            verts.append(((2 * j - 1) * x, y_teeth_top))
            if j >= 2:
                verts.append(((2 * j - 2) * x, y_teeth_top))
                verts.append(((2 * j - 2) * x, y_teeth_bot))
        verts.append((0.0, y_teeth_top))
    try:
        outer = Polygon(verts)
    except GeometryError as exc:
        raise GenerationError(f"comb construction self-intersects: {exc}") from exc
    terrain = Terrain(outer)
    p = Point(0.0, 0.0)
    q = Point(A / 2.0, A - 1.0)
    return terrain, p, q


def _star_hull(pts: list[Point]) -> list[Point]:
    """`convex_hull` of points that run counterclockwise about a point
    they surround, each angular gap below pi: Graham's (1972) scan with
    no sort.  The lexicographic minimum is a hull vertex and `convex_hull`
    starts there, so the scan starts there too and comes back to it."""
    k = pts.index(min(pts))
    hull: list[Point] = []
    for p in pts[k:] + pts[:k + 1]:
        while len(hull) >= 2 and cross3(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    return hull[:-1]


def random_fat_polygon(rng: random.Random, c: float, radius: float,
                       center: Point = Point(0.0, 0.0)) -> Polygon:
    """Random convex polygon (the hull of 5 to 9 points) with
    enclosing/inscribed radius ratio <= c.  The points run counterclockwise
    about `center`, each gap less than 1.35/2.75 < 1/2 of the turn, so
    `_star_hull` finds their hull."""
    if not 1 < c < math.inf:  # NaN too
        raise GenerationError("fatness parameter must be a finite number > 1")
    r_lo = min(0.92, max(0.5, 1.2 / c))
    for _ in range(300):
        n = rng.randint(5, 9)
        gaps = [0.35 + rng.random() for _ in range(n)]
        total = sum(gaps)
        ang = 0.0
        pts = []
        for g in gaps:
            ang += 2 * math.pi * g / total
            rr = radius * (r_lo + (1.0 - r_lo) * rng.random())
            pts.append(Point(center.x + rr * math.cos(ang), center.y + rr * math.sin(ang)))
        hull = _star_hull(pts)
        if len(hull) < 3:
            continue
        poly = Polygon(hull)
        if is_c_fat(poly, c):
            return poly
    raise GenerationError("could not sample a c-fat polygon (c too tight?)")


def random_regular_terrain(seed: int, n_obstacles: int, c: float = 2.0,
                           extent: float = 10.0,
                           min_pq_dist: float = 1.0) -> tuple[Terrain, Point, Point]:
    """Seeded random regular terrain plus start and treasure points.

    The outer polygon is a convex hull of random points scaled to `extent`;
    obstacles are rejection-sampled convex c-fat polygons, kept 0.1 from it
    and from each other by `Terrain`'s rules (`ring_distance`, `nested`).
    Against the outer ring the walls alone decide.  Let m be the least
    signed distance from a candidate's vertex to an outer edge line,
    inward positive.  The convex outer ring is the intersection of its
    edges' inner half-planes, so if m >= 0 every vertex, and with them the
    convex candidate, lies inside it.  Inside, a point's distance to the
    ring is its least distance to an edge line, a concave function of the
    point, so over the candidate it is least at a vertex: the rings are m
    apart.  If m < 0 a vertex lies outside.  So the candidate lies inside,
    0.1 clear of the ring, iff m >= 0.1.
    Start and treasure keep 0.15 from every boundary and `min_pq_dist` from
    each other.
    """
    if not (1 < c < math.inf and extent > 0):  # NaN too
        raise GenerationError("need a finite c > 1 and a positive extent")
    if not 0 <= n_obstacles <= MAX_OBSTACLES:
        raise GenerationError(f"obstacle count must lie in [0, {MAX_OBSTACLES}]")
    rng = random.Random(seed)
    pad = 0.04 * extent
    hull_pts = [Point(pad + rng.random() * (extent - 2 * pad),
                      pad + rng.random() * (extent - 2 * pad)) for _ in range(14)]
    outer = Polygon(convex_hull(hull_pts))
    walls = []  # each outer edge's inward unit normal and first vertex
    for a, b in outer.edges:
        L = dist(a, b)
        walls.append(((a.y - b.y) / L, (b.x - a.x) / L, a))

    obstacles: list[Polygon] = []
    attempts = 0
    max_attempts = 400 * n_obstacles
    while len(obstacles) < n_obstacles:
        attempts += 1
        if attempts > max_attempts:
            raise GenerationError(
                f"obstacle placement failed after {max_attempts} tries (too dense)")
        radius = (0.35 + 0.55 * rng.random()) * extent / 10.0
        cx = rng.uniform(outer.bbox[0], outer.bbox[2])
        cy = rng.uniform(outer.bbox[1], outer.bbox[3])
        try:
            poly = random_fat_polygon(rng, c, radius, Point(cx, cy))
        except GenerationError:
            continue
        if (any(nx * (v.x - a.x) + ny * (v.y - a.y) < 0.1
                for nx, ny, a in walls for v in poly.vertices)
                or any(ring_distance(poly, o, 0.1 + EPS) < 0.1 for o in obstacles)
                or any(nested(poly, o) for o in obstacles)):
            continue
        obstacles.append(poly)
    terrain = Terrain(outer, obstacles)

    def sample_point(min_clear: float, away_from: Point | None = None) -> Point:
        for _ in range(4000):
            pt = Point(rng.uniform(outer.bbox[0], outer.bbox[2]),
                       rng.uniform(outer.bbox[1], outer.bbox[3]))
            if not point_in_terrain(pt, terrain) or distance_to_boundary(pt, terrain) < min_clear:
                continue
            if away_from is not None and dist(pt, away_from) < min_pq_dist:
                continue
            return pt
        raise GenerationError("could not sample a free point with the requested clearance")

    p = sample_point(0.15)
    q = sample_point(0.15, away_from=p)
    return terrain, p, q
