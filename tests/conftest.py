import math
import random

import pytest
from hypothesis import HealthCheck, settings

from thunt import GeometryError, Point, Polygon, Terrain, convex_hull

settings.register_profile(
    "default",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def square(x0: float, y0: float, side: float) -> Polygon:
    return Polygon([(x0, y0), (x0 + side, y0), (x0 + side, y0 + side), (x0, y0 + side)])


def empty_square_terrain(side: float = 10.0, origin: float = 0.0) -> Terrain:
    return Terrain(square(origin, origin, side))


def random_convex_polygon(rng: random.Random, radius: float = 1.0,
                          center: Point = Point(0.0, 0.0), n: int = 8) -> Polygon:
    pts = []
    ang = 0.0
    gaps = [0.3 + rng.random() for _ in range(n)]
    total = sum(gaps)
    for g in gaps:
        ang += 2 * math.pi * g / total
        r = radius * (0.4 + 0.6 * rng.random())
        pts.append(Point(center.x + r * math.cos(ang), center.y + r * math.sin(ang)))
    hull = convex_hull(pts)
    if len(hull) < 3:
        return square(center.x - radius / 2, center.y - radius / 2, radius)
    return Polygon(hull)


def brute_enclosing_circle(points):
    """Independent oracle: scan all pairs and triples for the minimal circle."""
    pts = list(points)

    def contains(c, r, slack=1e-9):
        return all(math.hypot(p.x - c[0], p.y - c[1]) <= r + slack for p in pts)

    best = None
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            cx = 0.5 * (pts[i].x + pts[j].x)
            cy = 0.5 * (pts[i].y + pts[j].y)
            r = 0.5 * math.hypot(pts[i].x - pts[j].x, pts[i].y - pts[j].y)
            if contains((cx, cy), r) and (best is None or r < best[1]):
                best = ((cx, cy), r)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            for k in range(j + 1, len(pts)):
                a, b, c = pts[i], pts[j], pts[k]
                d = 2.0 * (a.x * (b.y - c.y) + b.x * (c.y - a.y) + c.x * (a.y - b.y))
                if abs(d) < 1e-12:
                    continue
                ax2 = a.x ** 2 + a.y ** 2
                bx2 = b.x ** 2 + b.y ** 2
                cx2 = c.x ** 2 + c.y ** 2
                ux = (ax2 * (b.y - c.y) + bx2 * (c.y - a.y) + cx2 * (a.y - b.y)) / d
                uy = (ax2 * (c.x - b.x) + bx2 * (a.x - c.x) + cx2 * (b.x - a.x)) / d
                r = max(math.hypot(p.x - ux, p.y - uy) for p in (a, b, c))
                if contains((ux, uy), r) and (best is None or r < best[1]):
                    best = ((ux, uy), r)
    assert best is not None
    return best



def brute_inscribed_circle(poly):
    """Reference Chebyshev center: scan the edge-line triples one at a time
    with scalar Cramer's rule, keeping the first largest feasible radius."""
    normals = []
    for a, b in poly.edges:
        ex, ey = b.x - a.x, b.y - a.y
        L = math.hypot(ex, ey)
        nx, ny = -ey / L, ex / L  # inward for a CCW ring
        normals.append((nx, ny, nx * a.x + ny * a.y))

    def det3(rows):
        (a1, b1, _), (a2, b2, _), (a3, b3, _) = rows
        # unknowns (x, y, r): rows are [nx, ny, -1 | o]
        return (a1 * (b2 * (-1) - (-1) * b3)
                - b1 * (a2 * (-1) - (-1) * a3)
                + (-1) * (a2 * b3 - b2 * a3))

    def det3_col(rows, col):
        mat = [[r[0], r[1], -1.0] for r in rows]
        for i in range(3):
            mat[i][col] = rows[i][2]
        (a1, b1, c1), (a2, b2, c2), (a3, b3, c3) = mat
        return a1 * (b2 * c3 - c2 * b3) - b1 * (a2 * c3 - c2 * a3) + c1 * (a2 * b3 - b2 * a3)

    m = len(normals)
    best = None
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                rows = (normals[i], normals[j], normals[k])
                det = det3(rows)
                if abs(det) < 1e-12:
                    continue
                x = det3_col(rows, 0) / det
                y = det3_col(rows, 1) / det
                r = det3_col(rows, 2) / det
                if r < -1e-9:
                    continue
                if all(nx * x + ny * y - o >= r - 1e-9 for nx, ny, o in normals):
                    if best is None or r > best[0]:
                        best = (r, Point(x, y))
    if best is None:
        raise GeometryError("inscribed circle search failed (degenerate polygon)")
    return best[1], best[0]


def brute_inscribed_circle_in_own_frame(poly):
    """`brute_inscribed_circle` of the polygon moved so that its vertex 0
    is the origin, moved back: the frame `largest_inscribed_circle` uses."""
    x0, y0 = poly.vertices[0]
    c, r = brute_inscribed_circle(Polygon([(v.x - x0, v.y - y0) for v in poly.vertices]))
    return Point(c.x + x0, c.y + y0), r


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
