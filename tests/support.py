"""Helpers that only the tests use: a lattice path oracle that bounds
shortest paths from above, the geodesic over the visibility graph of
every ring vertex, the bounding square of a blinding gadget, the
obstacle containment rule with no convexity certificate, a fat obstacle
that the star certificate does not settle, and a probe that tells
whether that certificate settles an `is_c_fat` call, the two-path
ring construction that `Polygon` used before one loop made its passes,
the two-branch `march` that one loop for both senses replaced, the
shorter arc between two ring points, the length of the polyline from a
start through a trajectory's points, the ring a step runs along by the
verifier's rule, and the segment x edge kernel as one broadcast
expression per side product, the formulation
`vecgeom.pairwise_edge_classification` must keep bit for bit.

The lattice oracle uses 8-neighbor connectivity.  Its nodes are the
lattice points that `vecgeom.points_in_terrain`, the exact test's point
test, puts in the terrain, and it keeps the lattice edges that
`vecgeom.pairwise_edge_classification` marks neither blocked nor
ambiguous (rejecting a free edge can only lengthen the upper bound); it
shares no other rule with the visibility graph of `oracle.shortest_path`.
It calls the kernel in chunks of at most `vecgeom.CHUNK_CELLS` cells.
"""
import bisect
import heapq
import itertools
import math
from unittest import mock

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from thunt import geom, harness, vecgeom
from thunt.geom import (EPS, GeometryError, Point, Polygon, Terrain, _first_exit,
                        cross3, dist, is_c_fat, point_in_rings, point_segment_distance,
                        segment_in_terrain)


class GridResolutionError(RuntimeError):
    pass


def gadget_hull(o: Point, lam: float) -> Polygon:
    """The bounding square of the gadget (side 5*lam centered at o)."""
    h = 5.0 * lam / 2.0
    return Polygon([(o.x - h, o.y - h), (o.x + h, o.y - h), (o.x + h, o.y + h), (o.x - h, o.y + h)])


def obstacle_inside(outer: Polygon, obs: Polygon) -> bool:
    """Whether `Terrain` may hold `obs` in `outer`, by the rule for any
    outer ring: no vertex of `obs` outside `outer`, and no edge of it
    leaving the bare outer polygon between boundary events."""
    bare = Terrain(outer)
    return (all(point_in_rings(v, (outer,)) for v in obs.vertices)
            and all(_first_exit(a, b, bare) is None for a, b in obs.edges))


def grid_path_oracle(t: Terrain, p: Point, q: Point, resolution: float) -> float:
    """Upper bound on the geodesic via an 8-neighbor lattice restricted to
    terrain-contained edges; converges to the geodesic as resolution -> 0."""
    if resolution <= 0:
        raise GeometryError("resolution must be positive")
    if dist(p, q) <= EPS:
        return 0.0
    h = resolution
    x0, y0, x1, y1 = t.outer.bbox
    xs = np.arange(x0 - h, x1 + 2 * h, h)
    ys = np.arange(y0 - h, y1 + 2 * h, h)
    nx, ny = len(xs), len(ys)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    px = gx.ravel()
    py = gy.ravel()
    mask = vecgeom.points_in_terrain(px, py, t)
    # the kernel's points: the lattice nodes, then an endpoint as one more
    # row; none is a ring vertex, so no boundary edge is left out at its ends
    pts = np.column_stack((px, py))
    no_edges = np.full((len(px) + 1, 2), -1)

    step = max(1, vecgeom.CHUNK_CELLS // len(t.boundary_edges))

    def clear(P: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        # each pair is classified on its own, so chunks only bound the arrays
        keep = np.empty(len(src), dtype=bool)
        for lo in range(0, len(src), step):
            blocked, ambiguous = vecgeom.pairwise_edge_classification(
                P, src[lo:lo + step], dst[lo:lo + step], t, no_edges)
            keep[lo:lo + step] = ~(blocked | ambiguous)
        return keep

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    steps = [(1, 0, h), (0, 1, h), (1, 1, h * math.sqrt(2)), (1, -1, h * math.sqrt(2))]
    ids = np.arange(nx * ny).reshape(nx, ny)
    mask2 = mask.reshape(nx, ny)
    for dx, dy, w in steps:
        sx = slice(None, -dx) if dx else slice(None)
        tx = slice(dx, None) if dx else slice(None)
        if dy >= 0:
            sy = slice(None, -dy) if dy else slice(None)
            ty = slice(dy, None) if dy else slice(None)
        else:
            sy = slice(-dy, None)
            ty = slice(None, dy)
        ok = mask2[sx, sy] & mask2[tx, ty]
        src = ids[sx, sy][ok]
        dst = ids[tx, ty][ok]
        if len(src) == 0:
            continue
        keep = clear(pts, src, dst)
        rows.append(src[keep])
        cols.append(dst[keep])
        vals.append(np.full(int(keep.sum()), w))

    # hook the off-lattice endpoints in with exact segments; a generous link
    # radius keeps the endpoint overhead well below the lattice distortion
    n_nodes = nx * ny
    link_radius = min(1.0, 10 * h)
    for endpoint_id, pt in ((n_nodes, p), (n_nodes + 1, q)):
        with_pt = np.vstack((pts, [pt]))
        for attempt in range(4):
            r = link_radius * (2.0 ** attempt)
            near = np.nonzero(mask & (np.hypot(px - pt.x, py - pt.y) <= r))[0]
            if len(near) == 0:
                continue
            chosen = near[clear(with_pt, np.full(len(near), n_nodes), near)]
            if len(chosen) == 0:
                # conservative test failed everywhere; try exact checks on
                # the closest few nodes
                order = near[np.argsort(np.hypot(px[near] - pt.x, py[near] - pt.y))][:32]
                chosen = np.array([i for i in order
                                   if segment_in_terrain(pt, Point(px[i], py[i]), t)],
                                  dtype=int)
            if len(chosen) > 0:
                rows.append(np.full(len(chosen), endpoint_id))
                cols.append(chosen)
                vals.append(np.hypot(px[chosen] - pt.x, py[chosen] - pt.y))
                break
        else:
            raise GridResolutionError(
                "endpoint cannot be linked to the lattice (resolution too coarse)")
    # degenerate short hops only; anything longer must route via the lattice
    if dist(p, q) <= 3 * h and segment_in_terrain(p, q, t):
        rows.append(np.array([n_nodes]))
        cols.append(np.array([n_nodes + 1]))
        vals.append(np.array([dist(p, q)]))

    r = np.concatenate(rows)
    c = np.concatenate(cols)
    v = np.concatenate(vals)
    graph = csr_matrix((np.concatenate([v, v]), (np.concatenate([r, c]), np.concatenate([c, r]))),
                       shape=(n_nodes + 2, n_nodes + 2))
    d = dijkstra(graph, directed=False, indices=n_nodes)
    L = float(d[n_nodes + 1])
    if not math.isfinite(L):
        raise GridResolutionError("lattice disconnects the endpoints (resolution too coarse)")
    return L


def reference_edge_classification(P: np.ndarray, I: np.ndarray, J: np.ndarray,
                                  t: Terrain, incident: np.ndarray):
    """`vecgeom.pairwise_edge_classification` with each side product one
    broadcast expression and each threshold test written where it is read."""
    ea, eb = vecgeom.edge_arrays(t)
    A = P[I]
    B = P[J]
    D = B - A
    ld = np.hypot(D[:, 0], D[:, 1])
    md = (EPS * np.maximum(ld, 1.0))[:, None]

    ex = (eb[:, 0] - ea[:, 0])[None, :]
    ey = (eb[:, 1] - ea[:, 1])[None, :]
    le = np.hypot(ex, ey)
    me = EPS * np.maximum(le, 1.0)

    s0 = D[:, 0:1] * (ea[None, :, 1] - A[:, 1:2]) - D[:, 1:2] * (ea[None, :, 0] - A[:, 0:1])
    s1 = D[:, 0:1] * (eb[None, :, 1] - A[:, 1:2]) - D[:, 1:2] * (eb[None, :, 0] - A[:, 0:1])
    w0 = ex * (A[:, 1:2] - ea[None, :, 1]) - ey * (A[:, 0:1] - ea[None, :, 0])
    w1 = ex * (B[:, 1:2] - ea[None, :, 1]) - ey * (B[:, 0:1] - ea[None, :, 0])

    sep = (((s0 > md) & (s1 > md)) | ((s0 < -md) & (s1 < -md))
           | ((w0 > me) & (w1 > me)) | ((w0 < -me) & (w1 < -me)))
    proper = ((((s0 > md) & (s1 < -md)) | ((s0 < -md) & (s1 > md)))
              & (((w0 > me) & (w1 < -me)) | ((w0 < -me) & (w1 > me))))

    ends = np.concatenate((incident[I], incident[J]), axis=1)
    rows, cols = np.nonzero(ends >= 0)
    relevant = np.ones(sep.shape, dtype=bool)
    relevant[rows, ends[rows, cols]] = False
    amb = ~sep & ~proper & relevant
    collinear = amb & (np.abs(s0) <= md) & (np.abs(s1) <= md)
    if collinear.any():
        t0 = ((ea[None, :, 0] - A[:, 0:1]) * D[:, 0:1]
              + (ea[None, :, 1] - A[:, 1:2]) * D[:, 1:2]) / np.maximum(ld, EPS)[:, None]
        t1 = ((eb[None, :, 0] - A[:, 0:1]) * D[:, 0:1]
              + (eb[None, :, 1] - A[:, 1:2]) * D[:, 1:2]) / np.maximum(ld, EPS)[:, None]
        eps_len = EPS * np.maximum(ld, 1.0)[:, None]
        far = (np.maximum(t0, t1) < -eps_len) | (np.minimum(t0, t1) > ld[:, None] + eps_len)
        amb &= ~(collinear & far)
    return (proper & relevant).any(axis=1), amb.any(axis=1)


def all_vertex_path(t: Terrain, p: Point, q: Point) -> float:
    """Geodesic from p to q over the visibility graph whose nodes are p, q
    and every ring vertex, each pair tested by `geom.segment_in_terrain`,
    by a scalar Dijkstra."""
    nodes = [p, q] + [v for ring in t.rings for v in ring.vertices]
    adj: list[list[int]] = [[] for _ in nodes]
    for i, j in itertools.combinations(range(len(nodes)), 2):
        if segment_in_terrain(nodes[i], nodes[j], t):
            adj[i].append(j)
            adj[j].append(i)
    best = [math.inf] * len(nodes)
    best[0] = 0.0
    heap = [(0.0, 0)]
    while heap:
        d, i = heapq.heappop(heap)
        if i == 1:
            return d
        if d > best[i]:
            continue
        for j in adj[i]:
            dj = d + dist(nodes[i], nodes[j])
            if dj < best[j]:
                best[j] = dj
                heapq.heappush(heap, (dj, j))
    return math.inf


def chord_cut_disc(n: int) -> Polygon:
    """n vertices spread evenly over the arc of the radius-2 circle about
    (5, 5) that lies above the chord 0.2 below the centre.  The cut disc
    is fat at c = 2 (R/r = 2/1.1 = 1.818), but the area centroid lies
    above the centre and R_plus/rho is about 2.34, so the star certificate
    does not settle it."""
    a = math.asin(0.1)
    return Polygon([(5 + 2 * math.cos(t), 5 + 2 * math.sin(t))
                    for t in (-a + (math.pi + 2 * a) * i / (n - 1) for i in range(n))])


def star_settles(poly: Polygon, c: float) -> bool:
    """Whether `is_c_fat(poly, c)` returns True without measuring the
    polygon, i.e. on the star certificate alone."""
    with mock.patch.object(geom, "smallest_enclosing_circle", side_effect=GeometryError):
        try:
            return is_c_fat(poly, c)
        except GeometryError:
            return False


def normalize_ring(verts: list[Point]) -> list[Point]:
    """Drop consecutive duplicates and collinear middle vertices (cyclically)."""
    out = list(verts)
    changed = True
    while changed and len(out) >= 3:
        changed = False
        kept = [v for i, v in enumerate(out) if dist(v, out[(i + 1) % len(out)]) > EPS]
        if len(kept) != len(out):
            out = kept
            changed = True
            continue
        kept = []
        n = len(out)
        for i in range(n):
            a, v, b = out[i - 1], out[i], out[(i + 1) % n]
            if point_segment_distance(v, *((a, b) if a <= b else (b, a))) <= EPS:
                changed = True
                continue
            kept.append(v)
        out = kept
    return out


def _ring_pass(verts: list[Point], check: bool):
    lengths = []
    convex, area, a = True, 0.0, verts[-1]
    for v, b in zip(verts, verts[1:] + verts[:1]):
        L = dist(v, b)
        chord = (a, b) if a <= b else (b, a)
        if check and (L <= EPS or point_segment_distance(v, *chord) <= EPS):
            return None
        lengths.append(L)
        area += v.x * b.y - b.x * v.y
        convex = convex and cross3(a, v, b) > 0
        a = v
    if check and 0.5 * area < 0:
        return None
    xs, ys = zip(*verts)
    return lengths, (min(xs), min(ys), max(xs), max(ys)), convex


def _signed_area(verts: list[Point]) -> float:
    s = 0.0  # summed in order: sum() of floats compensates on Python >= 3.12
    for a, b in zip(verts, verts[1:] + verts[:1]):
        s += a.x * b.y - b.x * a.y
    return 0.5 * s


def reference_ring(verts: list[Point]):
    """`(verts, lengths, bbox, is_convex)` as `Polygon` built them with a
    checked pass and a fallback; None where fewer than 3 vertices are
    left."""
    ring = _ring_pass(verts, check=True) if len(verts) >= 3 else None
    if ring is None:
        verts = normalize_ring(verts)
        if len(verts) < 3:
            return None
        if _signed_area(verts) < 0:
            verts = verts[::-1]
        ring = _ring_pass(verts, check=False)
    return (verts, *ring)


def reference_march(ring: Polygon, start_arc: float, length: float,
                    direction: int) -> list[Point]:
    """`geom.march` as it was with one branch per sense."""
    P = ring.perimeter
    cum = ring.cum_arc
    n = ring.n
    arc = start_arc % P
    pts = [ring.point_at_arc(arc)]
    remaining = length
    i = min(bisect.bisect_right(cum, arc) - 1, n - 1)
    if direction < 0 and arc - cum[i] <= 1e-12:
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


def shorter_arc(ring: Polygon, a: Point, b: Point) -> float:
    """The shorter of the two arcs between ring points a and b."""
    d = (ring.locate(b)[1] - ring.locate(a)[1]) % ring.perimeter
    return min(d, ring.perimeter - d)


def trajectory_length(start: Point, trajectory) -> float:
    """The length of the polyline from start through the trajectory's
    points, its steps summed in order."""
    return geom.polyline_length([start, *trajectory])


def ring_along(a: Point, b: Point, t: Terrain):
    """The ring the verifier counts the step ab as walked along, else None."""
    [(_, _, ring, _, _)] = harness._steps([a, b], t.rings)
    return ring
