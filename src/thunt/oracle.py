"""Full-knowledge side: treasure accessibility, target-tile selection,
advice construction, and the ground-truth shortest-path length L.

The shortest path runs over the visibility graph of the terrain
(Lozano-Perez & Wesley 1979): nodes are the start, the treasure and the
ring vertices that are not convex in free space; a pair is an edge iff
its segment stays inside the terrain.  A shortest path bends only at a
vertex where free space is reflex, so a vertex where the ring, taken with
free space on its left (the outer ring as stored, obstacle rings
reversed), turns strictly left (`cross3 > 0`, the rule of
`Polygon.is_convex`) is no node.  So a convex outer ring gives no node,
and a convex obstacle gives all of its vertices.  One rule admits the
pairs, the first case that applies deciding:

* ends that share a boundary edge: admitted (the pair is that edge);
* leaving a vertex end into an obstacle or out of the outer polygon:
  rejected.  Every kept vertex is reflex in free space, so a pair leaves
  free space at a vertex end exactly when it heads right of both sides of
  the vertex's wedge (in the same ring order) and along neither;
* marked blocked by `vecgeom.pairwise_edge_classification`, which sees
  only the pairs the two cases above leave open: rejected;
* marked ambiguous by the kernel: the exact test decides;
* running along an edge at one of its ends: the exact test decides;
* otherwise the segment meets the boundary only at its ends: admitted.

The exact test is `geom.segment_in_terrain`, run on all the pairs it
decides at once as `vecgeom.segments_in_terrain` (same formulas, same
answers).

The tile rule itself, from grid cells to the advice triple and back to a
tile center, is `codec`'s; the verifier checks the agent's arrival at the
center `make_advice` returns with the advice.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from . import vecgeom
from .codec import AdviceTriple, encode, tile_center, tile_index
from .geom import (EPS, GeometryError, Point, Terrain, cross3, dist, distance_to_boundary,
                   point_in_terrain, segment_in_terrain)


class TreasureSpec(NamedTuple):
    q: Point
    rho: float
    lam: float


def accessibility(t: Terrain, q: Point) -> TreasureSpec:
    """Largest boundary clearance rho and visibility radius lam = min(1, rho)."""
    if not point_in_terrain(q, t):
        raise GeometryError("treasure must lie inside the terrain")
    rho = distance_to_boundary(q, t)
    if rho <= EPS:
        raise GeometryError("treasure must be an interior point of the terrain")
    return TreasureSpec(q, rho, min(1.0, rho))


# Relative shrink applied to the tile-containment disc.  lam may be
# irrational (distance to a slanted edge); testing containment against the
# slightly smaller disc keeps every selected tile inside the true one at
# the cost of at most one extra advice bit.
DISC_SHRINK = 1e-6


def select_tile(p: Point, spec: TreasureSpec) -> tuple[AdviceTriple, Point]:
    """Pick the target tile: grid density a1 = ceil(2/lam), then the tile
    fully inside the treasure disc with the smallest row index, breaking
    ties by the smallest column index.  Returns the advice triple and the
    tile's center."""
    lam = spec.lam
    a1 = max(1, math.ceil(2.0 / lam - 1e-9))
    side = 1.0 / a1
    r_hat = lam * (1.0 - DISC_SHRINK)
    q = spec.q

    kx_lo = math.floor((q.x - r_hat - p.x) / side) - 1
    kx_hi = math.ceil((q.x + r_hat - p.x) / side) + 1
    ky_lo = math.floor((q.y - r_hat - p.y) / side) - 1
    ky_hi = math.ceil((q.y + r_hat - p.y) / side) + 1

    r2 = r_hat * r_hat
    # tile_index grows with the cell, so the first fit has the smallest (row, col)
    for ky in range(ky_lo, ky_hi + 1):
        y0 = p.y + ky * side
        dy = max(abs(y0 - q.y), abs(y0 + side - q.y))
        for kx in range(kx_lo, kx_hi + 1):
            x0 = p.x + kx * side
            dx = max(abs(x0 - q.x), abs(x0 + side - q.x))
            if dx * dx + dy * dy <= r2:
                triple = AdviceTriple(a1, tile_index(kx), tile_index(ky))
                return triple, tile_center(p, triple)
    raise GeometryError("no tile fits in the treasure disc (should be impossible)")


def make_advice(t: Terrain, p: Point, spec: TreasureSpec) -> tuple[str, Point]:
    """Advice string steering an agent at p to a point that sees the
    treasure of `spec` (from `accessibility`), and that point: the center
    the advice names."""
    if not point_in_terrain(p, t):
        raise GeometryError("start point must lie in the terrain")
    triple, center = select_tile(p, spec)
    return encode(*triple), center


def _visibility_graph(t: Terrain, p: Point, q: Point):
    """Nodes (p, q, then the ring vertices that are not convex in free
    space, in ring order) and the admitted pairs of node indices with
    their lengths, admitted by the rule in the module docstring.  A node
    keeps the ids of its two ring edges, numbered over every ring vertex."""
    nodes = [p, q]
    edge_ids = [(-1, -1), (-1, -1)]
    wedges = [(0.0, 0.0, 0.0, 0.0)] * 2
    base = 0
    for ring in t.rings:
        vs, n = ring.vertices, ring.n
        step = 1 if ring is t.outer else -1  # free space on the left
        for vi in range(n):
            u, a, b = vs[vi], vs[(vi - step) % n], vs[(vi + step) % n]
            if cross3(a, u, b) > 0:  # convex in free space: no shortest path bends here
                continue
            nodes.append(u)
            edge_ids.append((base + (vi - 1) % n, base + vi))
            wedges.append((u.x - a.x, u.y - a.y, b.x - u.x, b.y - u.y))
        base += n
    P, E, W = np.array(nodes, dtype=float), np.array(edge_ids), np.array(wedges)
    I, J = np.triu_indices(len(nodes), k=1)

    # wedge test at both ends of every pair, the end at src heading to dst
    src, dst = np.concatenate((I, J)), np.concatenate((J, I))
    dx, dy = (P[dst] - P[src]).T
    ix, iy, ox, oy = W[src].T
    ld = np.hypot(dx, dy)
    ca, cb = ox * dy - oy * dx, ix * dy - iy * dx
    vertex = E[src, 0] >= 0
    along = vertex & ((np.abs(ca) <= EPS * np.hypot(ox, oy) * ld)
                      | (np.abs(cb) <= EPS * np.hypot(ix, iy) * ld))
    free = (ca > 0) | (cb > 0)  # every kept vertex is reflex: left of either wedge side
    out = (vertex & ~along & ~free).reshape(2, -1).any(axis=0)
    along = along.reshape(2, -1).any(axis=0)

    edge = ((E[I, 1] == E[J, 0]) | (E[I, 0] == E[J, 1])) & (E[I, 0] >= 0)
    # the kernel sees only the pairs that neither a shared edge nor a wedge decides
    rest = ~edge & ~out
    blocked, ambiguous = np.zeros_like(rest), np.zeros_like(rest)
    blocked[rest], ambiguous[rest] = vecgeom.pairwise_edge_classification(
        P, I[rest], J[rest], t, E)
    admit = edge | (rest & ~(blocked | along | ambiguous))
    exact = rest & ~blocked & (ambiguous | along)
    admit[exact] = vecgeom.segments_in_terrain(P[I[exact]], P[J[exact]], t)
    ai, aj = I[admit].tolist(), J[admit].tolist()
    return nodes, ai, aj, [dist(nodes[i], nodes[j]) for i, j in zip(ai, aj)]


def shortest_path(t: Terrain, p: Point, q: Point) -> float:
    """Exact geodesic distance in the terrain between p and q: |pq| (so 0.0
    for p == q) when the segment lies in the terrain, else over the
    visibility graph.  An end outside the terrain raises GeometryError."""
    if segment_in_terrain(p, q, t):
        return dist(p, q)
    if not point_in_terrain(p, t) or not point_in_terrain(q, t):
        raise GeometryError("shortest path endpoints must lie in the terrain")
    nodes, ai, aj, w = _visibility_graph(t, p, q)
    V = len(nodes)
    # each pair in both directions, so Dijkstra runs on the graph as built
    graph = csr_matrix((np.array(w + w), (np.array(ai + aj), np.array(aj + ai))),
                       shape=(V, V))
    L = float(dijkstra(graph, directed=True, indices=0)[1])
    if not math.isfinite(L):
        raise GeometryError("no path between the points (terrain disconnected?)")
    return L
