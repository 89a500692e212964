"""Vectorized (numpy) geometry kernels backing the path machinery.

One segment-vs-boundary kernel, `pairwise_edge_classification`, runs the
separating-axis test of every candidate segment against every boundary
edge with an EPS margin.  It trades the scalar kernel's boundary-exact
semantics for speed and is used in two conservative ways: the visibility
graph sends the pairs it marks ambiguous to the exact scalar predicate,
and the grid oracle keeps only the lattice edges it marks neither blocked
nor ambiguous (rejecting a free edge can only lengthen the upper bound).
Bulk point-in-terrain by parity serves the grid oracle's lattice nodes.
"""
from __future__ import annotations

import numpy as np

from .geom import EPS, Terrain

_CACHE_KEY = "edge_arrays"


def edge_arrays(t: Terrain) -> tuple[np.ndarray, np.ndarray]:
    """Boundary edges of a terrain as (M,2) start/end arrays (cached)."""
    cached = t._cache.get(_CACHE_KEY)
    if cached is None:
        a = np.array([[e[0].x, e[0].y] for e in t.boundary_edges], dtype=float)
        b = np.array([[e[1].x, e[1].y] for e in t.boundary_edges], dtype=float)
        cached = (a, b)
        t._cache[_CACHE_KEY] = cached
    return cached


def _parity(px: np.ndarray, py: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Even-odd point-in-polygon over arrays; boundary points are arbitrary."""
    inside = np.zeros(px.shape, dtype=bool)
    n = len(verts)
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        cond = (y1 > py) != (y2 > py)
        if y1 != y2:
            xint = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            inside ^= cond & (px < xint)
    return inside


def terrain_membership(px: np.ndarray, py: np.ndarray, t: Terrain) -> np.ndarray:
    """Bulk point-in-terrain via parity (boundary-adjacent points undefined)."""
    outer = np.array(t.outer.vertices, dtype=float)
    mask = _parity(px, py, outer)
    for obs in t.obstacles:
        if not mask.any():
            break
        mask &= ~_parity(px, py, np.array(obs.vertices, dtype=float))
    return mask


def pairwise_edge_classification(P: np.ndarray, I: np.ndarray, J: np.ndarray,
                                 t: Terrain, incident: np.ndarray):
    """Classify candidate segments P[I]->P[J] against all boundary edges.

    Returns (blocked, ambiguous): `blocked` marks pairs with a certain
    transversal crossing of a non-incident edge; `ambiguous` marks pairs
    with non-separable contact that needs the exact scalar predicate.
    `incident` is a (V, 2) array of the boundary-edge ids at each point of
    P (-1 for none); the edges at a candidate's own ends are left to the
    caller's wedge test.
    """
    ea, eb = edge_arrays(t)
    A = P[I]
    B = P[J]
    D = B - A
    ld = np.hypot(D[:, 0], D[:, 1])
    md = (EPS * np.maximum(ld, 1.0))[:, None]

    ex = (eb[:, 0] - ea[:, 0])[None, :]
    ey = (eb[:, 1] - ea[:, 1])[None, :]
    le = np.hypot(ex, ey)
    me = EPS * np.maximum(le, 1.0)

    # side of each edge endpoint w.r.t. the candidate line
    s0 = D[:, 0:1] * (ea[None, :, 1] - A[:, 1:2]) - D[:, 1:2] * (ea[None, :, 0] - A[:, 0:1])
    s1 = D[:, 0:1] * (eb[None, :, 1] - A[:, 1:2]) - D[:, 1:2] * (eb[None, :, 0] - A[:, 0:1])
    # side of each candidate endpoint w.r.t. the edge line
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
    # resolve collinear-but-distant contacts exactly (rectilinear terrains
    # otherwise flood the scalar fallback): edge on the candidate line but
    # with no interval overlap along it is clear
    collinear = amb & (np.abs(s0) <= md) & (np.abs(s1) <= md)
    if collinear.any():
        t0 = ((ea[None, :, 0] - A[:, 0:1]) * D[:, 0:1]
              + (ea[None, :, 1] - A[:, 1:2]) * D[:, 1:2]) / np.maximum(ld, EPS)[:, None]
        t1 = ((eb[None, :, 0] - A[:, 0:1]) * D[:, 0:1]
              + (eb[None, :, 1] - A[:, 1:2]) * D[:, 1:2]) / np.maximum(ld, EPS)[:, None]
        eps_len = EPS * np.maximum(ld, 1.0)[:, None]
        far = (np.maximum(t0, t1) < -eps_len) | (np.minimum(t0, t1) > ld[:, None] + eps_len)
        amb &= ~(collinear & far)

    blocked = (proper & relevant).any(axis=1)
    ambiguous = amb.any(axis=1)
    return blocked, ambiguous
