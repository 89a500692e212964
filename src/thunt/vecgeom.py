"""Vectorized (numpy) geometry kernels backing the path machinery.

One segment-vs-boundary kernel, `pairwise_edge_classification`, runs the
separating-axis test of every candidate segment against every boundary
edge with an EPS margin.  The visibility graph passes it only the pairs
its shared-edge and wedge tests leave open, and sends the pairs it marks
ambiguous to the exact test.  Each side product fills one pair x edge
array in place, and each margin is compared once.  A call of at least
CHUNK_CELLS cells splits its rows into one contiguous block per CPU the
process may run on, on a thread pool (numpy releases the GIL in its ufunc
loops).  Rows are independent, so the answer does not depend on the split.
The caller allocates each pair x edge array at full size and each block
fills its own rows: arrays allocated per block would stay resident once
freed, under glibc's dynamic mmap threshold (tens of MB on the lattice).

The exact test, `segments_in_terrain`, is `geom.segment_in_terrain` over
arrays: the same formulas and thresholds, so the same answer for every
segment, in batches of at most CHUNK_CELLS segment x edge cells.  Its
point test, `points_in_terrain`, is `geom.point_in_terrain` over arrays.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .geom import EPS, EVENT_GAP, PARALLEL_SIN, Terrain

# Segment x boundary-edge cells per batch of the exact test: bounds its
# arrays whatever the input size.
CHUNK_CELLS = 1 << 20
# CPUs this process may run on: one block of kernel rows each
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_POOL = ThreadPoolExecutor(_CPUS)


def edge_arrays(t: Terrain) -> tuple[np.ndarray, np.ndarray]:
    """Boundary edges of a terrain as (M,2) start/end arrays."""
    e = np.array(t.boundary_edges, dtype=float)
    return e[:, 0], e[:, 1]


def _side(ux, uy, px, py, qx, qy, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """`ux * (py - qy) - uy * (px - qx)` written into `out`: the same
    subtract, multiply, subtract, multiply, subtract as the expression, so
    the same bits, with the second product in `scratch`."""
    np.subtract(py, qy, out=out)
    np.multiply(ux, out, out=out)
    np.subtract(px, qx, out=scratch)
    np.multiply(uy, scratch, out=scratch)
    return np.subtract(out, scratch, out=out)


def _by_rows(fill, k: int, cells: int) -> None:
    """`fill(rows)` on one contiguous block of range(k) per CPU on the pool, or on
    all of it here below CHUNK_CELLS cells; returns, or raises, once all have ended."""
    if cells < CHUNK_CELLS or _CPUS == 1:
        return fill(slice(0, k))
    futures = [_POOL.submit(fill, slice(k * i // _CPUS, k * (i + 1) // _CPUS))
               for i in range(_CPUS)]
    for f in wait(futures).done:
        f.result()


def pairwise_edge_classification(P: np.ndarray, I: np.ndarray, J: np.ndarray,
                                 t: Terrain, incident: np.ndarray):
    """Classify candidate segments P[I]->P[J] against all boundary edges.

    Returns (blocked, ambiguous): `blocked` marks pairs with a certain
    transversal crossing of a non-incident edge; `ambiguous` marks pairs
    with non-separable contact that needs the exact scalar predicate.
    `incident` is a (V, 2) array of the boundary-edge ids at each point of
    P (-1 for none); the edges at a candidate's own ends are left to the
    caller's wedge test.

    Each block of rows fills its slice of every pair x edge array in place and
    compares each threshold once: above its margin, below minus it, or within.
    """
    ea, eb = edge_arrays(t)
    A, B = P[I], P[J]
    D = B - A
    ld = np.hypot(D[:, 0], D[:, 1])
    md = (EPS * np.maximum(ld, 1.0))[:, None]
    k, m = len(I), len(ea)
    ex, ey = (eb - ea).T[:, None]
    me = EPS * np.maximum(np.hypot(ex, ey), 1.0)
    e0x, e0y, e1x, e1y = ea[None, :, 0], ea[None, :, 1], eb[None, :, 0], eb[None, :, 1]
    # one block per dtype: a small call reuses heap pages instead of faulting in new ones
    floats = np.empty((5, k, m))
    flags = np.empty((12, k, m), dtype=bool)
    ends = np.concatenate((incident[I], incident[J]), axis=1)
    rows, cols = np.nonzero(ends >= 0)
    relevant = np.ones((k, m), dtype=bool)
    relevant[rows, ends[rows, cols]] = False
    blocked = np.empty(k, dtype=bool)

    def classify(r):
        s0, s1, w0, w1, scratch = floats[:, r]
        hi0, lo0, hi1, lo1, whi0, wlo0, whi1, wlo1, sep, proper, amb, collinear = flags[:, r]
        ax, ay, bx, by = A[r, 0:1], A[r, 1:2], B[r, 0:1], B[r, 1:2]
        # side of each edge endpoint w.r.t. the candidate line
        _side(D[r, 0:1], D[r, 1:2], e0x, e0y, ax, ay, s0, scratch)
        _side(D[r, 0:1], D[r, 1:2], e1x, e1y, ax, ay, s1, scratch)
        # side of each candidate endpoint w.r.t. the edge line
        _side(ex, ey, ax, ay, e0x, e0y, w0, scratch)
        _side(ex, ey, bx, by, e0x, e0y, w1, scratch)
        for s, margin, hi, lo in ((s0, md[r], hi0, lo0), (s1, md[r], hi1, lo1),
                                  (w0, me, whi0, wlo0), (w1, me, whi1, wlo1)):
            np.greater(s, margin, out=hi)
            np.less(s, -margin, out=lo)
        # a flag array not yet computed, or no longer read, serves as scratch
        np.bitwise_and(hi0, hi1, out=sep)
        for a, b in ((lo0, lo1), (whi0, whi1), (wlo0, wlo1)):
            sep |= np.bitwise_and(a, b, out=amb)
        np.bitwise_and(hi0, lo1, out=proper)
        proper |= np.bitwise_and(lo0, hi1, out=amb)
        np.bitwise_and(whi0, wlo1, out=collinear)
        collinear |= np.bitwise_and(wlo0, whi1, out=amb)
        proper &= collinear
        np.invert(np.bitwise_or(sep, proper, out=amb), out=amb)
        amb &= relevant[r]
        np.any(np.bitwise_and(proper, relevant[r], out=sep), axis=1, out=blocked[r])
        np.bitwise_or(hi0, lo0, out=collinear)
        collinear |= np.bitwise_or(hi1, lo1, out=sep)
        np.bitwise_and(amb, np.invert(collinear, out=collinear), out=collinear)

    _by_rows(classify, k, k * m)
    # resolve collinear-but-distant contacts exactly (rectilinear terrains
    # otherwise flood the scalar fallback): edge on the candidate line but
    # with no interval overlap along it is clear
    if flags[11].any():  # a collinear cell
        t01 = np.empty((2, k, m))
        def clear_far(r):  # far and beyond take the planes of hi0 and lo0
            (t0, t1), scratch = t01[:, r], floats[4, r]
            (far, beyond), (amb, collinear) = flags[:2, r], flags[10:, r]
            for tt, px, py in ((t0, e0x, e0y), (t1, e1x, e1y)):
                np.multiply(np.subtract(px, A[r, 0:1], out=tt), D[r, 0:1], out=tt)
                np.multiply(np.subtract(py, A[r, 1:2], out=scratch), D[r, 1:2], out=scratch)
                np.divide(np.add(tt, scratch, out=tt), np.maximum(ld[r], EPS)[:, None], out=tt)
            np.less(np.maximum(t0, t1, out=scratch), -md[r], out=far)
            far |= np.greater(np.minimum(t0, t1, out=scratch), ld[r, None] + md[r], out=beyond)
            amb &= np.invert(np.bitwise_and(collinear, far, out=far), out=far)
        _by_rows(clear_far, k, k * m)
    return blocked, flags[10].any(axis=1)


def _hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """`math.hypot` elementwise: the scalar rule's bits at its EPS thresholds."""
    return np.fromiter(map(math.hypot, x.tolist(), y.tolist()), float, len(x))


def _within_eps(px: np.ndarray, py: np.ndarray, a, b) -> np.ndarray:
    """`geom.point_segment_distance(p, a, b) <= EPS` for each point.  A point
    whose squared offset exceeds (2 EPS)^2 is farther than EPS whatever the
    rounding, so only the others need the scalar hypot's bits."""
    dx, dy = b.x - a.x, b.y - a.y
    L2 = dx * dx + dy * dy
    if L2 <= EPS * EPS:
        ox, oy = px - a.x, py - a.y
    else:
        s = ((px - a.x) * dx + (py - a.y) * dy) / L2
        s = np.where(s < 0.0, 0.0, np.where(s > 1.0, 1.0, s))
        ox, oy = px - (a.x + s * dx), py - (a.y + s * dy)
    near = np.flatnonzero(ox * ox + oy * oy <= 4 * EPS * EPS)
    within = np.zeros(len(px), dtype=bool)
    within[near] = _hypot(ox[near], oy[near]) <= EPS
    return within


def points_in_terrain(px: np.ndarray, py: np.ndarray, t: Terrain) -> np.ndarray:
    """`geom.point_in_terrain` over arrays, in one pass over the boundary
    edges: within EPS of an edge is in the terrain, else an odd number of
    crossings of the ray toward +x."""
    on = np.zeros(px.shape, dtype=bool)
    odd = np.zeros(px.shape, dtype=bool)
    for a, b in t.boundary_edges:
        m = np.flatnonzero((px >= min(a.x, b.x) - EPS) & (px <= max(a.x, b.x) + EPS)
                           & (py >= min(a.y, b.y) - EPS) & (py <= max(a.y, b.y) + EPS) & ~on)
        if len(m):
            on[m] = _within_eps(px[m], py[m], a, b)
        k = np.flatnonzero((a.y > py) != (b.y > py))  # never on a horizontal edge
        odd[k] ^= px[k] < a.x + (py[k] - a.y) * (b.x - a.x) / (b.y - a.y)
    return on | odd


def _interval_midpoints(A: np.ndarray, B: np.ndarray, ea: np.ndarray, eb: np.ndarray,
                        le: np.ndarray):
    """Segment index and parameter of the midpoint of every interval between
    consecutive boundary events of the segments A[k]->B[k] longer than EPS,
    against the boundary edges ea[m]->eb[m] of lengths le[m].

    The events are `geom._segment_boundary_params`: the crossings and
    collinear overlap ends on the edges its bbox cull keeps, clamped to
    [0, 1], with 0 and 1, sorted, then deduplicated by its rule (keep an
    event more than EVENT_GAP above the event just before it), which one
    comparison over the sorted rows applies to every segment at once."""
    D = B - A
    L = _hypot(D[:, 0], D[:, 1])
    elo, ehi = np.minimum(ea, eb), np.maximum(ea, eb)
    slo, shi = np.minimum(A, B) - EPS, np.maximum(A, B) + EPS
    culled = ((ehi[None, :, 0] < slo[:, None, 0]) | (elo[None, :, 0] > shi[:, None, 0])
              | (ehi[None, :, 1] < slo[:, None, 1]) | (elo[None, :, 1] > shi[:, None, 1]))
    culled[L <= EPS] = True
    r, c = np.nonzero(~culled)

    dx, dy, Lr, Le = D[r, 0], D[r, 1], L[r], le[c]
    ex, ey = (eb[c] - ea[c]).T
    wx, wy = (ea[c] - A[r]).T
    tol = EPS / Lr
    denom = dx * ey - dy * ex
    cross = np.abs(denom) > PARALLEL_SIN * Lr * Le
    with np.errstate(divide="ignore", invalid="ignore"):
        tt = (wx * ey - wy * ex) / denom
        ss = (wx * dy - wy * dx) / denom
    hit = (cross & (-tol <= tt) & (tt <= 1.0 + tol)
           & (-EPS / Le <= ss) & (ss <= 1.0 + EPS / Le))
    # parallel: a collinear overlap adds both of its ends
    tu = (wx * dx + wy * dy) / (Lr * Lr)
    tv = ((eb[c, 0] - A[r, 0]) * dx + (eb[c, 1] - A[r, 1]) * dy) / (Lr * Lr)
    tlo, thi = np.minimum(tu, tv), np.maximum(tu, tv)
    overlap = (~cross & (np.abs(wx * dy - wy * dx) / Lr <= EPS)
               & (thi >= -tol) & (tlo <= 1.0 + tol))

    long = np.flatnonzero(L > EPS)
    rows = np.concatenate((long, long, r[hit], r[overlap], r[overlap]))
    vals = np.concatenate((np.zeros(len(long)), np.ones(len(long)),
                           tt[hit], tlo[overlap], thi[overlap]))
    vals = np.minimum(1.0, np.maximum(0.0, vals))
    order = np.lexsort((vals, rows))
    rows, vals = rows[order], vals[order]

    keep = np.ones(len(rows), dtype=bool)  # a segment's first event, or a new value
    keep[1:] = (rows[1:] != rows[:-1]) | (np.diff(vals) > EVENT_GAP)
    kr, kv = rows[keep], vals[keep]
    inner = kr[1:] == kr[:-1]
    return kr[:-1][inner], 0.5 * (kv[:-1] + kv[1:])[inner]


def segments_in_terrain(A: np.ndarray, B: np.ndarray, t: Terrain) -> np.ndarray:
    """`geom.segment_in_terrain` of every segment A[k]->B[k]: both ends in
    the terrain and, unless it is at most EPS long, the `lerp` midpoint of
    every interval between its boundary events in the terrain."""
    ea, eb = edge_arrays(t)
    le = _hypot(eb[:, 0] - ea[:, 0], eb[:, 1] - ea[:, 1])
    ok = np.empty(len(A), dtype=bool)
    step = max(1, CHUNK_CELLS // len(ea))
    for lo in range(0, len(A), step):
        a, b = A[lo:lo + step], B[lo:lo + step]
        row, s = _interval_midpoints(a, b, ea, eb, le)
        d = b - a
        px = np.concatenate((a[:, 0], b[:, 0], a[row, 0] + d[row, 0] * s))
        py = np.concatenate((a[:, 1], b[:, 1], a[row, 1] + d[row, 1] * s))
        n = len(a)
        owner = np.concatenate((np.arange(n), np.arange(n), row))
        out = np.zeros(n, dtype=bool)
        out[owner[~points_in_terrain(px, py, t)]] = True
        ok[lo:lo + step] = ~out
    return ok
