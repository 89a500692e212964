"""Advice-only side: the hunting agent.

The agent decodes the advice triple, takes the center of the tile it
names in the grid anchored at its start point (`codec.tile_center`), and
free-moves along the segment toward it.  One rule, `geom.first_hit`,
decides both ends of every contact with an obstacle: the boundary event
where the segment leaves the terrain and the one where it comes back.
The agent runs a doubling (cow-path) search along the perimeter from the
first until it walks onto the second, then continues.  It imports nothing
from the oracle and returns only its trajectory, the list of points it
walked through after its start (a point equal to the one before it is
left out), and the tile center it aimed for; it is never given the
treasure and keeps no lengths and no labels: the verifier measures what
was walked.  The search is the same on any terrain: the paper's
guarantees hold on regular ones, which a strict `harness.Scenario`
enforces when it is built.

`_first_sight_length` measures, for the verifier, where along the
polyline from the start through the trajectory the treasure first
becomes visible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .codec import AdviceError, decode, tile_center
from .geom import (ARC_TOL, EPS, ON_RING_TOL, SIGHT_RADIUS, GeometryError, Point, Polygon,
                   Terrain, dist, first_hit, lerp, march, point_in_terrain, sees)


@dataclass
class HuntOutcome:
    trajectory: list[Point]  # the points walked through after the start
    q_prime: Point


def _walk(trajectory: list[Point], points: Iterable[Point]) -> None:
    """Append the points, each unless it equals the one before it."""
    for pt in points:
        if not trajectory or pt != trajectory[-1]:
            trajectory.append(pt)


def choose_directions(ring: Polygon, r: Point) -> tuple[int, int]:
    """Traversal senses (dir1, dir2) for a perimeter search starting at r.

    At a vertex, dir1 follows the adjacent side whose outgoing direction
    makes the smaller angle with North (ties go to the smaller clockwise
    bearing from North).  Inside a side, dir1 heads West if the side is
    horizontal and otherwise into the northern half-plane through r.
    Senses are +1 (stored counterclockwise order) / -1.
    """
    i, _ = ring.locate(r)
    vs = ring.vertices
    n = ring.n

    at_vertex = None
    if dist(r, vs[i]) <= ON_RING_TOL:
        at_vertex = i
    elif dist(r, vs[(i + 1) % n]) <= ON_RING_TOL:
        at_vertex = (i + 1) % n

    if at_vertex is not None:
        v = vs[at_vertex]
        fwd = vs[(at_vertex + 1) % n]   # sense +1
        back = vs[at_vertex - 1]        # sense -1
        cands = []
        for sense, other in ((1, fwd), (-1, back)):
            dx, dy = other.x - v.x, other.y - v.y
            cosang = dy / math.hypot(dx, dy)
            bearing = math.atan2(dx, dy)  # clockwise from North
            if bearing < 0:
                bearing += 2 * math.pi
            cands.append((sense, cosang, bearing))
        (s1, c1, b1), (s2, c2, b2) = cands
        if abs(c1 - c2) > 1e-12:
            dir1 = s1 if c1 > c2 else s2
        else:
            dir1 = s1 if b1 <= b2 else s2
        return dir1, -dir1

    a, b = vs[i], vs[(i + 1) % n]
    ex, ey = b.x - a.x, b.y - a.y
    if abs(ey) <= EPS * math.hypot(ex, ey):  # horizontal side: head West
        dir1 = 1 if ex < 0 else -1
    else:
        dir1 = 1 if ey > 0 else -1
    return dir1, -dir1


def cow_path(ring: Polygon, r: Point, r_prime: Point, trajectory: list[Point]) -> Point:
    """Doubling perimeter search from the hit point r for r_prime, the
    point of the ring where the free move's segment comes back out.

    Walks legs of length 1, 2, 4, ... alternating dir1/dir2 (returning to r
    after each failed leg), appending the points of every leg to the
    trajectory, and stops on the first leg that reaches r_prime.  Both
    points must lie on the ring.  Returns r_prime.
    """
    P = ring.perimeter
    _, arc_r = ring.locate(r)
    _, arc_rp = ring.locate(r_prime)
    dir1, dir2 = choose_directions(ring, r)
    d_fwd = (arc_rp - arc_r) * dir1 % P  # distance to r' going dir1

    leg = 1.0
    sense = dir1
    while True:
        target = d_fwd if sense == dir1 else P - d_fwd
        if target <= leg + ARC_TOL:
            pts = march(ring, arc_r, target, sense)
            pts[-1] = r_prime  # exact landing, no arc rounding
            _walk(trajectory, pts)
            return r_prime
        out = march(ring, arc_r, leg, sense)
        _walk(trajectory, out + out[::-1])
        leg *= 2
        sense = dir2 if sense == dir1 else dir1


def thunt(t: Terrain, p: Point, advice: str) -> HuntOutcome:
    """Execute the hunt from p using only the advice string.

    The search is the same on any terrain; its cost guarantees hold on a
    regular one, which a strict `harness.Scenario` enforces.  On another
    terrain it still searches the ring it hits for the segment's re-entry;
    a re-entry on another ring raises GeometryError.
    """
    if not point_in_terrain(p, t):
        raise GeometryError("agent start must lie in the terrain")
    try:
        q_prime = tile_center(p, decode(advice))
    except OverflowError:
        raise AdviceError("advice points beyond float range (corrupt advice?)") from None
    if not point_in_terrain(q_prime, t):
        raise AdviceError("advice points outside the terrain (corrupt advice?)")

    walk = [p]
    pos = p
    # Each pass lands on a later boundary event of the segment pos q'
    # (first_hit's re-entry ends a run of outside intervals, so it lies
    # beyond the hit and beyond pos), and the segment p q' crosses each
    # boundary edge at most once; so one pass per boundary edge, plus the
    # last free move, is enough.
    passes = 0
    while dist(pos, q_prime) > EPS:
        passes += 1
        if passes > len(t.boundary_edges) + 1:
            raise GeometryError("hunt failed to make progress (non-regular terrain?)")
        hit = first_hit(pos, q_prime, t)
        if hit is None:
            _walk(walk, [q_prime])
            break
        _walk(walk, [hit.point])
        pos = cow_path(hit.ring, hit.point, hit.reentry, walk)
    return HuntOutcome(walk[1:], q_prime)


def _first_sight_length(trajectory: list[Point], start: Point, q: Point,
                        t: Terrain) -> Optional[float]:
    """Arc length along the polyline [start, *trajectory] at which the
    treasure first becomes visible, exactly.

    Along a step, whether x sees q can change only where |xq| crosses
    SIGHT_RADIUS or where the line through x and q passes a boundary vertex
    within that radius of q.  The visible set is closed, so the first
    sight on a step is the first of these events that is
    visible itself or whose following interval is visible at its midpoint.
    Visible is `geom.sees`, which answers False for the points of a free
    move that lie outside the terrain.
    """
    if sees(start, q, t):
        return 0.0
    near = [u for u, _ in t.boundary_edges if dist(u, q) <= SIGHT_RADIUS]
    arc = 0.0
    for a, b in zip([start, *trajectory], trajectory):
        seg = dist(a, b)
        dx, dy = b.x - a.x, b.y - a.y
        ax, ay = a.x - q.x, a.y - q.y
        # the part of ab inside the sight disc: |a - q + s (b - a)| <= SIGHT_RADIUS,
        # solved about the foot s0 of the perpendicular from q: no cancellation
        A = dx * dx + dy * dy
        s0 = -(ax * dx + ay * dy) / A if A > 0.0 else 0.0
        hx, hy = ax + s0 * dx, ay + s0 * dy
        gap = SIGHT_RADIUS * SIGHT_RADIUS - (hx * hx + hy * hy)
        if A > 0.0 and gap >= 0.0:
            w = math.sqrt(gap / A)
            lo, hi = max(0.0, s0 - w), min(1.0, s0 + w)
            events = [lo, hi] if lo <= hi else []
            for v in near:
                vx, vy = v.x - q.x, v.y - q.y
                den = vx * dy - vy * dx
                if den != 0.0:  # x never crosses a line qv parallel to ab
                    s = (vy * ax - vx * ay) / den
                    if lo < s < hi:
                        events.append(s)
            events.sort()
            for i, s in enumerate(events):
                if sees(lerp(a, b, s), q, t) or (
                        i + 1 < len(events)
                        and sees(lerp(a, b, 0.5 * (s + events[i + 1])), q, t)):
                    return arc + s * seg
        arc += seg
    return None
