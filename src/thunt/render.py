"""Deterministic SVG rendering of scenarios and trajectories.

The trajectory is drawn as one path per maximal run of steps of one
colour: the walk colour for a step that runs along a ring by the
verifier's rule (`harness._steps`), the free colour otherwise."""
from __future__ import annotations

import math
from itertools import groupby
from typing import Optional

from .codec import decode, tile_center
from .geom import Point
from .harness import Scenario, _steps
from .oracle import accessibility

_COLORS = {
    "outer_fill": "#f7f6f1",
    "outer_stroke": "#333333",
    "obstacle_fill": "#8d99ae",
    "obstacle_stroke": "#4a5568",
    "grid": "#c8d2e0",
    "free": "#1d6fb8",
    "walk": "#e07b00",
    "treasure": "#2a9d3a",
    "q_prime": "#8e44ad",
    "start": "#000000",
}


def _fmt(v: float) -> str:
    """Shortest text that reads back as v, with -0.0 written as 0.0."""
    return repr(float(v) + 0.0)


def _path(points, close: bool = False) -> str:
    parts = [f"M {_fmt(points[0].x)} {_fmt(points[0].y)}"]
    parts.extend(f"L {_fmt(p.x)} {_fmt(p.y)}" for p in points[1:])
    if close:
        parts.append("Z")
    return " ".join(parts)


def render_svg(scenario: Scenario, trajectory: Optional[list[Point]] = None,
               advice: Optional[str] = None, tiling: bool = False) -> str:
    """SVG document for a scenario, optionally with the agent trajectory
    (the points walked through after the start).  Given the advice, it also
    draws the treasure visibility disc of radius lam = `oracle.accessibility`,
    the center of the tile the advice names when a trajectory is drawn, and
    with `tiling` the tiles of side 1/a1 around the disc, of the grid
    anchored at the start.  Identical inputs yield identical bytes."""
    t = scenario.terrain
    x0, y0, x1, y1 = t.outer.bbox
    margin = 0.05 * max(x1 - x0, y1 - y0, 1.0)
    vx, vy = x0 - margin, y0 - margin
    vw, vh = (x1 - x0) + 2 * margin, (y1 - y0) + 2 * margin
    height = round(800 * vh / vw)
    stroke = vw / 400.0
    dot = 2.5 * stroke

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="800" height="{height}" '
        f'viewBox="{_fmt(vx)} {_fmt(vy)} {_fmt(vw)} {_fmt(vh)}">',
        # flip y so north is up
        f'<g transform="translate(0 {_fmt(vy * 2 + vh)}) scale(1 -1)">',
        f'<path d="{_path(t.outer.vertices, close=True)}" fill="{_COLORS["outer_fill"]}" '
        f'stroke="{_COLORS["outer_stroke"]}" stroke-width="{_fmt(stroke)}"/>',
    ]

    triple = None if advice is None else decode(advice)
    if tiling and triple is not None:
        # the tiles that meet the box of the treasure disc, where the oracle
        # picks its tile: the advice's side s = 1/ceil(2/lam) has lam < 3s
        s, g, q = 1.0 / triple.a1, scenario.start, scenario.treasure
        kx, ky = math.floor((q.x - g.x) / s), math.floor((q.y - g.y) / s)
        xs = [g.x + (kx + i) * s for i in range(-3, 5)]
        ys = [g.y + (ky + i) * s for i in range(-3, 5)]
        lines = [f'<line x1="{_fmt(x)}" y1="{_fmt(ys[0])}" x2="{_fmt(x)}" y2="{_fmt(ys[-1])}"/>'
                 for x in xs]
        lines += [f'<line x1="{_fmt(xs[0])}" y1="{_fmt(y)}" x2="{_fmt(xs[-1])}" y2="{_fmt(y)}"/>'
                  for y in ys]
        out.append(f'<g stroke="{_COLORS["grid"]}" stroke-width="{_fmt(stroke / 2)}">'
                   + "".join(lines) + "</g>")

    for obs in t.obstacles:
        out.append(f'<path d="{_path(obs.vertices, close=True)}" '
                   f'fill="{_COLORS["obstacle_fill"]}" stroke="{_COLORS["obstacle_stroke"]}" '
                   f'stroke-width="{_fmt(stroke / 2)}"/>')

    if triple is not None:
        lam = accessibility(t, scenario.treasure)
        out.append(f'<circle cx="{_fmt(scenario.treasure.x)}" cy="{_fmt(scenario.treasure.y)}" '
                   f'r="{_fmt(lam)}" fill="none" stroke="{_COLORS["treasure"]}" '
                   f'stroke-width="{_fmt(stroke)}" stroke-dasharray="{_fmt(4 * stroke)}"/>')

    if trajectory is not None:
        steps = _steps([scenario.start, *trajectory], t.rings)
        for free, run in groupby(steps, key=lambda step: step[2] is None):
            run = list(run)
            out.append(f'<path d="{_path([run[0][0], *(step[1] for step in run)])}" '
                       f'fill="none" stroke="{_COLORS["free" if free else "walk"]}" '
                       f'stroke-width="{_fmt(1.5 * stroke)}" stroke-linecap="round"/>')

    out.append(f'<circle cx="{_fmt(scenario.start.x)}" cy="{_fmt(scenario.start.y)}" '
               f'r="{_fmt(dot)}" fill="{_COLORS["start"]}"/>')
    out.append(f'<circle cx="{_fmt(scenario.treasure.x)}" cy="{_fmt(scenario.treasure.y)}" '
               f'r="{_fmt(dot)}" fill="{_COLORS["treasure"]}"/>')
    if triple is not None and trajectory is not None:
        q_prime, d = tile_center(scenario.start, triple), 1.6 * dot
        out.append(f'<g stroke="{_COLORS["q_prime"]}" stroke-width="{_fmt(stroke)}">'
                   f'<line x1="{_fmt(q_prime.x - d)}" y1="{_fmt(q_prime.y - d)}" '
                   f'x2="{_fmt(q_prime.x + d)}" y2="{_fmt(q_prime.y + d)}"/>'
                   f'<line x1="{_fmt(q_prime.x - d)}" y1="{_fmt(q_prime.y + d)}" '
                   f'x2="{_fmt(q_prime.x + d)}" y2="{_fmt(q_prime.y - d)}"/></g>')

    out.append("</g></svg>")
    return "\n".join(out) + "\n"
