"""Scenario files, end-to-end runs with verification, and the bench suite.

A run computes the advice from full knowledge, replays the hunt from the
advice alone, and checks the trajectory, taking nothing else from the
agent: the agent's walk is the polyline from the start through the points
of its trajectory, and every length is measured from those points.  Its
last point must be the center of the tile the advice names, and that
center must see the treasure (`geom.sees`, so a center outside the
terrain sees nothing).  A step between two different points runs along a
ring when both ends are located on it within `geom.ON_RING_TOL` and it
spans the shorter arc between them; a cow-path search is a maximal run of
steps along one ring, and must walk (its steps' lengths summed in order)
within the doubling-search bound of its dmin (the shorter arc between the
arcs located for the run's ends), up to `geom.ARC_TOL`.  Any other step
is a free move and must lie in the terrain; a jump is such a step.  The
treasure must come into sight within RATIO_GATE times max(L, 1); the
advice must fit its size budget.  A point off every ring is a failure,
not an exception.

Regularity has one owner: a strict `Scenario` (the default) checks that
its terrain is regular when it is built, so a strict scenario file with an
irregular terrain is rejected when it loads.  The suite runs in one
process, its rows in the order of the seeds.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import agent, codec, oracle
from .agent import thunt
from .geom import (ARC_TOL, EPS, GeometryError, Point, Polygon, Terrain, TerrainError,
                   dist, distance_to_boundary, point_in_terrain, sees,
                   segment_in_terrain, validate_regular_terrain)
from .generators import random_regular_terrain

CSV_HEADER = "seed,lambda,L,advice_bits,first_sight_length,ratio,max_cowpath_ratio"

ADVICE_BITS_BUDGET_BASE = 10
ADVICE_BITS_BUDGET_SLOPE = 6
RATIO_GATE = 200.0  # first_sight / max(L, 1): the paper's O(L) cost claim


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class Scenario:
    """When `strict`, the terrain must be regular (a convex outer polygon,
    convex `fatness_c`-fat obstacles), where the paper's guarantees hold."""
    terrain: Terrain
    start: Point
    treasure: Point
    fatness_c: float = 2.0
    strict: bool = True

    def __post_init__(self):
        if not point_in_terrain(self.start, self.terrain):
            raise ScenarioError("start point is outside the terrain")
        if not point_in_terrain(self.treasure, self.terrain):
            raise ScenarioError("treasure is outside the terrain")
        if distance_to_boundary(self.treasure, self.terrain) <= EPS:
            raise ScenarioError("treasure must be an interior point of the terrain")
        if self.strict:
            try:
                validate_regular_terrain(self.terrain, self.fatness_c)
            except TerrainError as exc:
                raise ScenarioError(f"terrain is not regular: {exc}") from exc


@dataclass
class RunReport:
    """What a run measured; advice bits and ratios are derived from it."""
    advice: str
    lam: float
    L: float
    trajectory: list[Point]  # the points the agent walked through after the start
    first_sight_length: float
    searches: list[tuple[float, float]] = field(default_factory=list)  # (dmin, walked)
    failures: list[str] = field(default_factory=list)
    seed: Optional[int] = None

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def advice_bits(self) -> int:
        return len(self.advice)

    @property
    def ratio(self) -> float:
        return self.first_sight_length / max(self.L, 1.0)

    @property
    def max_cowpath_ratio(self) -> float:
        return max((walked / dmin for dmin, walked in self.searches if dmin > EPS),
                   default=0.0)

    def csv_row(self) -> str:
        seed = "" if self.seed is None else str(self.seed)
        return (f"{seed},{self.lam!r},{self.L!r},{self.advice_bits},"
                f"{self.first_sight_length!r},{self.ratio!r},{self.max_cowpath_ratio!r}")


def advice_bits_budget(L: float, lam: float) -> int:
    """10 + 6 * ceil(log2(3 L / lam + 5)) bits, reading L as is, where the
    ratio gate reads max(L, 1).  PAPER.md holds only the abstract of arXiv
    1811.06823, so the constants 10 and 6 are not traced to a theorem.  At
    small L the budget fails regular runs, as a1 = ceil(2/lam) costs about
    2 log2(2/lam) bits whatever L is: in the square [0, 10]^2, start
    (5, 0.001) and treasure (5.001, 0.0001) need 58 bits against 46."""
    return ADVICE_BITS_BUDGET_BASE + ADVICE_BITS_BUDGET_SLOPE * math.ceil(
        math.log2(3.0 * L / lam + 5.0))


def cowpath_bound(dmin: float) -> float:
    return max(9.0 * dmin, dmin + 2.0)


def run_scenario(scenario: Scenario, seed: Optional[int] = None) -> RunReport:
    """Advise, hunt, and verify one scenario."""
    t = scenario.terrain
    p, q = scenario.start, scenario.treasure

    lam = oracle.accessibility(t, q)
    advice = oracle.make_advice(t, p, q, lam)
    q_prime = codec.tile_center(p, codec.decode(advice))
    L = oracle.shortest_path(t, p, q)
    trajectory = thunt(t, p, advice)
    # called through the module, so that a wrapper installed there sees it
    first_sight = agent._first_sight_length(trajectory, p, q, t)
    report = RunReport(advice, lam, L, trajectory,
                       math.inf if first_sight is None else first_sight, seed=seed)
    failures = report.failures

    walk = [p, *trajectory]
    if dist(walk[-1], q_prime) > EPS:
        failures.append("agent did not reach the target tile center")
    if not sees(q_prime, q, t):  # a center outside the terrain sees nothing
        failures.append("target tile center does not see the treasure")
    if first_sight is None:
        failures.append("treasure never became visible along the trajectory")
    if math.isfinite(report.ratio) and report.ratio > RATIO_GATE:
        failures.append(f"cost ratio {report.ratio:.3f} exceeds the gate {RATIO_GATE:g}")

    budget = advice_bits_budget(L, lam)
    if len(advice) > budget:
        failures.append(f"advice length {len(advice)} exceeds budget {budget}")

    # a step that runs along a ring belongs to that ring's search; any
    # other step is a free move
    runs: list[list] = []  # per search: [ring, first arc, last arc, walked]
    prev = None
    for a, b, ring, first, last in _steps(walk, t.rings):
        if ring is None:
            if not segment_in_terrain(a, b, t):
                failures.append("free move leaves the terrain")
                break
        elif ring is prev:
            runs[-1][2] = last
            runs[-1][3] += dist(a, b)
        else:
            runs.append([ring, first, last, dist(a, b)])
        prev = ring

    for r, first, last, walked in runs:
        d = (last - first) % r.perimeter
        dmin = min(d, r.perimeter - d)
        report.searches.append((dmin, walked))
        if walked > cowpath_bound(dmin) + ARC_TOL:
            failures.append(
                f"perimeter search walked {walked:.6f} over bound "
                f"{cowpath_bound(dmin):.6f}")
    return report


def _steps(points: Sequence[Point], rings: Sequence[Polygon]):
    """Each step of the polyline between two different points, as (a, b,
    ring, arc of a, arc of b) when it runs along a ring, else (a, b, None,
    None, None).  It runs along the ring when both ends lie on it, within
    ON_RING_TOL (`Polygon.locate`), and it spans the shorter arc between
    them, not a chord.  Along a run of steps on one ring, each point is
    located once, next to its predecessor's edge first."""
    ring = at = None  # the ring the step before ran along, and its end's (edge, arc)
    for a, b in zip(points, points[1:]):
        if a == b:
            continue
        # the ring of the step before first: there the step's first point
        # is not located again
        for r in ([ring] if ring else []) + [r for r in rings if r is not ring]:
            try:
                i, sa = at if r is ring else r.locate(a)
                j, sb = r.locate(b, near=i)
            except GeometryError:
                continue
            gap = (sb - sa) % r.perimeter
            if abs(min(gap, r.perimeter - gap) - dist(a, b)) <= ARC_TOL:
                ring, at = r, (j, sb)
                yield a, b, r, sa, sb
                break
        else:
            ring = None
            yield a, b, None, None, None


def bench_scenario(seed: int, n_obstacles: Optional[int] = None, c: float = 2.0,
                   extent: float = 10.0) -> Scenario:
    """Deterministic bench scenario for a seed (obstacle count cycles 0..10
    with the seed unless given)."""
    n = n_obstacles if n_obstacles is not None else seed % 11
    terrain, p, q = random_regular_terrain(seed, n, c=c, extent=extent)
    return Scenario(terrain, p, q, fatness_c=c)


def bench(seeds: Sequence[int], n_obstacles: Optional[int] = None, c: float = 2.0,
          extent: float = 10.0) -> list[RunReport]:
    """Run the seeded suite in this process, one report per seed, in the
    order of `seeds`."""
    return [run_scenario(bench_scenario(s, n_obstacles, c, extent), seed=s) for s in seeds]


def reports_to_csv(reports: Sequence[RunReport]) -> str:
    lines = [CSV_HEADER]
    lines.extend(r.csv_row() for r in reports)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# scenario files


def scenario_to_dict(sc: Scenario) -> dict:
    return {
        "format": "thunt-scenario",
        "version": 1,
        "fatness_c": sc.fatness_c,
        "strict": sc.strict,
        "start": [float(sc.start.x), float(sc.start.y)],
        "treasure": [float(sc.treasure.x), float(sc.treasure.y)],
        "outer": [[v.x, v.y] for v in sc.terrain.outer.vertices],
        "obstacles": [[[v.x, v.y] for v in obs.vertices]
                      for obs in sc.terrain.obstacles],
    }


def _as_float(value, where: str) -> float:
    try:
        return float(value)
    except OverflowError:
        raise ScenarioError(f"field '{where}' holds a number too large for a float") from None


def _as_point(value, where: str) -> Point:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       for v in value)):
        raise ScenarioError(f"field '{where}' must be a [x, y] pair of numbers")
    return Point(_as_float(value[0], where), _as_float(value[1], where))


def _as_ring(value, where: str) -> Polygon:
    if not isinstance(value, list) or len(value) < 3:
        raise ScenarioError(f"field '{where}' must be a list of at least 3 vertices")
    pts = [_as_point(v, f"{where}[{i}]") for i, v in enumerate(value)]
    try:
        return Polygon(pts)
    except GeometryError as exc:
        raise ScenarioError(f"field '{where}': {exc}") from exc


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario file must contain a JSON object")
    if data.get("format") != "thunt-scenario":
        raise ScenarioError("field 'format' must be 'thunt-scenario'")
    version = data.get("version", 1)
    if type(version) is not int or version != 1:  # not True, not 1.0
        raise ScenarioError("field 'version' must be 1")
    for key in ("start", "treasure", "outer", "obstacles"):
        if key not in data:
            raise ScenarioError(f"missing field '{key}'")
    outer = _as_ring(data["outer"], "outer")
    if not isinstance(data["obstacles"], list):
        raise ScenarioError("field 'obstacles' must be a list")
    obstacles = [_as_ring(o, f"obstacles[{i}]") for i, o in enumerate(data["obstacles"])]
    try:
        terrain = Terrain(outer, obstacles)
    except TerrainError as exc:
        raise ScenarioError(str(exc)) from exc
    start = _as_point(data["start"], "start")
    treasure = _as_point(data["treasure"], "treasure")
    fatness = data.get("fatness_c", 2.0)
    if not isinstance(fatness, (int, float)) or not 1 < fatness < math.inf:  # NaN, inf too
        raise ScenarioError("field 'fatness_c' must be a number > 1")
    strict = data.get("strict", True)
    if not isinstance(strict, bool):
        raise ScenarioError("field 'strict' must be a boolean")
    return Scenario(terrain, start, treasure, _as_float(fatness, "fatness_c"), strict)


def save_scenario(sc: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(sc), fh, indent=2)
        fh.write("\n")


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ScenarioError("scenario JSON is nested too deeply") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario file is not UTF-8 text: {exc.reason}") from exc
    return scenario_from_dict(data)
