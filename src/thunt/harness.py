"""Scenario files, end-to-end runs with verification, and the bench suite.

A run computes the advice from full knowledge, replays the hunt from the
advice alone, and checks the trajectory, taking nothing else from the
agent: it must lead from the start to the center of the tile the oracle
selected, which must see the treasure; free moves must stay inside the
terrain and perimeter pieces must follow their ring; each cow-path search,
a maximal run of perimeter pieces on one ring, must walk (the run's
length) within the doubling-search bound of its dmin (the shorter arc
between the run's ends); the treasure must come into sight within
RATIO_GATE times max(L, 1); the advice must fit its size budget.
"""
from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import agent, oracle
from .agent import HuntOutcome, MoveKind, thunt
from .geom import (ARC_TOL, EPS, GeometryError, Point, Polygon, Terrain,
                   TerrainError, dist, distance_to_boundary, perimeter_split,
                   point_in_terrain, sees, segment_in_terrain,
                   validate_regular_terrain)
from .generators import random_regular_terrain

CSV_HEADER = "seed,lambda,L,advice_bits,first_sight_length,ratio,max_cowpath_ratio"

ADVICE_BITS_BUDGET_BASE = 10
ADVICE_BITS_BUDGET_SLOPE = 6
COWPATH_SLACK = 1e-9
RATIO_GATE = 200.0  # first_sight / max(L, 1): the paper's O(L) cost claim
PIECE_JOIN_TOL = 1e-6


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class Scenario:
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


@dataclass
class RunReport:
    advice: str
    advice_bits: int
    lam: float
    rho: float
    L: float
    outcome: HuntOutcome
    first_sight_length: float
    ratio: float
    max_cowpath_ratio: float = 0.0
    searches: list[tuple[float, float]] = field(default_factory=list)  # (dmin, walked)
    failures: list[str] = field(default_factory=list)
    seed: Optional[int] = None

    @property
    def passed(self) -> bool:
        return not self.failures

    def csv_row(self) -> str:
        seed = "" if self.seed is None else str(self.seed)
        return (f"{seed},{self.lam!r},{self.L!r},{self.advice_bits},"
                f"{self.first_sight_length!r},{self.ratio!r},{self.max_cowpath_ratio!r}")


def advice_bits_budget(L: float, lam: float) -> int:
    return ADVICE_BITS_BUDGET_BASE + ADVICE_BITS_BUDGET_SLOPE * math.ceil(
        math.log2(3.0 * L / lam + 5.0))


def cowpath_bound(dmin: float) -> float:
    return max(9.0 * dmin, dmin + 2.0)


def run_scenario(scenario: Scenario, seed: Optional[int] = None) -> RunReport:
    """Advise, hunt, and verify one scenario."""
    t = scenario.terrain
    p, q = scenario.start, scenario.treasure
    failures: list[str] = []

    if scenario.strict:
        try:
            validate_regular_terrain(t, scenario.fatness_c)
        except TerrainError as exc:
            raise ScenarioError(f"terrain is not regular: {exc}") from exc

    spec = oracle.accessibility(t, q)
    advice = oracle.make_advice(t, p, spec)
    _, _, q_prime = oracle.select_tile(t, p, spec)
    L, _ = oracle.shortest_path(t, p, q)
    outcome = thunt(t, p, advice, strict=scenario.strict)

    # arrival is checked on the trajectory itself: a path from p to q'
    pieces = outcome.trajectory.pieces
    ends = [p] + [piece.points[-1] for piece in pieces]
    if any(dist(end, piece.points[0]) > PIECE_JOIN_TOL for end, piece in zip(ends, pieces)):
        failures.append("trajectory is not continuous from the start point")
    if dist(ends[-1], q_prime) > EPS:
        failures.append("agent did not reach the target tile center")
    try:
        if not sees(q_prime, q, t):
            failures.append("target tile center does not see the treasure")
    except GeometryError:
        failures.append("target tile center left the terrain")
    # called through the module, so that a wrapper installed there sees it
    first_sight = agent._first_sight_length(outcome.trajectory, p, q, t)
    if first_sight is None:
        failures.append("treasure never became visible along the trajectory")
        first_sight = math.inf
    ratio = first_sight / max(L, 1.0)
    if math.isfinite(ratio) and ratio > RATIO_GATE:
        failures.append(f"cost ratio {ratio:.3f} exceeds the gate {RATIO_GATE:g}")

    budget = advice_bits_budget(L, spec.lam)
    if len(advice) > budget:
        failures.append(f"advice length {len(advice)} exceeds budget {budget}")

    runs: list[list] = []  # per search: [ring, first point, last point, walked]
    ring = None
    for piece in pieces:
        if piece.kind is MoveKind.FREE_MOVE:
            ring = None
            if not segment_in_terrain(piece.points[0], piece.points[-1], t):
                failures.append("free move leaves the terrain")
                break
            continue
        prev, ring = ring, next((r for _, r in t.rings() if _follows(piece.points, r)), None)
        if ring is None:
            failures.append("perimeter walk leaves its ring")
            break
        if ring is prev:
            runs[-1][2] = piece.points[-1]
            runs[-1][3] += piece.length
        else:
            runs.append([ring, piece.points[0], piece.points[-1], piece.length])
    searches = [(perimeter_split(r, a, b)[0], walked) for r, a, b, walked in runs]

    max_cp = 0.0
    for dmin, walked in searches:
        if walked > cowpath_bound(dmin) + COWPATH_SLACK:
            failures.append(
                f"perimeter search walked {walked:.6f} over bound "
                f"{cowpath_bound(dmin):.6f}")
        if dmin > EPS:
            max_cp = max(max_cp, walked / dmin)

    return RunReport(
        advice=advice,
        advice_bits=len(advice),
        lam=spec.lam,
        rho=spec.rho,
        L=L,
        outcome=outcome,
        first_sight_length=first_sight,
        ratio=ratio,
        max_cowpath_ratio=max_cp,
        searches=searches,
        failures=failures,
        seed=seed,
    )


def _follows(points: Sequence[Point], ring: Polygon) -> bool:
    """Whether a polyline runs along the ring: every point lies on it, and
    each step spans the shorter arc between its ends, not a chord."""
    try:
        arcs = [ring.arc_of_point(pt, tol=1e-6) for pt in points]
    except GeometryError:
        return False
    P = ring.perimeter
    for a, b, sa, sb in zip(points, points[1:], arcs, arcs[1:]):
        gap = (sb - sa) % P
        if abs(min(gap, P - gap) - dist(a, b)) > ARC_TOL:
            return False
    return True


def bench_scenario(seed: int, n_obstacles: Optional[int] = None, c: float = 2.0,
                   extent: float = 10.0) -> Scenario:
    """Deterministic bench scenario for a seed (obstacle count cycles 0..10
    with the seed unless given)."""
    n = n_obstacles if n_obstacles is not None else seed % 11
    terrain, p, q = random_regular_terrain(seed, n, c=c, extent=extent)
    return Scenario(terrain, p, q, fatness_c=c)


def _bench_one(args) -> RunReport:
    seed, n_obstacles, c, extent = args
    return run_scenario(bench_scenario(seed, n_obstacles, c, extent), seed=seed)


def bench(seeds: Sequence[int], n_obstacles: Optional[int] = None, c: float = 2.0,
          extent: float = 10.0, jobs: int = 1) -> list[RunReport]:
    """Run the seeded suite; scenarios may run in parallel, rows come back
    sorted by seed so output is deterministic either way."""
    work = [(s, n_obstacles, c, extent) for s in seeds]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_bench_one, work, chunksize=4))
    else:
        reports = [_bench_one(w) for w in work]
    reports.sort(key=lambda r: (r.seed is None, r.seed))
    return reports


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
