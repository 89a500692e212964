import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import empty_square_terrain, square
from support import ring_along, shorter_arc, trajectory_length
from thunt import (EPS, AdviceError, GeometryError, Point, Polygon, Scenario, Terrain,
                   accessibility, choose_directions, cow_path, decode, encode, make_advice,
                   run_scenario, sees, segment_in_terrain, thunt)
from thunt import agent, geom
from thunt.agent import _first_sight_length
from thunt.codec import tile_center
from thunt.generators import random_fat_polygon

UNIT = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


def cowpath_bound(dmin):
    return max(9.0 * dmin, dmin + 2.0)


def steps(p, trajectory):
    """The steps of the polyline from p through the trajectory's points."""
    walk = [p, *trajectory]
    return list(zip(walk, walk[1:]))


def assert_arrives(trajectory, p, advice):
    """The polyline from p through the trajectory ends at the center of the
    advice's tile, and no point of it equals the one before it."""
    assert math.dist([p, *trajectory][-1], tile_center(p, decode(advice))) <= EPS
    assert all(a != b for a, b in steps(p, trajectory))


# --- direction rule -----------------------------------------------------------

def test_dir1_on_vertical_side_heads_north():
    # left side of the CCW square runs downward, so "toward the northern
    # endpoint" is the reverse sense
    assert choose_directions(UNIT, Point(0, 0.5)) == -1
    # right side runs upward: forward sense
    assert choose_directions(UNIT, Point(1, 0.5)) == 1


def test_dir1_on_horizontal_side_heads_west():
    assert choose_directions(UNIT, Point(0.5, 0)) == -1  # bottom edge, CCW = east
    assert choose_directions(UNIT, Point(0.5, 1)) == 1  # top edge, CCW = west


def test_dir1_at_corner_prefers_vertical_side():
    # corner (1,0): adjacent sides head north (angle 0) and west (angle pi/2)
    assert choose_directions(UNIT, Point(1, 0)) == 1  # CCW = up the right side


def test_dir1_tie_breaks_clockwise_from_north():
    # diamond vertex with both sides at 45 degrees from north
    diamond = Polygon([(1, 0), (2, 1), (1, 2), (0, 1)])
    # NE side (toward (2,1), bearing 45) beats NW side (bearing 315)?
    # smaller clockwise bearing from north wins: 45 < 315
    assert choose_directions(diamond, Point(1, 0)) == 1


# --- cow path ------------------------------------------------------------------

def test_cow_path_square_hand_simulation():
    traj = []
    cow_path(UNIT, Point(0, 0.5), Point(1, 0.5), traj)
    rp = traj[-1]
    dmin, walked = shorter_arc(UNIT, Point(0, 0.5), rp), geom.polyline_length(traj)
    assert math.dist(rp, (1.0, 0.5)) < 1e-9
    assert abs(dmin - 2.0) < 1e-9
    assert abs(walked - 4.0) < 1e-9
    # the leg of 1 north and back, then the leg of 2 south that finds r'
    assert [(round(pt.x, 9), round(pt.y, 9)) for pt in traj] == [
        (0, 0.5), (0, 1), (0.5, 1), (0, 1), (0, 0.5), (0, 0), (1, 0), (1, 0.5)]
    assert {ring_along(a, b, Terrain(square(-1, -1, 3), [UNIT]))
            for a, b in zip(traj, traj[1:])} == {UNIT}


def test_cow_path_found_in_first_leg():
    # r on the left side, r' 0.5 up-and-around in dir1 (north)
    r = Point(0, 0.7)
    rp_expect = Point(0.2, 1.0)  # 0.3 up + 0.2 east along the top
    traj = []
    cow_path(UNIT, r, rp_expect, traj)
    assert math.dist(traj[-1], rp_expect) < 1e-9
    assert abs(geom.polyline_length(traj) - 0.5) < 1e-9


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60)
def test_cow_path_respects_doubling_bound(seed):
    rng = random.Random(seed)
    c = rng.choice([1.5, 2.0, 3.0])
    poly = random_fat_polygon(rng, c, radius=0.5 + 2.5 * rng.random())
    r, r_prime = (poly.point_at_arc(rng.random() * poly.perimeter) for _ in range(2))
    traj = []
    cow_path(poly, r, r_prime, traj)
    assert traj[-1] == r_prime
    dmin, walked = shorter_arc(poly, r, r_prime), geom.polyline_length(traj)
    assert walked <= cowpath_bound(dmin) + 1e-9


# --- the hunt --------------------------------------------------------------------

def test_hunt_straight_line():
    t = empty_square_terrain(10, -5)
    advice = encode(2, 2, 1)
    trajectory = thunt(t, Point(0, 0), advice)
    assert_arrives(trajectory, Point(0, 0), advice)
    q_prime = tile_center(Point(0, 0), decode(advice))
    assert math.dist(q_prime, (0.75, 0.25)) < 1e-12
    assert abs(trajectory_length(Point(0, 0), trajectory)
               - math.sqrt(0.75 ** 2 + 0.25 ** 2)) < 1e-12
    assert trajectory == [q_prime]
    assert ring_along(Point(0, 0), q_prime, t) is None


def test_hunt_around_one_obstacle():
    t = Terrain(square(-2, -2, 12), [square(2, 0.1, 1.2)])
    p, q = Point(0, 0.7), Point(6, 0.75)
    report = run_scenario(Scenario(t, p, q))
    assert_arrives(report.trajectory, p, report.advice)
    assert sees(tile_center(p, decode(report.advice)), q, t)
    assert ({ring_along(a, b, t) for a, b in steps(p, report.trajectory)}
            == {None, t.obstacles[0]})
    assert len(report.searches) == 1
    # every step must stay in the terrain
    for a, b in steps(p, report.trajectory):
        assert segment_in_terrain(a, b, t)


def test_hunt_first_sight_zero_when_visible_at_start():
    t = empty_square_terrain(10, -5)
    q = Point(0.3, 0.4)
    trajectory = thunt(t, Point(0, 0), encode(2, 2, 1))
    assert _first_sight_length(trajectory, Point(0, 0), q, t) == 0.0


def test_hunt_first_sight_bracketed():
    t = empty_square_terrain(20, -10)
    q = Point(4.0, 3.0)  # distance 5 from start
    advice = make_advice(t, Point(0, 0), q, accessibility(t, q))
    trajectory = thunt(t, Point(0, 0), advice)
    first_sight = _first_sight_length(trajectory, Point(0, 0), q, t)
    assert first_sight is not None
    assert 0 < first_sight <= trajectory_length(Point(0, 0), trajectory)
    # straight walk toward a tile center near q: visibility starts around
    # distance |pq| - 1 = 4
    assert abs(first_sight - 4.0) < 0.2


@pytest.mark.parametrize("side", [10.0 ** k for k in range(6, 14)])
def test_first_sight_on_a_walk_long_against_the_sight_radius(side):
    # one free move of about side/2 that ends within 0.36 of q: the entry
    # into the sight disc must not cancel away against the walk's length
    t = empty_square_terrain(side)
    p, q = Point(1, 1), Point(side / 2, 1.5)
    report = run_scenario(Scenario(t, p, q))
    assert report.passed, report.failures
    assert math.dist(p, q) - 1 <= report.first_sight_length <= math.dist(p, q) - 0.9


def test_a_hunt_that_never_advances_stops_within_the_boundary_bound(monkeypatch):
    # first_hit keeps answering with the first obstacle entry, so every pass
    # lands back on the same exit; the guard is one pass per boundary edge
    # plus the last free move
    t = Terrain(square(-2, -2, 12), [square(2, 0.1, 1.2)])
    p, q = Point(0, 0.7), Point(6, 0.75)
    advice = make_advice(t, p, q, accessibility(t, q))
    first_hit, hits = agent.first_hit, []

    def stuck(frm, toward, terrain):
        hits.append(hits[0] if hits else first_hit(frm, toward, terrain))
        return hits[-1]

    monkeypatch.setattr(agent, "first_hit", stuck)
    with pytest.raises(GeometryError, match="progress"):
        thunt(t, p, advice)
    assert len(hits) == len(t.boundary_edges) + 1


def test_hunt_rejects_malformed_advice():
    t = empty_square_terrain(10, -5)
    with pytest.raises(AdviceError):
        thunt(t, Point(0, 0), "110110")


def test_hunt_rejects_a_start_outside_the_terrain():
    t = Terrain(square(0, 0, 10), [square(4, 4, 2)])
    for p in (Point(-1, 5), Point(5, 5)):  # outside the outer ring, in the obstacle
        with pytest.raises(GeometryError, match="agent start must lie in the terrain"):
            thunt(t, p, encode(2, 1, 1))


def test_hunt_rejects_advice_pointing_outside():
    t = empty_square_terrain(10, -5)
    with pytest.raises(AdviceError):
        thunt(t, Point(0, 0), encode(1, 40, 40))


def test_hunt_deterministic():
    t = Terrain(square(-2, -2, 12), [square(2, 0.1, 1.2), square(4.1, -0.4, 0.9)])
    p, q = Point(0, 0.7), Point(6.5, 0.75)
    advice = make_advice(t, p, q, accessibility(t, q))
    a = thunt(t, p, advice)
    b = thunt(t, p, advice)
    assert a == b
    assert trajectory_length(p, a) == trajectory_length(p, b)
    assert _first_sight_length(a, p, q, t) == _first_sight_length(b, p, q, t)


def test_cow_path_enters_at_vertex():
    # a free move through both extreme vertices of a diamond: the hit and
    # the re-entry are vertices, and the search walks from one to the other
    diamond = Polygon([(3, 0), (4, 1), (5, 0), (4, -1)])
    hit = agent.first_hit(Point(-1, 0), Point(9, 0), Terrain(square(-2, -3, 12), [diamond]))
    traj = []
    cow_path(diamond, hit.point, hit.reentry, traj)
    rp = traj[-1]
    assert math.dist(rp, (5.0, 0.0)) < 1e-9
    assert abs(shorter_arc(diamond, Point(3, 0), rp) - 2 * math.sqrt(2)) < 1e-9
    # (5, 0) lies 2*sqrt(2) away either way: the legs of 1 (north-east, dir1)
    # and 2 (south-east) fail and come back, the leg of 4 reaches it
    assert abs(geom.polyline_length(traj) - (6 + 2 * math.sqrt(2))) < 1e-9


def test_hunt_through_diamond_obstacle():
    diamond = Polygon([(3, 0.25), (4, 1.25), (5, 0.25), (4, -0.75)])
    t = Terrain(square(-2, -3, 12), [diamond])
    p = Point(0, 0.25)
    q = Point(8, 0.25)
    report = run_scenario(Scenario(t, p, q))
    assert_arrives(report.trajectory, p, report.advice)
    assert len(report.searches) == 1
    assert sees(tile_center(p, decode(report.advice)), q, t)


def test_hunt_rides_along_obstacle_edge():
    # the line to the target tile runs exactly along an obstacle's bottom
    # edge: touching the perimeter is not a hit, no detour happens
    t = Terrain(square(-2, -4, 14), [square(3, 0.25, 1.0)])
    p = Point(0, 0.25)
    q = Point(8, 0.25)
    report = run_scenario(Scenario(t, p, q))
    assert_arrives(report.trajectory, p, report.advice)
    assert report.searches == []
    assert report.trajectory == [tile_center(p, decode(report.advice))]


def test_hunt_first_sight_through_narrow_slit():
    # a wall at y in [0.3, 0.4] with a 0.004 slit at x = 0: the walk along
    # y ~ 0.9 sees q = (0, 0) only through a window about 0.009 wide,
    # starting where the line from q through the slit corner (-0.002, 0.4)
    # meets the trajectory
    wall = [Polygon([(-4, 0.3), (-0.002, 0.3), (-0.002, 0.4), (-4, 0.4)]),
            Polygon([(0.002, 0.3), (4, 0.3), (4, 0.4), (0.002, 0.4)])]
    t = Terrain(square(-5, -5, 10), wall)
    p, q = Point(-0.8, 0.9), Point(0.0, 0.0)
    advice = encode(100, 160, 1)
    trajectory = thunt(t, p, advice)
    assert_arrives(trajectory, p, advice)
    e = tile_center(p, decode(advice))
    assert trajectory == [e]
    # p + u (e - p) on the line y = -200 x through q and the slit corner
    u = -(p.y + 200 * p.x) / ((e.y - p.y) + 200 * (e.x - p.x))
    expected = u * math.dist(p, e)
    assert abs(expected - 0.79549) < 1e-4
    first_sight = _first_sight_length(trajectory, p, q, t)
    assert first_sight is not None
    assert abs(first_sight - expected) < 1e-9
