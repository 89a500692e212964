import dataclasses
import functools
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import square
from support import chord_cut_disc, ring_along, trajectory_length
from thunt import (Point, Polygon, Scenario, ScenarioError, Terrain, load_scenario,
                   render_svg, reports_to_csv, run_scenario, save_scenario)
import thunt
from thunt import agent, cli, geom, harness, oracle, render
from thunt.codec import AdviceTriple, decode, encode, tile_center, tile_index
from thunt.cli import main as cli_main
from thunt.generators import CombParams, comb_terrain
from thunt.harness import (advice_bits_budget, bench, bench_scenario,
                           scenario_from_dict, scenario_to_dict)


def simple_scenario():
    t = Terrain(square(0, 0, 10), [square(4, 4.2, 1.5)])
    return Scenario(t, Point(1, 5), Point(9, 5))


# --- serialization ---------------------------------------------------------------

def test_scenario_roundtrip(tmp_path):
    sc = simple_scenario()
    path = tmp_path / "scen.json"
    save_scenario(sc, str(path))
    back = load_scenario(str(path))
    assert back.start == sc.start
    assert back.treasure == sc.treasure
    assert back.terrain.outer.vertices == sc.terrain.outer.vertices
    assert back.terrain.obstacles[0].vertices == sc.terrain.obstacles[0].vertices
    assert back.fatness_c == sc.fatness_c
    # a second save produces identical bytes
    path2 = tmp_path / "scen2.json"
    save_scenario(back, str(path2))
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("data, message", [
    ([], "scenario file must contain a JSON object"),
    ({**scenario_to_dict(simple_scenario()), "format": "thunt-trajectory"},
     "field 'format' must be 'thunt-scenario'"),
], ids=["non-object", "another-format"])
def test_scenario_from_dict_rejects_a_non_object_and_another_format(data, message):
    with pytest.raises(ScenarioError, match=message):
        scenario_from_dict(data)


def test_load_rejects_obstacle_outside_outer(tmp_path):
    data = scenario_to_dict(simple_scenario())
    data["obstacles"] = [[[20, 20], [22, 20], [22, 22], [20, 22]]]
    with pytest.raises(ScenarioError, match="inside the outer polygon"):
        scenario_from_dict(data)


def test_load_rejects_boundary_treasure():
    data = scenario_to_dict(simple_scenario())
    data["treasure"] = [0.0, 5.0]
    with pytest.raises(ScenarioError, match="interior"):
        scenario_from_dict(data)


def test_load_rejects_missing_field():
    data = scenario_to_dict(simple_scenario())
    del data["outer"]
    with pytest.raises(ScenarioError, match="outer"):
        scenario_from_dict(data)


def test_load_rejects_bad_coordinate_types():
    data = scenario_to_dict(simple_scenario())
    data["start"] = ["a", 5.0]
    with pytest.raises(ScenarioError, match="start"):
        scenario_from_dict(data)


def test_load_rejects_bad_obstacle_shape():
    data = scenario_to_dict(simple_scenario())
    data["obstacles"] = [[[1.0, 1.0], [2.0, 1.0]]]  # two vertices only
    with pytest.raises(ScenarioError, match=r"obstacles\[0\]"):
        scenario_from_dict(data)


def test_load_reports_json_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "format": "thunt-scenario",\n  !!!\n}')
    with pytest.raises(ScenarioError, match="line 3"):
        load_scenario(str(path))


# --- run + verify -----------------------------------------------------------------

def test_run_scenario_passes_and_reports():
    sc = simple_scenario()
    report = run_scenario(sc)
    assert report.passed, report.failures
    assert report.advice_bits == len(report.advice)
    assert report.advice_bits <= advice_bits_budget(report.L, report.lam)
    assert report.first_sight_length <= trajectory_length(sc.start, report.trajectory)
    assert report.ratio >= 0
    assert report.L >= 8.0  # crow-flight distance


def test_run_empty_terrain_ratio_near_one():
    t = Terrain(square(0, 0, 12))
    report = run_scenario(Scenario(t, Point(2, 2), Point(10, 10)))
    assert report.passed
    from thunt import decode
    assert decode(report.advice).a1 == 2  # lambda = 1 everywhere
    # straight-line hunt: the treasure comes into sight about 1 unit early
    assert 0.8 <= report.ratio <= 1.05


def test_run_scenario_rejects_irregular_in_strict_mode():
    t = Terrain(square(0, 0, 20), [Polygon_rect()])
    with pytest.raises(ScenarioError, match="not regular"):
        run_scenario(Scenario(t, Point(1, 1), Point(18, 18), fatness_c=2.0))


def test_a_strict_scenario_rejects_an_irregular_terrain_when_built():
    t, p, q = comb_terrain(CombParams(12, 1, 0.25))
    with pytest.raises(ScenarioError, match="not regular"):
        Scenario(t, p, q)


def test_run_scenario_checks_arrival_on_the_trajectory(monkeypatch):
    # an agent that stops one point short of q' is caught by the verifier,
    # whatever the agent reports about itself
    hunt = harness.thunt

    def stops_short(*args, **kwargs):
        return hunt(*args, **kwargs)[:-1]

    monkeypatch.setattr(harness, "thunt", stops_short)
    report = run_scenario(simple_scenario())
    assert "agent did not reach the target tile center" in report.failures


# Each agent below is broken on purpose in a way it would not report: the
# verifier must catch it from the trajectory alone.

def test_run_scenario_bounds_the_walked_search_not_the_agents_count(monkeypatch):
    # the failed legs (lengths 1, 2, 4, ...) run five times as far out and
    # back as the doubling rule says; the last leg is left as it is
    march = agent.march

    def stretched(ring, start_arc, length, direction):
        failed = math.log2(length).is_integer()
        return march(ring, start_arc, 5 * length if failed else length, direction)

    monkeypatch.setattr(agent, "march", stretched)
    report = run_scenario(simple_scenario())
    assert any(f.startswith("perimeter search walked") for f in report.failures)


def test_run_scenario_rejects_a_chord_across_an_obstacle(monkeypatch):
    # every perimeter leg cuts straight from its first point to its last,
    # both on the ring, through the obstacle
    march = agent.march

    def chord(ring, start_arc, length, direction):
        pts = march(ring, start_arc, length, direction)
        return [pts[0], pts[-1]]

    monkeypatch.setattr(agent, "march", chord)
    report = run_scenario(simple_scenario())
    assert "free move leaves the terrain" in report.failures


def test_follows_locates_each_point_next_to_its_predecessor(monkeypatch):
    # a walk over half of a 1200-gon: only the first point scans the whole
    # ring, every later one is found on or next to its predecessor's edge
    ring = chord_cut_disc(1200)
    walk = geom.march(ring, 0.0, ring.perimeter / 2, 1)
    calls = 0
    distance = geom.point_segment_distance

    def counted(*args):
        nonlocal calls
        calls += 1
        return distance(*args)

    monkeypatch.setattr(geom, "point_segment_distance", counted)
    steps = list(harness._steps(walk, (ring,)))
    assert calls <= ring.n + 3 * len(walk)
    assert all(r is ring for _, _, r, _, _ in steps)
    assert steps[0][3] == 0.0 and abs(steps[-1][4] - ring.perimeter / 2) < 1e-9
    assert [r for _, _, r, _, _ in harness._steps([walk[0], walk[-1]], (ring,))] == [None]


@pytest.mark.parametrize("offset, passes",
                         [(5e-7, True), (5e-8, True), (-5e-7, False), (-5e-8, False)])
def test_run_scenario_reports_a_walk_end_off_its_ring(monkeypatch, offset, passes):
    # the last point of a search, r', is pushed off its edge along the
    # outward normal (inward for a negative offset), and the hunt goes on
    # from r'.  Pushed out within ON_RING_TOL, the search still ends there.
    # Pushed out beyond it, the steps onto the point and on from it are free
    # moves in the terrain, and the search ends one point earlier: the run
    # passes.  Pushed in by more than EPS, the free move on from the point
    # starts inside the obstacle and leaves the terrain.  None raises
    search = agent.cow_path

    def pushed(ring, r, r_prime, trajectory):
        out = search(ring, r, r_prime, trajectory)
        i, _ = ring.locate(trajectory[-1])
        u, v = ring.vertices[i], ring.vertices[(i + 1) % ring.n]
        L = math.dist(u, v)
        # the stored ring is counterclockwise: (dy, -dx) of an edge points out
        trajectory[-1] = Point(trajectory[-1].x + offset * (v.y - u.y) / L,
                               trajectory[-1].y - offset * (v.x - u.x) / L)
        return out

    monkeypatch.setattr(agent, "cow_path", pushed)
    report = run_scenario(bench_scenario(8))
    if passes:
        assert report.passed, report.failures
    else:
        assert report.failures == ["free move leaves the terrain"]


def test_run_scenario_selects_the_tile_once(monkeypatch):
    calls = 0
    select = oracle.select_tile

    def counted(*args):
        nonlocal calls
        calls += 1
        return select(*args)

    monkeypatch.setattr(oracle, "select_tile", counted)
    assert run_scenario(simple_scenario()).passed
    assert calls == 1


def test_run_scenario_checks_arrival_at_the_oracles_tile(monkeypatch):
    # the agent decodes the neighbouring column and walks to that tile
    # center, which sees the treasure too
    decode = agent.decode

    def shifted(advice):
        a1, a2, a3 = decode(advice)
        return AdviceTriple(a1, a2 + 1 if a2 != -1 else 1, a3)

    monkeypatch.setattr(agent, "decode", shifted)
    report = run_scenario(simple_scenario())
    assert harness.sees(report.trajectory[-1], simple_scenario().treasure,
                        simple_scenario().terrain)
    assert "agent did not reach the target tile center" in report.failures


def test_run_scenario_gates_the_cost_ratio(monkeypatch):
    # before setting off, the agent paces the wall x = 1 out of sight range
    # of the treasure; every step stays in the terrain and it still arrives
    hunt = harness.thunt

    def detours(t, p, advice, **kwargs):
        paces = [Point(1, 9.5), *(Point(1, 0.5 if k % 2 == 0 else 9.5) for k in range(250))]
        return [*paces, p, *hunt(t, p, advice, **kwargs)]

    monkeypatch.setattr(harness, "thunt", detours)
    report = run_scenario(simple_scenario())
    assert report.ratio > harness.RATIO_GATE
    assert report.failures == [
        f"cost ratio {report.ratio:.3f} exceeds the gate {harness.RATIO_GATE:g}"]


def test_run_scenario_fails_a_free_move_through_an_obstacle(monkeypatch):
    # before setting off, the agent free-moves into the obstacle [4, 6]^2
    # and back; the treasure is in sight range of the point inside it
    hunt = harness.thunt
    inside = Point(5, 5.8)

    def trespasses(t, p, advice, **kwargs):
        return [inside, p, *hunt(t, p, advice, **kwargs)]

    monkeypatch.setattr(harness, "thunt", trespasses)
    t = Terrain(square(0, 0, 10), [square(4, 4, 2)])
    report = run_scenario(Scenario(t, Point(1, 5), Point(5, 6.5)))
    assert report.failures == ["free move leaves the terrain"]


# --- a tampering agent -------------------------------------------------------------
# The agent below hands the verifier a rewrite of the points of its real
# trajectory.  Each class of rewrite has one expected result on every suite
# seed with a cow-path search: points inserted on a step change no verdict
# and no number beyond rounding, and every other rewrite fails with its own
# failure.

_CSV = Path(__file__).resolve().parent.parent / "artifacts" / "acceptance_bench.csv"
COWPATH_SEEDS = [int(row.split(",")[0]) for row in _CSV.read_text().splitlines()[1:]
                 if float(row.split(",")[-1]) > 0]  # max_cowpath_ratio


def _run_rewritten(sc, rewrite):
    """Run the scenario with an agent that hands in rewrite(trajectory) in
    place of its real trajectory."""
    hunt = harness.thunt

    def tampered(t, p, advice):
        return rewrite(hunt(t, p, advice))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "thunt", tampered)
        return run_scenario(sc)


def _laps(ring, at, n, sense=1):
    """The points of n laps of the ring from the point at, out and back."""
    _, arc = ring.locate(at)
    out = geom.march(ring, arc, n * ring.perimeter, sense)
    return out + out[::-1]


def _searches(walk, t):
    """(ring, index of the first point, index of the last point) of each
    cow-path search of the polyline walk: a maximal run of steps along one
    ring."""
    steps = [(i, ring_along(a, b, t)) for i, (a, b) in enumerate(zip(walk, walk[1:]))]
    searches = []
    for ring, run in itertools.groupby(steps, key=lambda step: step[1]):
        run = list(run)
        if ring is not None:
            searches.append((ring, run[0][0], run[-1][0] + 1))
    return searches


def test_run_scenario_checks_every_step_of_a_free_move():
    # the one free move from the start to the tile center bends at (5, 5),
    # inside the obstacle [4, 6]^2; the chord from its first point to its
    # last stays clear of the obstacle
    t = Terrain(square(0, 0, 10), [square(4, 4, 2)])
    report = _run_rewritten(Scenario(t, Point(2, 2), Point(8, 2.3)),
                            lambda trajectory: [Point(5, 5), *trajectory])
    q_prime = tile_center(Point(2, 2), decode(report.advice))
    assert geom.segment_in_terrain(Point(2, 2), q_prime, t)
    assert report.trajectory == [Point(5, 5), q_prime]
    assert report.failures == ["free move leaves the terrain"]


@pytest.mark.parametrize("cut", ["two-pieces", "steps"])
def test_laps_at_the_hit_point_fail_the_bound_however_they_are_cut(cut):
    # the real bench_scenario(9) hunt is a free move, a search and a free
    # move.  At the hit point the agent laps the obstacle three times out
    # and three times back before its search (an agent that reported the
    # lengths it walked passed with the laps called 0.0 long, searches ==
    # [(0.6106, 0.6106)]).  The laps are handed in as the points of the
    # march out and back, or with every step cut at its midpoint.  Either
    # way the laps and the search are one search, which walks 6 perimeters
    # more than its bound allows
    sc = bench_scenario(9)

    def laps(trajectory):
        walk = [sc.start, *trajectory]
        [(ring, i, _)] = _searches(walk, sc.terrain)
        lapped = [walk[i], *_laps(ring, walk[i], 3)]
        if cut == "steps":
            lapped = [m for a, b in zip(lapped, lapped[1:]) for m in (geom.lerp(a, b, 0.5), b)]
        else:
            lapped = lapped[1:]
        return trajectory[:i] + lapped + trajectory[i:]

    report = _run_rewritten(sc, laps)
    assert report.failures == ["perimeter search walked 13.588006 over bound 5.495058"]


@given(seed=st.sampled_from(COWPATH_SEEDS), data=st.data())
def test_inserting_points_on_a_step_changes_no_verdict_and_no_number(suite_report, seed, data):
    # one to three points are inserted on a step, free or along a ring: the
    # agent walks the same curve through more points
    base, sc = suite_report(seed), bench_scenario(seed)
    trajectory = base.trajectory
    k = data.draw(st.integers(0, len(trajectory) - 1))
    a, b = [sc.start, *trajectory][k], trajectory[k]
    cuts = sorted(data.draw(st.lists(st.floats(0.1, 0.9), min_size=1, max_size=3)))
    inserted = trajectory[:k] + [geom.lerp(a, b, s) for s in cuts] + trajectory[k:]
    report = _run_rewritten(sc, lambda _: inserted)
    close = functools.partial(pytest.approx, rel=1e-12, abs=0)
    assert report.failures == base.failures == []
    assert (report.advice, report.L) == (base.advice, base.L)
    assert report.first_sight_length == close(base.first_sight_length)
    assert report.ratio == close(base.ratio)
    assert len(report.searches) == len(base.searches)
    for (dmin, walked), (base_dmin, base_walked) in zip(report.searches, base.searches):
        assert dmin == close(base_dmin)
        assert walked == close(base_walked)
    assert report.max_cowpath_ratio == close(base.max_cowpath_ratio)


@given(seed=st.sampled_from(COWPATH_SEEDS), data=st.data())
def test_a_detour_through_an_obstacle_fails_as_a_free_move(suite_report, seed, data):
    # where a free move starts, the agent steps to a point inside an
    # obstacle and back, or bends the free move through that point
    sc = bench_scenario(seed)
    trajectory = suite_report(seed).trajectory
    walk = [sc.start, *trajectory]
    free = [k for k, (a, b) in enumerate(zip(walk, walk[1:]))
            if ring_along(a, b, sc.terrain) is None]
    assume(free)
    k = data.draw(st.sampled_from(free))
    obstacle = data.draw(st.sampled_from(sc.terrain.obstacles))
    vs = obstacle.vertices
    mean = Point(sum(v.x for v in vs) / len(vs), sum(v.y for v in vs) / len(vs))
    inside = geom.lerp(mean, data.draw(st.sampled_from(vs)), data.draw(st.floats(0, 0.9)))
    detour = [inside, walk[k]] if data.draw(st.booleans()) else [inside]
    report = _run_rewritten(sc, lambda _: trajectory[:k] + detour + trajectory[k:])
    assert report.failures == ["free move leaves the terrain"]


@given(seed=st.sampled_from(COWPATH_SEEDS), data=st.data())
def test_dropping_a_search_jumps_out_of_the_terrain(suite_report, seed, data):
    # the agent leaves out the points between the first and the last of
    # one of its searches: it jumps from the hit point to the re-entry,
    # along the part of its free move's segment that lies outside the
    # terrain.  A jump is a step, and this one is a free move that fails
    base, sc = suite_report(seed), bench_scenario(seed)
    trajectory = base.trajectory
    _, i, j = data.draw(st.sampled_from(_searches([sc.start, *trajectory], sc.terrain)))
    report = _run_rewritten(sc, lambda _: trajectory[:i] + trajectory[j - 1:])
    assert report.failures == ["free move leaves the terrain"]


@pytest.mark.parametrize("jump", [0.01, 5e-7])
def test_a_jump_in_free_space_is_a_counted_step(tmp_path, monkeypatch, capsys, jump):
    # before setting off, the agent walks 1 north, jumps east, walks 1
    # south and jumps back west to the start.  A jump is a step like any
    # other: in free space it passes, and its length is walked and counted
    path = tmp_path / "s.json"
    save_scenario(simple_scenario(), str(path))
    assert cli_main(["run", str(path)]) == 0
    base = _printed(capsys.readouterr().out, "total_length")
    hunt = harness.thunt

    def jumps(t, p, advice):
        detour = [Point(p.x, p.y + 1), Point(p.x + jump, p.y + 1), Point(p.x + jump, p.y), p]
        return detour + hunt(t, p, advice)

    monkeypatch.setattr(harness, "thunt", jumps)
    assert cli_main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.endswith("PASS\n")
    assert _printed(out, "total_length") == pytest.approx(base + 2 + 2 * jump, rel=0, abs=1e-12)


@given(seed=st.sampled_from(COWPATH_SEEDS), data=st.data())
def test_stopping_short_of_the_tile_center_fails_arrival(suite_report, seed, data):
    # the agent hands in the first k points of its trajectory
    base, sc = suite_report(seed), bench_scenario(seed)
    trajectory = base.trajectory
    k = data.draw(st.integers(0, len(trajectory) - 1))
    q_prime = tile_center(sc.start, decode(base.advice))
    assume(geom.dist([sc.start, *trajectory][k], q_prime) > geom.EPS)
    report = _run_rewritten(sc, lambda _: trajectory[:k])
    assert report.failures[0] == "agent did not reach the target tile center"


@given(seed=st.sampled_from(COWPATH_SEEDS), data=st.data())
def test_laps_around_the_hit_ring_fail_the_cow_path_bound(suite_report, seed, data):
    # before one of its searches the agent laps the hit ring n times out
    # and n times back, n enough to walk past the search's bound
    base, sc = suite_report(seed), bench_scenario(seed)
    trajectory = base.trajectory
    walk = [sc.start, *trajectory]
    searches = _searches(walk, sc.terrain)
    s = data.draw(st.integers(0, len(searches) - 1))
    (ring, i, _), (dmin, walked) = searches[s], base.searches[s]
    # a search may walk its whole bound: seed 120's does
    fewest = max(1, math.floor((harness.cowpath_bound(dmin) - walked) / (2 * ring.perimeter)) + 1)
    n = data.draw(st.integers(fewest, fewest + 2))
    laps = _laps(ring, walk[i], n, data.draw(st.sampled_from([1, -1])))
    report = _run_rewritten(sc, lambda _: trajectory[:i] + laps + trajectory[i:])
    lapped_dmin, lapped = report.searches[s]
    assert lapped_dmin == pytest.approx(dmin, rel=1e-12, abs=0)
    assert lapped == pytest.approx(walked + 2 * n * ring.perimeter, rel=1e-12, abs=0)
    assert report.failures == [f"perimeter search walked {lapped:.6f} over bound "
                               f"{harness.cowpath_bound(lapped_dmin):.6f}"]


# Each gate at its edge: a walk just inside passes, one just outside fails
# with its failure.  The bounds are written out here rather than read from
# `harness`, so that a loosened gate does not move its own test.

@pytest.mark.parametrize("L, lam, bits", [
    (0.0, 1.0, 28), (1.0, 1.0, 28), (1.0 + 1e-9, 1.0, 34), (9.0, 0.5, 46), (100.0, 0.01, 100)])
def test_advice_bits_budget_at_known_values(L, lam, bits):
    # 10 + 6 * ceil(log2(3 L / lam + 5)); at L = lam = 1 the log is 3 exactly
    assert advice_bits_budget(L, lam) == bits


@pytest.mark.parametrize("sense", [1, -1])
@pytest.mark.parametrize("over, passes", [(-2 * geom.ARC_TOL, True), (2 * geom.ARC_TOL, False)])
def test_a_search_passes_up_to_its_bound_and_fails_just_beyond(sense, over, passes):
    # seed 129's one search finds r' on its first leg, with dmin < 0.25,
    # where the bound max(9 dmin, dmin + 2) is dmin + 2, up to ARC_TOL.
    # At the hit point the agent walks out along the ring and back, so that
    # the search walks that bound plus `over`
    sc = bench_scenario(129)
    base = run_scenario(sc)
    [(dmin, walked)] = base.searches
    assert dmin < 0.25 and base.failures == []
    walk = [sc.start, *base.trajectory]
    [(ring, i, _)] = _searches(walk, sc.terrain)
    _, arc = ring.locate(walk[i])
    out = geom.march(ring, arc, (dmin + 2.0 + over - walked) / 2, sense)
    report = _run_rewritten(sc, lambda trajectory: (trajectory[:i] + out[1:] + out[::-1]
                                                    + trajectory[i:]))
    [(new_dmin, new_walked)] = report.searches
    assert new_dmin == pytest.approx(dmin, rel=1e-12, abs=0)
    assert new_walked == pytest.approx(dmin + 2.0 + over, rel=0, abs=1e-13)
    assert report.failures == ([] if passes else [
        f"perimeter search walked {new_walked:.6f} over bound {dmin + 2.0:.6f}"])


@pytest.mark.parametrize("off, passes", [(geom.EPS / 2, True), (2 * geom.EPS, False)])
def test_a_last_point_off_the_tile_center_fails_arrival_beyond_eps(off, passes):
    # the agent's last point is moved `off` east of q'
    sc = simple_scenario()
    q_prime = tile_center(sc.start, decode(run_scenario(sc).advice))
    report = _run_rewritten(sc, lambda trajectory: [*trajectory[:-1],
                                                    Point(q_prime.x + off, q_prime.y)])
    assert report.failures == ([] if passes else ["agent did not reach the target tile center"])


def test_run_scenario_fails_a_tile_center_out_of_sight(monkeypatch):
    # the oracle names the tile three columns and three rows past its own,
    # 1.77 beyond the treasure on the agent's line, out of sight range; the
    # agent passes the treasure and arrives there
    select = oracle.select_tile

    def overshoots(p, spec):
        (a1, a2, a3), _ = select(p, spec)
        triple = AdviceTriple(a1, a2 + 3, a3 + 3)
        return triple, tile_center(p, triple)

    monkeypatch.setattr(oracle, "select_tile", overshoots)
    p, q = Point(2, 2), Point(6, 6)
    report = run_scenario(Scenario(Terrain(square(0, 0, 12)), p, q))
    assert geom.dist(tile_center(p, decode(report.advice)), q) > 1
    assert report.failures == ["target tile center does not see the treasure"]


def test_run_scenario_fails_a_tile_center_outside_the_terrain(monkeypatch):
    # the oracle names a point inside the obstacle, and the agent walks on
    # from the tile center into it
    inside = Point(5, 5)
    advise, hunt = oracle.make_advice, harness.thunt

    def into_the_obstacle(t, p, spec):
        advice, _ = advise(t, p, spec)
        return advice, inside

    def walks_in(t, p, advice, **kwargs):
        return [*hunt(t, p, advice, **kwargs), inside]

    monkeypatch.setattr(oracle, "make_advice", into_the_obstacle)
    monkeypatch.setattr(harness, "thunt", walks_in)
    report = run_scenario(simple_scenario())
    assert report.failures == ["target tile center does not see the treasure",
                               "free move leaves the terrain"]


def test_run_scenario_fails_advice_over_its_budget(monkeypatch):
    # the oracle names the same tile center on a grid 243 times finer: an
    # odd refinement has a tile centred on each coarse center
    select, m = oracle.select_tile, 243

    def refines(p, spec):
        (a1, a2, a3), _ = select(p, spec)
        kx, ky = (a - 1 if a > 0 else a for a in (a2, a3))
        triple = AdviceTriple(m * a1, tile_index(m * kx + m // 2), tile_index(m * ky + m // 2))
        return triple, tile_center(p, triple)

    monkeypatch.setattr(oracle, "select_tile", refines)
    report = run_scenario(simple_scenario())
    budget = advice_bits_budget(report.L, report.lam)
    assert report.advice_bits > budget
    assert report.failures == [f"advice length {report.advice_bits} exceeds budget {budget}"]


def Polygon_rect():
    from thunt import Polygon
    return Polygon([(5, 5), (15, 5), (15, 6), (5, 6)])  # 10x1: not 2-fat


def test_csv_shape():
    reports = bench(range(3))
    csv = reports_to_csv(reports)
    lines = csv.strip().split("\n")
    assert lines[0] == "seed,lambda,L,advice_bits,first_sight_length,ratio,max_cowpath_ratio"
    assert len(lines) == 4
    assert all(line.split(",")[0] == str(i) for i, line in enumerate(lines[1:]))


def test_bench_deterministic_bytes():
    a = reports_to_csv(bench(range(3)))
    b = reports_to_csv(bench(range(3)))
    assert a == b


def test_cli_bench_has_no_jobs_option(capsys):
    # parsing alone: no scenario runs and no process starts
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["bench", "--seeds", "1", "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


# --- rendering --------------------------------------------------------------------

def test_render_deterministic():
    sc = simple_scenario()
    report = run_scenario(sc)
    from thunt import thunt as run_hunt
    trajectory = run_hunt(sc.terrain, sc.start, report.advice)
    svg1 = render_svg(sc, trajectory, report.advice, tiling=True)
    svg2 = render_svg(sc, trajectory, report.advice, tiling=True)
    assert svg1 == svg2
    assert svg1.startswith("<svg")
    assert svg1.count("<path") >= 3  # outer + obstacle + trajectory


def test_render_colours_a_piece_by_the_verifiers_rule():
    # the hunt of simple_scenario runs into the obstacle and walks around
    # it; each path drawn is a maximal run of steps of one colour
    sc = simple_scenario()
    trajectory = run_scenario(sc).trajectory
    svg = render_svg(sc, trajectory)
    walk = [sc.start, *trajectory]
    colours = [render._COLORS["free" if ring_along(a, b, sc.terrain) is None else "walk"]
               for a, b in zip(walk, walk[1:])]
    paths = re.findall(r'<path d="([^"]*)" fill="none" stroke="([^"]*)"', svg)
    assert [stroke for _, stroke in paths] == [c for c, _ in itertools.groupby(colours)]
    assert {stroke for _, stroke in paths} == {render._COLORS["walk"], render._COLORS["free"]}
    assert sum(d.count("L ") for d, _ in paths) == len(walk) - 1


def test_render_empty_terrain_minimal_structure():
    t = Terrain(square(0, 0, 12))
    sc = Scenario(t, Point(2, 2), Point(10, 10))
    report = run_scenario(sc)
    from thunt import thunt as run_hunt
    svg = render_svg(sc, run_hunt(t, sc.start, report.advice))
    assert svg.count("<path") == 2  # outer ring + the single straight move


def test_render_comb_shows_corridors():
    t, p, q = comb_terrain(CombParams(12, 1, 0.25))
    sc = Scenario(t, p, q, strict=False)
    svg = render_svg(sc)
    assert svg.count("L ") > 80  # zigzag outline


# --- CLI ---------------------------------------------------------------------------

def _printed(out: str, key: str) -> float:
    return float(re.search(rf"^{key}=(\S+)$", out, re.M).group(1))


def test_cli_generate_run_roundtrip(tmp_path, monkeypatch, capsys):
    scen = tmp_path / "s.json"
    assert cli_main(["generate", "random", "--seed", "5", "--obstacles", "3",
                     "-o", str(scen)]) == 0
    capsys.readouterr()
    assert cli_main(["run", str(scen)]) == 0
    # the printed length is the one measured from the points of the hunt
    out = capsys.readouterr().out
    sc = load_scenario(str(scen))
    report = run_scenario(sc)
    assert _printed(out, "total_length") == trajectory_length(sc.start, report.trajectory)
    assert _printed(out, "total_length") >= _printed(out, "first_sight_length")

    def second_hunt(*args, **kwargs):
        raise AssertionError("run --svg must draw the hunt the report carries")

    monkeypatch.setattr(cli, "thunt", second_hunt)
    svg = tmp_path / "s.svg"
    csv = tmp_path / "s.csv"
    assert cli_main(["run", str(scen), "--svg", str(svg), "--csv", str(csv),
                     "--seed", "5"]) == 0
    assert svg.read_text().startswith("<svg")
    assert csv.read_text().startswith("seed,lambda")


def test_cli_run_ignores_sight_step_in_old_files(tmp_path):
    # older scenario files carry a first-sight sampling step; a tiny one
    # must neither be rejected nor stall the run
    data = scenario_to_dict(simple_scenario())
    data["sight_step"] = 1e-300
    scen = tmp_path / "s.json"
    scen.write_text(json.dumps(data))
    load_scenario(str(scen))
    src = str(Path(thunt.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-m", "thunt.cli", "run", str(scen)],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr


def test_cli_bench_writes_csv_to_stdout_and_summary_to_stderr(capsys):
    assert cli_main(["bench", "--seeds", "3"]) == 0
    out, err = capsys.readouterr()
    assert out == reports_to_csv(bench(range(3)))
    for label in ("scenarios=3 failed=0", "lambda range", "L range",
                  "min budget margin", "cost ratio"):
        assert label in err


def test_cli_generate_comb_roundtrips(tmp_path):
    scen = tmp_path / "comb.json"
    assert cli_main(["generate", "comb", "--A", "12", "--x", "0.25", "--i", "1",
                     "-o", str(scen)]) == 0
    sc = load_scenario(str(scen))
    assert not sc.strict
    path2 = tmp_path / "comb2.json"
    save_scenario(sc, str(path2))
    assert scen.read_bytes() == path2.read_bytes()


def test_cli_advise_hunt(tmp_path, capsys):
    scen = tmp_path / "s.json"
    cli_main(["generate", "random", "--seed", "2", "--obstacles", "2", "-o", str(scen)])
    capsys.readouterr()
    assert cli_main(["advise", str(scen)]) == 0
    advice = capsys.readouterr().out.strip()
    assert set(advice) <= {"0", "1"}
    assert cli_main(["hunt", str(scen), "--advice", advice]) == 0
    out = capsys.readouterr().out
    assert "reached_qprime=True" in out
    sc = load_scenario(str(scen))
    hunt = thunt.thunt(sc.terrain, sc.start, advice)
    assert _printed(out, "total_length") == trajectory_length(sc.start, hunt)
    assert _printed(out, "total_length") >= _printed(out, "first_sight_length")


def test_cli_advise_packed_roundtrip(tmp_path, capsys):
    scen = tmp_path / "s.json"
    cli_main(["generate", "random", "--seed", "2", "--obstacles", "0", "-o", str(scen)])
    packed = tmp_path / "advice.bin"
    cli_main(["advise", str(scen), "-o", str(packed), "--packed"])
    capsys.readouterr()
    assert cli_main(["hunt", str(scen), "--advice-file", str(packed), "--packed"]) == 0
    assert "reached_qprime=True" in capsys.readouterr().out


def test_cli_bad_scenario_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "thunt-scenario"}))
    assert cli_main(["run", str(bad)]) == 2


def _scenario_bytes(**fields) -> bytes:
    data = scenario_to_dict(simple_scenario())
    data.update(fields)
    return json.dumps(data).encode()


@pytest.mark.parametrize("body, message", [
    (_scenario_bytes(start=[10 ** 400, 5]), "'start' holds a number too large"),
    (_scenario_bytes(fatness_c=10 ** 400), "'fatness_c' holds a number too large"),
    (_scenario_bytes(fatness_c=math.nan), "'fatness_c' must be a number > 1"),
    (_scenario_bytes(fatness_c=math.inf), "'fatness_c' must be a number > 1"),
    (_scenario_bytes(obstacles="abc"), "'obstacles' must be a list$"),
    (_scenario_bytes(start=[True, True]), r"'start' must be a \[x, y\] pair of numbers"),
    (_scenario_bytes(version="x"), "'version' must be 1$"),
    (_scenario_bytes(version=True), "'version' must be 1$"),
    (_scenario_bytes(strict=False, start=[1, 1], treasure=[9, 1],
                     outer=[[0, 0], [10, 0], [10, 10], [5, 10], [5, 5], [4, 4.5], [3, 5],
                            [3, 10], [0, 10]],
                     obstacles=[[[2, 5], [6, 2], [9.5, 5]]]),
     "obstacle 0 is not inside the outer polygon"),
    (_scenario_bytes(start=[10, 10], treasure=[1500, 600], obstacles=[],
                     outer=[[0, 0], [1000, 4e-7], [2000, 0], [2000, 1000], [0, 1000]]),
     "outer polygon is not convex"),
    (_scenario_bytes(obstacles=[[[2, 2], [4, 2], [4, 3], [3, 3], [3, 4], [2, 4]]]),
     "terrain is not regular: obstacle 0 is not convex"),
    (b'{"format": "thunt-sc\xe9nario"}', "not UTF-8 text"),
    (b"[" * 100000 + b"]" * 100000, "nested too deeply"),
    (None, "Is a directory"),
], ids=["huge-int", "huge-fatness", "nan-fatness", "infinite-fatness", "obstacles-string",
        "boolean-start", "string-version", "boolean-version", "obstacle-pokes-out",
        "shallow-dent", "obstacle-l-shape", "latin-1", "deep-nesting", "directory"])
def test_cli_malformed_input_exits_2(tmp_path, capsys, body, message):
    path = tmp_path / "scen.json"
    if body is None:
        path.mkdir()
    else:
        path.write_bytes(body)
    assert cli_main(["run", str(path)]) == 2
    assert re.search(message, capsys.readouterr().err, re.MULTILINE)


ODD_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 10 ** 400, -10 ** 400,
                     True, False, "1", None, []]),
    st.floats(-25, 25), st.integers(-25, 25))


@st.composite
def odd_scenario_files(draw):
    """The JSON of a valid scenario with one to three fields replaced: a
    coordinate, a ring cut to fewer than 3 vertices, `strict` or
    `fatness_c`."""
    data = scenario_to_dict(simple_scenario())
    rings = [data["outer"], *data["obstacles"]]
    for _ in range(draw(st.integers(1, 3))):
        field = draw(st.sampled_from(["start", "treasure", "vertex", "short", "strict",
                                      "fatness_c"]))
        if field in ("start", "treasure"):
            data[field][draw(st.integers(0, 1))] = draw(ODD_VALUES)
        elif field in ("strict", "fatness_c"):
            data[field] = draw(ODD_VALUES)
        else:
            ring = draw(st.sampled_from(rings))
            if field == "short":
                del ring[draw(st.integers(0, 2)):]
            elif ring:
                ring[draw(st.integers(0, len(ring) - 1))][draw(st.integers(0, 1))] = \
                    draw(ODD_VALUES)
    return json.dumps(data)


@settings(max_examples=150, deadline=None)
@given(odd_scenario_files())
def test_cli_on_odd_scenario_files_exits_with_a_code(tmp_path_factory, body):
    folder = tmp_path_factory.mktemp("odd")
    path = folder / "scen.json"
    path.write_text(body)
    for argv in (["run"], ["advise"], ["render", "-o", str(folder / "out.svg"),
                                       "--trajectory", "--tiling"]):
        assert cli_main([argv[0], str(path), *argv[1:]]) in (0, 1, 2)


def test_cli_run_on_an_uncertified_1200_gon_passes(tmp_path, capsys):
    t = Terrain(square(0, 0, 10), [chord_cut_disc(1200)])
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(scenario_to_dict(Scenario(t, Point(0.5, 0.5), Point(9.5, 9.5)))))
    assert cli_main(["run", str(path)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_run_out_of_memory_exits_2_without_a_traceback(tmp_path):
    scen = tmp_path / "comb.json"
    assert cli_main(["generate", "comb", "--A", "9", "--i", "1", "-o", str(scen)]) == 0
    src = str(Path(thunt.__file__).resolve().parent.parent)
    limit = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1500 << 20,) * 2); "
             "from thunt.cli import main; sys.exit(main(sys.argv[1:]))")
    done = subprocess.run([sys.executable, "-c", limit, "run", str(scen)],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2, done.stdout + done.stderr
    assert done.stderr.startswith("error: out of memory")
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("argv", [
    ["generate", "random", "--seed", "0", "--obstacles", "3", "--c", "nan"],
    ["generate", "random", "--seed", "0", "--obstacles", "3", "--c", "inf"],
    ["bench", "--seeds", "2", "--c", "nan"],
    ["generate", "comb", "--A", "12", "--i", "1", "--x", "nan"],
], ids=["generate-nan-c", "generate-infinite-c", "bench-nan-c", "comb-nan-x"])
def test_cli_non_finite_parameters_exit_2(tmp_path, capsys, argv):
    out = ["-o", str(tmp_path / "out.json")] if argv[0] == "generate" else []
    assert cli_main(argv + out) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["generate", "random", "--seed", "1", "--obstacles", "1000000"],
    ["generate", "random", "--seed", "1", "--obstacles", "-1"],
    ["bench", "--seeds", "1", "--obstacles", "1000000"],
], ids=["generate-huge", "generate-negative", "bench-huge"])
def test_cli_obstacle_count_out_of_range_exits_2_at_once(tmp_path, capsys, argv):
    # placing 10**6 obstacles would take hours; a negative count built none
    out = ["-o", str(tmp_path / "out.json")] if argv[0] == "generate" else []
    t0 = time.perf_counter()
    assert cli_main(argv + out) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "obstacle count must lie in [0, 100]" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def _strict_file(tmp_path, terrain, p, q):
    data = scenario_to_dict(Scenario(terrain, p, q, strict=False))
    data["strict"] = True
    path = tmp_path / "strict.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("command", [
    ["advise"], ["hunt", "--advice", encode(2, 2, 1)],
    ["render", "-o", "out.svg", "--trajectory"]])
def test_cli_rejects_a_strict_comb_file_when_it_loads(tmp_path, capsys, command):
    path = _strict_file(tmp_path, *comb_terrain(CombParams(12, 1, 0.25)))
    out = [str(tmp_path / a) if a.endswith(".svg") else a for a in command[1:]]
    assert cli_main([command[0], path, *out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: terrain is not regular: outer polygon is not convex")
    assert "Traceback" not in err
    assert not (tmp_path / "out.svg").exists()


def test_cli_hunt_checks_fatness_in_a_strict_file(tmp_path, capsys):
    # convex but 10x1, so not 2-fat: the agent hunts in this terrain, and
    # a strict file of it is still rejected
    t, p, q = Terrain(square(0, 0, 20), [Polygon_rect()]), Point(1, 1), Point(18, 18)
    advice, _ = oracle.make_advice(t, p, oracle.accessibility(t, q))
    assert agent.thunt(t, p, advice)
    path = _strict_file(tmp_path, t, p, q)
    assert cli_main(["hunt", path, "--advice", advice]) == 2
    assert "terrain is not regular: obstacle 0 is not 2.0-fat" in capsys.readouterr().err


def test_cli_lb_generate(tmp_path):
    scen = tmp_path / "lb.json"
    assert cli_main(["generate", "lb", "--k", "1", "--lam", "1.0", "-o", str(scen)]) == 0
    sc = load_scenario(str(scen))
    assert len(sc.terrain.obstacles) == 8


@pytest.mark.parametrize("candidate", ["-1", "1"])
def test_cli_lb_generate_rejects_a_candidate_out_of_range(tmp_path, capsys, candidate):
    # k = 1 has the one candidate 0
    scen = tmp_path / "lb.json"
    assert cli_main(["generate", "lb", "--k", "1", "--lam", "1.0", "--candidate", candidate,
                     "-o", str(scen)]) == 2
    assert capsys.readouterr().err == "error: candidate index must lie in [0, 0]\n"
    assert not scen.exists()


def test_cli_hunt_writes_the_svg_of_its_hunt(tmp_path, capsys):
    scen, svg = tmp_path / "s.json", tmp_path / "hunt.svg"
    save_scenario(simple_scenario(), str(scen))
    sc = load_scenario(str(scen))
    spec = oracle.accessibility(sc.terrain, sc.treasure)
    advice, _ = oracle.make_advice(sc.terrain, sc.start, spec)
    assert cli_main(["hunt", str(scen), "--advice", advice, "--svg", str(svg)]) == 0
    trajectory = thunt.thunt(sc.terrain, sc.start, advice)
    assert svg.read_text() == render_svg(sc, trajectory, advice)


def _drawn(svg):
    """The centre of the q' cross, the radius of the treasure disc, whether
    the grid is drawn and the colours of the trajectory's paths."""
    cross = re.search(rf'<g stroke="{render._COLORS["q_prime"]}"[^>]*>'
                      r'<line x1="(\S+)" y1="(\S+)" x2="(\S+)" y2="(\S+)"/>', svg)
    disc = re.search(rf'r="(\S+)" fill="none" stroke="{render._COLORS["treasure"]}"', svg)
    x1, y1, x2, y2 = map(float, cross.groups()) if cross else (math.nan,) * 4
    return (None if cross is None else Point((x1 + x2) / 2, (y1 + y2) / 2),
            None if disc is None else float(disc.group(1)),
            f'<g stroke="{render._COLORS["grid"]}"' in svg,
            set(re.findall(r'<path d="[^"]*" fill="none" stroke="([^"]*)"', svg)))


def test_cli_draws_the_tile_center_and_the_disc_it_derives_from_the_advice(tmp_path):
    scen = tmp_path / "s.json"
    save_scenario(simple_scenario(), str(scen))
    sc = load_scenario(str(scen))
    spec = oracle.accessibility(sc.terrain, sc.treasure)
    advice, _ = oracle.make_advice(sc.terrain, sc.start, spec)
    center = tile_center(sc.start, decode(advice))
    both = {render._COLORS["walk"], render._COLORS["free"]}
    commands = {"hunt": ["hunt", str(scen), "--advice", advice, "--svg"],
                "run": ["run", str(scen), "--svg"],
                "render": ["render", str(scen), "--trajectory", "-o"]}
    for name, command in commands.items():
        svg = tmp_path / f"{name}.svg"
        assert cli_main([*command, str(svg)]) == 0
        cross, radius, grid, paths = _drawn(svg.read_text())
        assert math.dist(cross, center) <= 1e-12, name
        assert (radius, grid, paths) == (spec.lam, False, both), name
    svg = tmp_path / "tiling.svg"
    assert cli_main(["render", str(scen), "--tiling", "-o", str(svg)]) == 0
    assert _drawn(svg.read_text()) == (None, spec.lam, True, set())


def test_cli_hunt_reports_a_walk_that_stops_short_of_the_tile(tmp_path, monkeypatch, capsys):
    # the end of the walk is measured against the center of the tile the
    # advice names, and the cross is drawn there, not where the walk ends
    scen, svg = tmp_path / "s.json", tmp_path / "hunt.svg"
    save_scenario(simple_scenario(), str(scen))
    sc = load_scenario(str(scen))
    advice, _ = oracle.make_advice(sc.terrain, sc.start,
                                   oracle.accessibility(sc.terrain, sc.treasure))
    hunt = cli.thunt
    monkeypatch.setattr(cli, "thunt", lambda t, p, a: hunt(t, p, a)[:-1])
    assert cli_main(["hunt", str(scen), "--advice", advice, "--svg", str(svg)]) == 0
    assert "reached_qprime=False" in capsys.readouterr().out.splitlines()
    cross, _, _, _ = _drawn(svg.read_text())
    assert math.dist(cross, tile_center(sc.start, decode(advice))) <= 1e-12


def test_cli_run_prints_each_failure_and_exits_1(tmp_path, monkeypatch, capsys):
    # the agent steps into the obstacle and back before it sets off, and
    # stops one point short of q', before the treasure comes into sight
    path = tmp_path / "s.json"
    save_scenario(simple_scenario(), str(path))
    hunt = harness.thunt

    def trespasses_and_stops_short(t, p, advice):
        return [Point(5, 5), p, *hunt(t, p, advice)[:-1]]

    monkeypatch.setattr(harness, "thunt", trespasses_and_stops_short)
    assert cli_main(["run", str(path)]) == 1
    out = capsys.readouterr().out
    assert "PASS" not in out
    assert out.splitlines()[-3:] == ["FAIL: agent did not reach the target tile center",
                                     "FAIL: treasure never became visible along the trajectory",
                                     "FAIL: free move leaves the terrain"]


def test_cli_bench_writes_the_csv_file_and_the_cow_path_summary(tmp_path, capsys):
    path = tmp_path / "bench.csv"
    assert cli_main(["bench", "--seeds", "2", "--start-seed", "8", "-o", str(path)]) == 0
    out, err = capsys.readouterr()
    reports = bench(range(8, 10))
    assert out == f"wrote {path}\n"
    assert path.read_text() == reports_to_csv(reports)
    cp = [walked / harness.cowpath_bound(dmin) for r in reports for dmin, walked in r.searches]
    assert len(cp) == 3
    assert f"cow-path util  : max {max(cp):.6f} of the doubling bound (3 searches)\n" in err


def test_concurrent_runs_are_consistent():
    # immutable terrain + pure functions: parallel hunts must agree
    from concurrent.futures import ThreadPoolExecutor
    sc = simple_scenario()
    with ThreadPoolExecutor(max_workers=8) as pool:
        rows = list(pool.map(lambda _: run_scenario(sc, seed=1).csv_row(), range(16)))
    assert len(set(rows)) == 1


def test_cli_render(tmp_path):
    scen = tmp_path / "s.json"
    cli_main(["generate", "random", "--seed", "4", "--obstacles", "2", "-o", str(scen)])
    out = tmp_path / "out.svg"
    assert cli_main(["render", str(scen), "-o", str(out), "--trajectory",
                     "--tiling"]) == 0
    body = out.read_text()
    assert body.startswith("<svg") and "<line" in body


@pytest.mark.parametrize("advice, message", [
    ("11" + "10" * 1100 + "000" + "10" + "000" + "10", "float range"),
    ("11" + "10" + "000" + "10" * 1100 + "000" + "10", "float range"),
    ("", "not a codeword"),
], ids=["huge-a1", "huge-a2", "empty"])
def test_cli_hunt_bad_advice_exits_2(tmp_path, capsys, advice, message):
    scen = tmp_path / "s.json"
    cli_main(["generate", "random", "--seed", "3", "--obstacles", "3", "-o", str(scen)])
    assert cli_main(["hunt", str(scen), "--advice", advice]) == 2
    assert message in capsys.readouterr().err


def test_cli_hunt_non_ascii_advice_file_exits_2(tmp_path, capsys):
    scen = tmp_path / "s.json"
    save_scenario(simple_scenario(), str(scen))
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe\x00")
    assert cli_main(["hunt", str(scen), "--advice-file", str(bad)]) == 2
    assert "not a codeword" in capsys.readouterr().err


def test_cli_render_tiling_near_a_wall_stays_small(tmp_path):
    # lam = 1e-6 makes tiles of side 5e-7; a grid over the whole terrain
    # would take about 4e7 lines
    scen = tmp_path / "s.json"
    save_scenario(Scenario(Terrain(square(0, 0, 10)), Point(5, 5), Point(5, 1e-6)), str(scen))
    out = tmp_path / "out.svg"
    start = time.perf_counter()
    assert cli_main(["render", str(scen), "-o", str(out), "--tiling"]) == 0
    assert time.perf_counter() - start < 5.0
    svg = out.read_text()
    assert out.stat().st_size < 1_000_000
    # the 8x8 grid around the treasure: 16 lines, none collapsed by rounding
    lines = re.findall(r"<line [^>]*/>", svg.split('<g stroke="#c8d2e0"')[1].split("</g>")[0])
    assert len(lines) == len(set(lines)) == 16
    assert not re.search(r"-0(\.0+)?(?![.\d])", svg)  # no negative zero


# --- metamorphic: how the terrain is listed changes nothing ------------------------

@pytest.fixture(scope="module")
def suite_head():
    scenarios = [bench_scenario(seed) for seed in range(40)]
    return [(sc, run_scenario(sc)) for sc in scenarios]


def _rotated(ring, rng):
    k = rng.randrange(len(ring))
    return ring[k:] + ring[:k]


@pytest.mark.parametrize("relist", [
    lambda rings, rng: rings[:1] + rng.sample(rings[1:], len(rings) - 1),
    lambda rings, rng: [ring[::-1] for ring in rings],
    lambda rings, rng: [_rotated(ring, rng) for ring in rings],
], ids=["permute-obstacles", "reverse-rings", "rotate-rings"])
def test_relisting_the_terrain_changes_nothing(suite_head, relist):
    # rings are given as vertex lists, the outer one first
    rng = random.Random(0xAB1E)
    for sc, base in suite_head:
        rings = relist([list(ring.vertices) for ring in sc.terrain.rings], rng)
        terrain = Terrain(Polygon(rings[0]), [Polygon(ring) for ring in rings[1:]])
        other = run_scenario(dataclasses.replace(sc, terrain=terrain))
        assert other.advice == base.advice
        assert other.L == pytest.approx(base.L, rel=1e-9, abs=0)
        assert other.passed == base.passed
        assert other.first_sight_length == pytest.approx(base.first_sight_length,
                                                         rel=1e-9, abs=0)


# --- metamorphic: rigid motions --------------------------------------------------

@pytest.fixture(scope="module")
def suite_report():
    """The report of a suite seed's untransformed scenario, computed once."""
    return functools.cache(lambda seed: run_scenario(bench_scenario(seed)))


def _moved(sc, f):
    """The scenario with f applied to every ring vertex, the start and the treasure."""
    rings = [Polygon([f(v) for v in ring.vertices]) for ring in sc.terrain.rings]
    return dataclasses.replace(sc, terrain=Terrain(rings[0], rings[1:]),
                               start=f(sc.start), treasure=f(sc.treasure))


@given(seed=st.integers(0, 199), d=st.sampled_from([1e3, 1e5, 1e6]))
@settings(max_examples=100)
def test_translation_keeps_advice_length_and_ratio(suite_report, seed, d):
    # the tiling is anchored at the start, so the advice moves with it.  At 1e7
    # the spacing of doubles exceeds EPS and two suite seeds fail, so 1e6 is the
    # largest offset held to this
    base = suite_report(seed)
    moved = run_scenario(_moved(bench_scenario(seed), lambda v: Point(v.x + d, v.y + d)))
    assert moved.passed and base.passed
    assert moved.advice == base.advice
    assert moved.L == pytest.approx(base.L, rel=1e-6, abs=0)
    assert moved.ratio == pytest.approx(base.ratio, rel=1e-6, abs=0)


def _rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return lambda v: Point(c * v.x - s * v.y, s * v.x + c * v.y)


@pytest.mark.parametrize("motion", [
    lambda v: Point(-v.x, v.y),
    lambda v: Point(-v.y, v.x),
    _rotation(math.pi / 6),
    _rotation(1.0),
], ids=["reflect-x", "rotate-90", "rotate-30", "rotate-1rad"])
@given(seed=st.integers(0, 199))
@settings(max_examples=60)
def test_reflection_and_rotation_keep_the_length(suite_report, motion, seed):
    # the tiling is axis-aligned at the start, so the advice may change
    base = suite_report(seed)
    moved = run_scenario(_moved(bench_scenario(seed), motion))
    assert moved.passed and base.passed
    assert moved.L == pytest.approx(base.L, rel=1e-9, abs=0)
