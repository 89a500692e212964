import dataclasses
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import square
from thunt import (Point, Polygon, Scenario, ScenarioError, Terrain, load_scenario,
                   render_svg, reports_to_csv, run_scenario, save_scenario)
import thunt
from thunt import agent, cli, harness
from thunt.codec import AdviceTriple
from thunt.agent import MoveKind, Trajectory
from thunt.cli import main as cli_main
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
    report = run_scenario(simple_scenario())
    assert report.passed, report.failures
    assert report.advice_bits == len(report.advice)
    assert report.advice_bits <= advice_bits_budget(report.L, report.lam)
    assert report.first_sight_length <= report.outcome.trajectory.total_length
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


def test_run_scenario_checks_arrival_on_the_trajectory(monkeypatch):
    # an agent that stops one piece short of q' is caught by the verifier,
    # whatever the agent reports about itself
    hunt = harness.thunt

    def stops_short(*args, **kwargs):
        out = hunt(*args, **kwargs)
        short = Trajectory()
        for piece in out.trajectory.pieces[:-1]:
            short.append(list(piece.points), piece.kind)
        return dataclasses.replace(out, trajectory=short)

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
    assert "perimeter walk leaves its ring" in report.failures


def test_run_scenario_checks_arrival_at_the_oracles_tile(monkeypatch):
    # the agent decodes the neighbouring column, walks to that tile center
    # and reports it as q'; that center sees the treasure too
    decode = agent.decode

    def shifted(advice):
        a1, a2, a3 = decode(advice)
        return AdviceTriple(a1, a2 + 1 if a2 != -1 else 1, a3)

    monkeypatch.setattr(agent, "decode", shifted)
    report = run_scenario(simple_scenario())
    assert harness.sees(report.outcome.q_prime, simple_scenario().treasure,
                        simple_scenario().terrain)
    assert "agent did not reach the target tile center" in report.failures


def test_run_scenario_gates_the_cost_ratio(monkeypatch):
    # before setting off, the agent paces the wall x = 1 out of sight range
    # of the treasure; every piece stays in the terrain and it still arrives
    hunt = harness.thunt

    def detours(t, p, advice, **kwargs):
        out = hunt(t, p, advice, **kwargs)
        walk = Trajectory()
        walk.append([p, Point(1, 9.5)], MoveKind.FREE_MOVE)
        for k in range(250):
            walk.append([walk.end, Point(1, 0.5 if k % 2 == 0 else 9.5)], MoveKind.FREE_MOVE)
        walk.append([walk.end, p], MoveKind.FREE_MOVE)
        for piece in out.trajectory.pieces:
            walk.append(list(piece.points), piece.kind)
        return dataclasses.replace(out, trajectory=walk)

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
        out = hunt(t, p, advice, **kwargs)
        walk = Trajectory()
        walk.append([p, inside], MoveKind.FREE_MOVE)
        walk.append([inside, p], MoveKind.FREE_MOVE)
        for piece in out.trajectory.pieces:
            walk.append(list(piece.points), piece.kind)
        return dataclasses.replace(out, trajectory=walk)

    monkeypatch.setattr(harness, "thunt", trespasses)
    t = Terrain(square(0, 0, 10), [square(4, 4, 2)])
    report = run_scenario(Scenario(t, Point(1, 5), Point(5, 6.5)))
    assert report.failures == ["free move leaves the terrain"]


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


def test_bench_parallel_matches_serial():
    serial = reports_to_csv(bench(range(4)))
    parallel = reports_to_csv(bench(range(4), jobs=2))
    assert serial == parallel


# --- rendering --------------------------------------------------------------------

def test_render_deterministic():
    sc = simple_scenario()
    report = run_scenario(sc)
    from thunt import thunt as run_hunt
    out = run_hunt(sc.terrain, sc.start, report.advice)
    svg1 = render_svg(sc, out.trajectory, q_prime=out.q_prime, lam=report.lam,
                      tiling_side=0.5)
    svg2 = render_svg(sc, out.trajectory, q_prime=out.q_prime, lam=report.lam,
                      tiling_side=0.5)
    assert svg1 == svg2
    assert svg1.startswith("<svg")
    assert svg1.count("<path") >= 3  # outer + obstacle + trajectory


def test_render_empty_terrain_minimal_structure():
    t = Terrain(square(0, 0, 12))
    sc = Scenario(t, Point(2, 2), Point(10, 10))
    report = run_scenario(sc)
    from thunt import thunt as run_hunt
    out = run_hunt(t, sc.start, report.advice)
    svg = render_svg(sc, out.trajectory)
    assert svg.count("<path") == 2  # outer ring + the single straight move


def test_render_comb_shows_corridors():
    from thunt.generators import CombParams, comb_terrain
    t, p, q = comb_terrain(CombParams(12, 1, 0.25))
    sc = Scenario(t, p, q, strict=False)
    svg = render_svg(sc)
    assert svg.count("L ") > 80  # zigzag outline


# --- CLI ---------------------------------------------------------------------------

def test_cli_generate_run_roundtrip(tmp_path, monkeypatch):
    scen = tmp_path / "s.json"
    assert cli_main(["generate", "random", "--seed", "5", "--obstacles", "3",
                     "-o", str(scen)]) == 0
    assert cli_main(["run", str(scen)]) == 0

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
    (b'{"format": "thunt-sc\xe9nario"}', "not UTF-8 text"),
    (b"[" * 100000 + b"]" * 100000, "nested too deeply"),
    (None, "Is a directory"),
], ids=["huge-int", "huge-fatness", "nan-fatness", "infinite-fatness", "obstacles-string",
        "boolean-start", "string-version", "boolean-version", "obstacle-pokes-out",
        "shallow-dent", "latin-1", "deep-nesting", "directory"])
def test_cli_malformed_input_exits_2(tmp_path, capsys, body, message):
    path = tmp_path / "scen.json"
    if body is None:
        path.mkdir()
    else:
        path.write_bytes(body)
    assert cli_main(["run", str(path)]) == 2
    assert re.search(message, capsys.readouterr().err, re.MULTILINE)


def test_cli_lb_generate(tmp_path):
    scen = tmp_path / "lb.json"
    assert cli_main(["generate", "lb", "--k", "1", "--lam", "1.0", "-o", str(scen)]) == 0
    sc = load_scenario(str(scen))
    assert len(sc.terrain.obstacles) == 8


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
        rings = relist([list(ring.vertices) for _, ring in sc.terrain.rings()], rng)
        terrain = Terrain(Polygon(rings[0]), [Polygon(ring) for ring in rings[1:]])
        other = run_scenario(dataclasses.replace(sc, terrain=terrain))
        assert other.advice == base.advice
        assert other.L == pytest.approx(base.L, rel=1e-9, abs=0)
        assert other.passed == base.passed
        assert other.first_sight_length == pytest.approx(base.first_sight_length,
                                                         rel=1e-9, abs=0)
