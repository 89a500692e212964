"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured statistic (run with -s to see them).

The seeded 200-scenario regular-terrain suite is built once and shared by
the advice-size, hunt-correctness, and cost-linearity criteria.
"""
import math
import os
import random
import re
import time

import pytest

from support import gadget_hull, grid_path_oracle, shorter_arc
from thunt import (Point, Polygon, Scenario, Terrain, decode, encode, render_svg, sees,
                   shortest_path)
from thunt.agent import cow_path
from thunt.geom import polyline_length
from thunt.codec import AdviceTriple
from thunt.generators import (CombParams, comb_terrain, gadget, random_fat_polygon,
                              random_regular_terrain, regular_lb_terrain)
from thunt.harness import (RATIO_GATE, advice_bits_budget, bench, cowpath_bound,
                           reports_to_csv, run_scenario)

ARTIFACTS = os.path.join(os.path.dirname(__file__), "..", "artifacts")


def _report(num: int, name: str, stat: str) -> None:
    print(f"\nACCEPTANCE {num} {name}: PASS ({stat})")


@pytest.fixture(scope="session")
def regular_suite():
    t0 = time.time()
    reports = bench(range(200), c=2.0, extent=10.0)
    elapsed = time.time() - t0
    assert len(reports) == 200
    return reports, elapsed


# -- 1 ------------------------------------------------------------------------

def test_acceptance_1_codec_exactness():
    t0 = time.time()
    assert encode(3, -4, 5) == "011010000100101000100110"
    assert decode("011010000100101000100110") == AdviceTriple(3, -4, 5)

    # exhaustive (a1, |a2|) pairs over 1..255 with cycling signs and |a3|
    # covering every magnitude in every position
    n = 0
    for a1 in range(1, 256):
        for m2 in range(1, 256):
            s2 = 1 if (a1 + m2) % 2 == 0 else -1
            s3 = 1 if m2 % 2 == 0 else -1
            for a3 in (s3 * a1, -s3 * (256 - m2)):
                triple = (a1, s2 * m2, a3)
                assert decode(encode(*triple)) == triple
                n += 1

    rng = random.Random(0xACCE55)
    lim = 2 ** 20
    for _ in range(100_000):
        a1 = rng.randint(1, lim)
        a2 = rng.choice((-1, 1)) * rng.randint(1, lim)
        a3 = rng.choice((-1, 1)) * rng.randint(1, lim)
        assert decode(encode(a1, a2, a3)) == (a1, a2, a3)
        n += 1
    _report(1, "codec exactness", f"{n} roundtrips, {time.time() - t0:.1f}s")


# -- 2, 3, 4 --------------------------------------------------------------------

def test_acceptance_2_advice_size_bound(regular_suite):
    reports, elapsed = regular_suite
    worst = -10 ** 9
    for r in reports:
        budget = advice_bits_budget(r.L, r.lam)
        assert r.advice_bits <= budget, (r.seed, r.advice_bits, budget)
        worst = max(worst, r.advice_bits - budget)
    _report(2, "advice-size bound",
            f"200 scenarios, worst margin {worst} bits, suite built in {elapsed:.1f}s")


def test_acceptance_3_hunt_correctness(regular_suite):
    reports, _ = regular_suite
    bad = [r.seed for r in reports if r.failures]
    assert not bad, f"failing seeds: {bad}"
    _report(3, "hunt correctness", "200/200 reach the target tile and see the treasure")


def test_acceptance_4_cost_linearity(regular_suite):
    # the golden CSV is regenerated by
    #   thunt bench --seeds 200 -o artifacts/acceptance_bench.csv
    reports, _ = regular_suite
    worst = 0.0
    for r in reports:
        assert r.ratio <= 200.0, (r.seed, r.ratio)
        worst = max(worst, r.ratio)
    path = os.path.join(ARTIFACTS, "acceptance_bench.csv")
    with open(path, newline="") as fh:
        assert reports_to_csv(reports) == fh.read()
    _report(4, "cost linearity", f"max first_sight/max(L,1) = {worst:.3f} <= 200, "
            f"rows equal to {os.path.relpath(path)}")


# -- 5 ----------------------------------------------------------------------------

def test_acceptance_5_cowpath_bound():
    t0 = time.time()
    rng = random.Random(0x5EED)
    checked = 0
    worst = 0.0
    while checked < 1000:
        c = rng.choice([1.5, 2.0, 3.0])
        poly = random_fat_polygon(rng, c, radius=0.4 + 3.0 * rng.random())
        r, r_prime = (poly.point_at_arc(rng.random() * poly.perimeter) for _ in range(2))
        traj = []
        cow_path(poly, r, r_prime, traj)
        assert traj[-1] == r_prime
        dmin, walked = shorter_arc(poly, r, r_prime), polyline_length(traj)
        assert walked <= cowpath_bound(dmin) + 1e-9, (walked, dmin)
        worst = max(worst, walked / cowpath_bound(dmin))
        checked += 1
    _report(5, "cow-path bound",
            f"1000 triples, max walked/bound = {worst:.6f}, {time.time() - t0:.1f}s")


# -- 6 ----------------------------------------------------------------------------

def test_acceptance_6_chord_perimeter_ratio():
    t0 = time.time()
    rng = random.Random(0xFA7)
    checked = 0
    worst = 0.0
    while checked < 1000:
        c = (1.5, 2.0, 3.0)[checked % 3]
        poly = random_fat_polygon(rng, c, radius=0.5 + 2.5 * rng.random())
        a = poly.point_at_arc(rng.random() * poly.perimeter)
        b = poly.point_at_arc(rng.random() * poly.perimeter)
        chord = math.dist(a, b)
        if chord < 1e-9:
            continue
        smaller = shorter_arc(poly, a, b)
        bound = (4 * c + 2) * chord
        assert smaller <= bound + 1e-9, (c, smaller, chord)
        worst = max(worst, smaller / bound)
        checked += 1
    _report(6, "chord/perimeter ratio",
            f"1000 chords, max smaller_part/((4c+2)|ab|) = {worst:.4f}, "
            f"{time.time() - t0:.1f}s")


# -- 7 ----------------------------------------------------------------------------

@pytest.mark.parametrize("lam", [0.25, 0.5, 1.0])
def test_acceptance_7_gadget_blinds(lam):
    t0 = time.time()
    o = Point(0.0, 0.0)
    margin = 8.0 * lam
    outer = Polygon([(-margin, -margin), (margin, -margin),
                     (margin, margin), (-margin, margin)])
    t = Terrain(outer, gadget(o, lam))
    hull = gadget_hull(o, lam)
    half = 5.0 * lam / 2.0
    rng = random.Random(0xB11D)
    n = 0
    while n < 10_000:
        if n % 2 == 0:
            pt = hull.point_at_arc(rng.random() * hull.perimeter)
        else:
            pt = Point(rng.uniform(-margin, margin), rng.uniform(-margin, margin))
            if max(abs(pt.x), abs(pt.y)) <= half:
                continue  # inside the gadget box: not the sampled region
            if max(abs(pt.x), abs(pt.y)) >= margin:
                continue
        assert not sees(pt, o, t), pt
        n += 1
    assert sees(Point(0.0, lam), o, t)
    _report(7, f"gadget non-visibility (lam={lam})",
            f"10000 outside points blind, o+(0,lam) sees, {time.time() - t0:.1f}s")


# -- 8 ----------------------------------------------------------------------------

def test_acceptance_8_comb_construction():
    import numpy as np
    from scipy import ndimage

    from thunt import accessibility, point_in_terrain, vecgeom

    t0 = time.time()
    A, x = 12, 0.25
    k = CombParams(A, 1, x).k
    four = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    for i in range(1, k + 1):
        t, p, q = comb_terrain(CombParams(A, i, x))  # Polygon ctor proves simplicity
        assert accessibility(t, q) == 1.0, i

        y_probe = A / 2 - x / 2
        open_js = [j for j in range(1, k + 1)
                   if point_in_terrain(Point((2 * j - 2) * x + x / 2, y_probe), t)]
        assert open_js == [i]

        step = x / 4
        xs = np.arange(0.5 * step, A, step)
        ys = np.arange(0.5 * step, A, step)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        mask = vecgeom.points_in_terrain(gx.ravel(), gy.ravel(), t).reshape(
            len(xs), len(ys))
        labels, _ = ndimage.label(mask, structure=four)
        bot = labels[int(round((A / 2 - xs[0]) / step)), int(round((A / 8 - ys[0]) / step))]
        top = labels[int(round((A / 2 - xs[0]) / step)), int(round((3 * A / 4 - ys[0]) / step))]
        assert bot != 0 and top != 0 and bot == top, i

        L = shortest_path(t, p, q)
        assert A / 2 < L < 5 * A / 2, (i, L)
    _report(8, "comb construction",
            f"A={A}, x={x}, all {k} corridor choices audited, {time.time() - t0:.1f}s")


# -- 9 ----------------------------------------------------------------------------

def test_acceptance_9_shortest_path_cross_oracle():
    t0 = time.time()
    worst = 0.0
    for seed in range(1000, 1050):
        t, p, q = random_regular_terrain(seed, seed % 7, extent=8.0, min_pq_dist=2.5)
        L = shortest_path(t, p, q)
        G = grid_path_oracle(t, p, q, 0.05)
        assert L <= G, (seed, L, G)
        assert G <= 1.09 * L, (seed, L, G)
        worst = max(worst, G / L)
    _report(9, "shortest-path cross-oracle",
            f"50 terrains, vis <= grid <= 1.09*vis, worst grid/vis = {worst:.4f}, "
            f"{time.time() - t0:.1f}s")


# -- 10 ---------------------------------------------------------------------------

def test_acceptance_10_determinism(tmp_path):
    csv_a = reports_to_csv(bench(range(3)))
    csv_b = reports_to_csv(bench(range(3)))
    assert csv_a == csv_b

    t, p, q = random_regular_terrain(17, 4)
    sc = Scenario(t, p, q)
    rep1 = run_scenario(sc, seed=17)
    rep2 = run_scenario(sc, seed=17)
    assert rep1.csv_row() == rep2.csv_row()
    from thunt import thunt as run_hunt
    out1 = run_hunt(t, p, rep1.advice)
    out2 = run_hunt(t, p, rep2.advice)
    svg1 = render_svg(sc, out1, rep1.advice)
    svg2 = render_svg(sc, out2, rep2.advice)
    assert svg1.encode() == svg2.encode()
    _report(10, "determinism", "byte-identical CSV rows and SVG across repeats")


# -- 11 ---------------------------------------------------------------------------

def test_acceptance_11_lower_bound_terrain_verified():
    # every candidate treasure of the paper's gadget grid, hunted and verified
    t0 = time.time()
    runs = 0
    worst_ratio = worst_cp = worst_bits = 0.0
    for k in (1, 2):
        for lam in (0.05, 0.5, 1.0):
            t, p, centers = regular_lb_terrain(k, lam)
            for q in centers:
                r = run_scenario(Scenario(t, p, q))
                assert r.passed, (k, lam, q, r.failures)
                budget = advice_bits_budget(r.L, r.lam)
                assert r.advice_bits <= budget, (k, lam, q, r.advice_bits, budget)
                assert r.ratio <= RATIO_GATE, (k, lam, q, r.ratio)
                for dmin, walked in r.searches:
                    assert walked <= cowpath_bound(dmin) + 1e-9, (k, lam, q, dmin, walked)
                worst_ratio = max(worst_ratio, r.ratio)
                worst_cp = max(worst_cp, r.max_cowpath_ratio)
                worst_bits = max(worst_bits, r.advice_bits / budget)
                runs += 1
    assert runs == 15
    _report(11, "lower-bound terrain (k <= 2)",
            f"{runs} candidates, max ratio {worst_ratio:.3f}, max walked/dmin "
            f"{worst_cp:.2f}, max bits/budget {worst_bits:.3f}, {time.time() - t0:.1f}s")
