"""Command-line interface.

Subcommands: generate (scenario files for the terrain families), advise
(oracle side), hunt (agent side), run (advise + hunt + verify), render
(SVG), bench (seeded suite -> CSV).
"""
from __future__ import annotations

import argparse
import sys

from . import agent, codec, oracle
from .agent import thunt
from .generators import (CombParams, GenerationError, comb_terrain,
                         random_regular_terrain, regular_lb_terrain)
from .geom import EPS, GeometryError, dist, polyline_length
from .harness import (Scenario, ScenarioError, advice_bits_budget, bench,
                      cowpath_bound, load_scenario, reports_to_csv, run_scenario,
                      save_scenario)
from .render import render_svg


def _cmd_generate(args) -> int:
    if args.family == "random":
        terrain, p, q = random_regular_terrain(args.seed, args.obstacles,
                                               c=args.c, extent=args.extent)
        sc = Scenario(terrain, p, q, fatness_c=args.c)
    elif args.family == "comb":
        terrain, p, q = comb_terrain(CombParams(args.A, args.i, args.x))
        sc = Scenario(terrain, p, q, strict=False)
    else:  # lb
        terrain, p, centers = regular_lb_terrain(args.k, args.lam)
        if not (0 <= args.candidate < len(centers)):
            print(f"error: candidate index must lie in [0, {len(centers) - 1}]",
                  file=sys.stderr)
            return 2
        sc = Scenario(terrain, p, centers[args.candidate])
    save_scenario(sc, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_advise(args) -> int:
    sc = load_scenario(args.scenario)
    spec = oracle.accessibility(sc.terrain, sc.treasure)
    advice, _ = oracle.make_advice(sc.terrain, sc.start, spec)
    if args.out:
        mode = "wb" if args.packed else "w"
        data = codec.pack_bits(advice) if args.packed else advice + "\n"
        with open(args.out, mode) as fh:
            fh.write(data)
    print(advice)
    return 0


def _read_advice(args) -> str:
    if args.advice is not None:
        return args.advice
    if args.packed:
        with open(args.advice_file, "rb") as fh:
            return codec.unpack_bits(fh.read())
    # undecodable bytes become U+FFFD, which decode rejects
    with open(args.advice_file, "r", encoding="ascii", errors="replace") as fh:
        return fh.read().strip()


def _cmd_hunt(args) -> int:
    sc = load_scenario(args.scenario)
    advice = _read_advice(args)
    outcome = thunt(sc.terrain, sc.start, advice)
    first_sight = agent._first_sight_length(outcome.trajectory, sc.start, sc.treasure,
                                            sc.terrain)
    walk = [sc.start, *outcome.trajectory]
    print(f"advice_bits={len(advice)}")
    print(f"reached_qprime={dist(walk[-1], outcome.q_prime) <= EPS}")
    print(f"total_length={polyline_length(walk)!r}")
    print(f"first_sight_length={first_sight!r}")
    if args.svg:
        spec = oracle.accessibility(sc.terrain, sc.treasure)
        doc = render_svg(sc, outcome.trajectory, q_prime=outcome.q_prime, lam=spec.lam)
        with open(args.svg, "w") as fh:
            fh.write(doc)
    return 0


def _cmd_run(args) -> int:
    sc = load_scenario(args.scenario)
    report = run_scenario(sc, seed=args.seed)
    print(f"advice={report.advice}")
    print(f"advice_bits={report.advice_bits}")
    print(f"lambda={report.lam!r} rho={report.rho!r}")
    print(f"L={report.L!r}")
    print(f"total_length={polyline_length([sc.start, *report.outcome.trajectory])!r}")
    print(f"first_sight_length={report.first_sight_length!r}")
    print(f"ratio={report.ratio!r}")
    print(f"max_cowpath_ratio={report.max_cowpath_ratio!r}")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(reports_to_csv([report]))
    if args.svg:
        doc = render_svg(sc, report.outcome.trajectory, q_prime=report.outcome.q_prime,
                         lam=report.lam)
        with open(args.svg, "w") as fh:
            fh.write(doc)
    if report.passed:
        print("PASS")
        return 0
    for f in report.failures:
        print(f"FAIL: {f}")
    return 1


def _cmd_render(args) -> int:
    sc = load_scenario(args.scenario)
    trajectory = q_prime = lam = tiling_side = None
    if args.trajectory or args.tiling:
        spec = oracle.accessibility(sc.terrain, sc.treasure)
        advice, _ = oracle.make_advice(sc.terrain, sc.start, spec)
        lam = spec.lam
        if args.tiling:
            tiling_side = 1.0 / codec.decode(advice).a1
        if args.trajectory:
            outcome = thunt(sc.terrain, sc.start, advice)
            trajectory, q_prime = outcome.trajectory, outcome.q_prime
    doc = render_svg(sc, trajectory, q_prime=q_prime, lam=lam, tiling_side=tiling_side)
    with open(args.out, "w") as fh:
        fh.write(doc)
    print(f"wrote {args.out}")
    return 0


def _cmd_bench(args) -> int:
    seeds = range(args.start_seed, args.start_seed + args.seeds)
    reports = bench(seeds, n_obstacles=args.obstacles, c=args.c, extent=args.extent)
    csv = reports_to_csv(reports)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(csv)
    failed = [r for r in reports if not r.passed]
    worst = max((r.ratio for r in reports), default=0.0)
    print(f"scenarios={len(reports)} failed={len(failed)} max_ratio={worst!r}",
          file=sys.stderr)
    if reports:
        # the observed constants
        lams, Ls = [r.lam for r in reports], [r.L for r in reports]
        margins = [advice_bits_budget(r.L, r.lam) - r.advice_bits for r in reports]
        ratios = [r.ratio for r in reports]
        cp = [walked / cowpath_bound(dmin) for r in reports for dmin, walked in r.searches]
        print(f"lambda range   : [{min(lams):.3f}, {max(lams):.3f}]\n"
              f"L range        : [{min(Ls):.3f}, {max(Ls):.3f}]\n"
              f"advice bits    : max {max(r.advice_bits for r in reports)}, "
              f"min budget margin {min(margins)}\n"
              f"cost ratio     : mean {sum(ratios) / len(ratios):.3f}, max {max(ratios):.3f}",
              file=sys.stderr)
        if cp:
            print(f"cow-path util  : max {max(cp):.6f} of the doubling bound "
                  f"({len(cp)} searches)", file=sys.stderr)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="thunt",
                                     description="advice-guided treasure hunt simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a scenario file")
    gsub = g.add_subparsers(dest="family", required=True)
    gr = gsub.add_parser("random", help="random regular terrain")
    gr.add_argument("--seed", type=int, required=True)
    gr.add_argument("--obstacles", type=int, default=5)
    gr.add_argument("--c", type=float, default=2.0)
    gr.add_argument("--extent", type=float, default=10.0)
    gr.add_argument("-o", "--out", required=True)
    gr.set_defaults(func=_cmd_generate)
    gc = gsub.add_parser("comb", help="comb polygon with one open corridor")
    gc.add_argument("--A", type=int, required=True)
    gc.add_argument("--x", type=float, default=0.0, help="corridor width (default 1/2^A)")
    gc.add_argument("--i", type=int, required=True, help="open corridor index (1-based)")
    gc.add_argument("-o", "--out", required=True)
    gc.set_defaults(func=_cmd_generate)
    gl = gsub.add_parser("lb", help="gadget-grid terrain")
    gl.add_argument("--k", type=int, required=True)
    gl.add_argument("--lam", type=float, required=True)
    gl.add_argument("--candidate", type=int, default=0,
                    help="index of the candidate treasure center")
    gl.add_argument("-o", "--out", required=True)
    gl.set_defaults(func=_cmd_generate)

    a = sub.add_parser("advise", help="compute the advice string for a scenario")
    a.add_argument("scenario")
    a.add_argument("-o", "--out")
    a.add_argument("--packed", action="store_true", help="write packed binary advice")
    a.set_defaults(func=_cmd_advise)

    h = sub.add_parser("hunt", help="run the agent from a scenario plus advice")
    h.add_argument("scenario")
    adv = h.add_mutually_exclusive_group(required=True)
    adv.add_argument("--advice")
    adv.add_argument("--advice-file")
    h.add_argument("--packed", action="store_true", help="advice file is packed binary")
    h.add_argument("--svg")
    h.set_defaults(func=_cmd_hunt)

    r = sub.add_parser("run", help="advise + hunt + verify")
    r.add_argument("scenario")
    r.add_argument("--seed", type=int, default=None, help="seed recorded in CSV output")
    r.add_argument("--csv")
    r.add_argument("--svg")
    r.set_defaults(func=_cmd_run)

    rd = sub.add_parser("render", help="render a scenario to SVG")
    rd.add_argument("scenario")
    rd.add_argument("-o", "--out", required=True)
    rd.add_argument("--trajectory", action="store_true", help="run the hunt and draw it")
    rd.add_argument("--tiling", action="store_true", help="overlay the advice tiling grid")
    rd.set_defaults(func=_cmd_render)

    b = sub.add_parser("bench", help="seeded suite -> CSV of ratios and advice sizes")
    b.add_argument("--seeds", type=int, required=True)
    b.add_argument("--start-seed", type=int, default=0)
    b.add_argument("--obstacles", type=int, default=None,
                   help="fixed obstacle count (default: cycles 0..10 by seed)")
    b.add_argument("--c", type=float, default=2.0)
    b.add_argument("--extent", type=float, default=10.0)
    b.add_argument("-o", "--out")
    b.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, codec.AdviceError, GenerationError, GeometryError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
