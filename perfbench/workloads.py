"""The benchmark's two workloads: inputs made from a seed, one pass of
ops, and the correctness check applied to every op.

Importing this module imports `thunt` from the checkout's `src/` and
nothing from anywhere else, so a run always measures the code next to it.
"""
from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
REFERENCES = Path(__file__).resolve().parent / "references.json"

sys.path.insert(0, str(ROOT / "src"))
import thunt  # noqa: E402
from thunt import harness  # noqa: E402
from thunt.geom import Point, Polygon, Terrain, segment_in_terrain  # noqa: E402

if Path(thunt.__file__).resolve().parent != ROOT / "src" / "thunt":
    raise ImportError(f"thunt imported from {thunt.__file__}, not from {ROOT / 'src'}")

# An op is (key, fn).  The key names the op's exact inputs, so a recorded
# reference applies to an op whatever seed produced it.
Op = tuple[str, Callable[[], object]]

SUITE_SEEDS = 200          # the acceptance suite, scenario seeds 0..199
LATTICE_N = 8              # 8x8 diamonds: V = 4*64 + 4 + 2 = 262
DIAMOND_RADIUS = 0.3       # half-diagonal of each diamond, cell side 1


class Workload:
    """Inputs for one seed.  Building an instance is the timed set-up."""

    name = ""

    def __init__(self, seed: int, tiny: bool, references: dict):
        self.references = references.get(self.name, {})

    def ops(self) -> list[Op]:
        """One pass, in the order the seed fixes."""
        raise NotImplementedError

    def check(self, key: str, result) -> Optional[str]:
        """None when the op's output is right, else the reason it is not."""
        raise NotImplementedError

    def record(self, result) -> dict:
        """The reference values `check` compares against."""
        raise NotImplementedError


def _rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class RegularSuite(Workload):
    """`bench_scenario(s)` then `run_scenario` for the acceptance seeds."""

    name = "regular_suite"

    def __init__(self, seed, tiny, references):
        super().__init__(seed, tiny, references)
        self.scenario_seeds = list(range(3 if tiny else SUITE_SEEDS))
        random.Random(seed).shuffle(self.scenario_seeds)

    def ops(self):
        def op(s):
            return lambda: harness.run_scenario(harness.bench_scenario(s), seed=s)
        return [(str(s), op(s)) for s in self.scenario_seeds]

    def check(self, key, report):
        if not report.passed:
            return "harness: " + "; ".join(report.failures)
        ref = self.references.get(key)
        if ref is None:
            return None
        if report.advice_bits != ref["advice_bits"]:
            return f"advice_bits {report.advice_bits} != reference {ref['advice_bits']}"
        if report.lam != ref["lam"]:
            return f"lambda {report.lam!r} != reference {ref['lam']!r}"
        if _rel_diff(report.L, ref["L"]) > 1e-9:
            return f"L {report.L!r} differs from reference {ref['L']!r}"
        if abs(report.first_sight_length - ref["first_sight_length"]) > 1e-6:
            return (f"first_sight_length {report.first_sight_length!r} differs "
                    f"from reference {ref['first_sight_length']!r}")
        return None

    def record(self, report):
        return {"advice_bits": report.advice_bits, "lam": report.lam, "L": report.L,
                "first_sight_length": report.first_sight_length}


def diamond_lattice_terrain(n: int) -> Terrain:
    """n x n unit cells in the square [0, n]^2, a diamond centred in each."""
    r = DIAMOND_RADIUS
    diamonds = [Polygon([(i + 0.5, j + 0.5 - r), (i + 0.5 + r, j + 0.5),
                         (i + 0.5, j + 0.5 + r), (i + 0.5 - r, j + 0.5)])
                for i in range(n) for j in range(n)]
    return Terrain(Polygon([(0, 0), (n, 0), (n, n), (0, n)]), diamonds)


class DiamondLattice(Workload):
    """One full `run_scenario` on the diamond lattice.

    Start and treasure sit on free lattice points, the gaps between four
    diamonds: the start within two cells of the south-west corner, the
    treasure within two cells of the north-east one, picked by the seed's
    base-3 digits.  Seed 0 puts them at the corners, pulled 0.1 inside.
    """

    name = "diamond_lattice"

    def __init__(self, seed, tiny, references):
        super().__init__(seed, tiny, references)
        n = 2 if tiny else LATTICE_N
        self.terrain = diamond_lattice_terrain(n)
        d = [(seed // 3 ** k) % 3 for k in range(4)]

        def free(i, j):
            return Point(min(max(i, 0.1), n - 0.1), min(max(j, 0.1), n - 0.1))

        p, q = free(d[0], d[1]), free(n - d[2], n - d[3])
        if segment_in_terrain(p, q, self.terrain):
            raise ValueError(f"seed {seed}: start sees the treasure directly")
        self.scenario = harness.Scenario(self.terrain, p, q)
        self.key = f"p=({p.x!r},{p.y!r}) q=({q.x!r},{q.y!r}) n={n}"

    def ops(self):
        return [(self.key, lambda: harness.run_scenario(self.scenario))]

    def check(self, key, report):
        if not report.passed:
            return "harness: " + "; ".join(report.failures)
        ref = self.references.get(key)
        if ref is not None and _rel_diff(report.L, ref["L"]) > 1e-9:
            return f"L {report.L!r} differs from reference {ref['L']!r}"
        return None

    def record(self, report):
        return {"L": report.L}


WORKLOADS = {w.name: w for w in (RegularSuite, DiamondLattice)}


def load_references(path: Path = REFERENCES) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def record_references(path: Path = REFERENCES) -> dict:
    """Run one pass of every workload, full size and tiny, at seed 0 and
    store the outputs the checks compare against."""
    refs: dict = {}
    for cls in WORKLOADS.values():
        out = refs.setdefault(cls.name, {})
        for tiny in (False, True):
            wl = cls(0, tiny, {})
            for key, fn in wl.ops():
                result = fn()
                reason = wl.check(key, result)
                if reason is not None:
                    raise RuntimeError(f"{cls.name} {key}: {reason}")
                out[key] = wl.record(result)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return refs


if __name__ == "__main__":
    if sys.argv[1:] != ["--record-references"]:
        sys.exit("usage: python3 perfbench/workloads.py --record-references")
    refs = record_references()
    print(f"wrote {REFERENCES}: " + ", ".join(f"{k} {len(v)}" for k, v in refs.items()))
