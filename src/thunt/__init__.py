"""Advice-guided treasure hunt in polygonal terrains with obstacles.

An all-knowing oracle compresses the treasure location into a short binary
advice string; an agent that knows nothing but the advice replays the hunt
with free moves along a target line and doubling searches around the
obstacles it bumps into.  Generators build the terrain families used by
the verification suites.
"""
from .agent import choose_directions, cow_path, thunt
from .codec import AdviceError, AdviceTriple, decode, encode, pack_bits, unpack_bits
from .generators import (CombParams, GadgetParams, GenerationError, comb_terrain,
                         gadget, random_fat_polygon, random_regular_terrain,
                         regular_lb_terrain)
from .geom import (EPS, GeometryError, HitEvent, Point, Polygon, Terrain,
                   TerrainError, convex_hull, distance_to_boundary, first_hit,
                   is_c_fat, largest_inscribed_circle, point_in_rings, point_in_terrain,
                   sees, segment_in_terrain, smallest_enclosing_circle,
                   validate_regular_terrain)
from .harness import (Scenario, ScenarioError, RunReport, bench, bench_scenario,
                      load_scenario, reports_to_csv, run_scenario, save_scenario)
from .oracle import TreasureSpec, accessibility, make_advice, select_tile, shortest_path
from .render import render_svg

__version__ = "0.1.0"
