"""Time the corner profile and the integer scan of two source trees against each other.

    python tools/profile_ab.py PARENT CHANGE Z4xZ4xZ4xZ4 Z256 Z384@1/8 [--rounds 6] [--repeats 9]

PARENT and CHANGE are source trees, each holding the package at
src/cornerlab; both load into one process under their own module names,
so the same tree may stand on both sides.  For every item the script
draws one random set, of density 0.3 from seed 5 (fixed, so every run
times the same sets).  A group spec times corner_count_by_difference on
it; an item written Zn@rho, such as Z384@1/8, draws the set on the
rank-one group Zn and times integer_corner_scan on its n x n grid at that
rho.  The script checks that the two trees' profiles, or scan profiles,
are equal, and then times them interleaved: in each round each side runs
--repeats of them, the side that runs first alternating by round, and each
side keeps its best time over all rounds.  It prints one line per item,
the two best times in ms and their ratio (change / parent), and exits 1 if
any pair of counts differs.  This is a kernel-level timing; the end-to-end
benchmark is bench/run.py.
"""

import argparse
import importlib.util
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

DENSITY = 0.3
SEED = 5


def load(tree, name):
    """The package at tree/src/cornerlab, imported as the module `name`."""
    init = Path(tree) / "src" / "cornerlab" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    for stale in [key for key in sys.modules if key == name or key.startswith(name + ".")]:
        del sys.modules[stale]  # a tree loaded earlier under this name
    sys.modules[name] = module  # the package's relative imports resolve through it
    spec.loader.exec_module(module)
    return module


def best_time(measure, A, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        measure(A)
        best = min(best, time.perf_counter() - start)
    return best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="source tree timed first in even rounds")
    parser.add_argument("change", help="source tree compared against it")
    parser.add_argument("groups", nargs="+",
                        help="group specs, such as Z4xZ4xZ4xZ4, or Zn@rho scans, such as Z384@1/8")
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--repeats", type=int, default=9)
    args = parser.parse_args(argv)
    sides = [load(args.parent, "_cornerlab_parent"), load(args.change, "_cornerlab_change")]
    print(f"{'group':<24} {'parent ms':>10} {'change ms':>10} {'ratio':>7}")
    status = 0
    for item in args.groups:
        spec, scan, rho = item.partition("@")
        group = sides[0].parse_group_spec(spec)
        if scan and group.rank != 1:
            parser.error(f"{item}: a scan needs a rank-one group Zn")
        first = sides[0].PlaneSet.random(group, DENSITY, SEED)
        sets = [first, sides[1].PlaneSet(sides[1].parse_group_spec(spec), first.bits)]
        if scan:
            measures = [lambda A, side=side: side.integer_corner_scan(A.bits, Fraction(rho))
                        for side in sides]
            results = [measure(A) for measure, A in zip(measures, sets)]
        else:
            measures = [side.corner_count_by_difference for side in sides]
            results = [measure(A).counts.tolist() for measure, A in zip(measures, sets)]
        if results[0] != results[1]:
            print(f"{item:<24} counts differ")
            status = 1
            continue
        best = [float("inf")] * 2
        for r in range(args.rounds):
            for i in (0, 1) if r % 2 == 0 else (1, 0):
                best[i] = min(best[i], best_time(measures[i], sets[i], args.repeats))
        print(f"{item:<24} {best[0] * 1e3:10.3f} {best[1] * 1e3:10.3f} {best[1] / best[0]:7.3f}")
    return status


if __name__ == "__main__":
    sys.exit(main())
