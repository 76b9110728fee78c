"""Time the corner profile of two source trees against each other.

    python tools/profile_ab.py PARENT CHANGE Z4xZ4xZ4xZ4 Z256 [--rounds 6] [--repeats 9]

PARENT and CHANGE are source trees, each holding the package at
src/cornerlab; both load into one process under their own module names,
so the same tree may stand on both sides.  For every group the script
draws one random set, of density 0.3 from seed 5 (fixed, so every run
times the same sets), checks that the two trees' profiles are equal, and
then times corner_count_by_difference interleaved: in each round each side
runs --repeats profiles, the side that runs first alternating by round,
and each side keeps its best time over all rounds.  It prints one line per
group, the two best times in ms and their ratio (change / parent), and
exits 1 if any pair of counts differs.  This is a kernel-level timing; the
end-to-end benchmark is bench/run.py.
"""

import argparse
import importlib.util
import sys
import time
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


def best_time(profile, A, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        profile(A)
        best = min(best, time.perf_counter() - start)
    return best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="source tree timed first in even rounds")
    parser.add_argument("change", help="source tree compared against it")
    parser.add_argument("groups", nargs="+", help="group specs, such as Z4xZ4xZ4xZ4")
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--repeats", type=int, default=9)
    args = parser.parse_args(argv)
    sides = [load(args.parent, "_cornerlab_parent"), load(args.change, "_cornerlab_change")]
    print(f"{'group':<24} {'parent ms':>10} {'change ms':>10} {'ratio':>7}")
    status = 0
    for spec in args.groups:
        first = sides[0].PlaneSet.random(sides[0].parse_group_spec(spec), DENSITY, SEED)
        sets = [first, sides[1].PlaneSet(sides[1].parse_group_spec(spec), first.bits)]
        profiles = [side.corner_count_by_difference for side in sides]
        if not np.array_equal(profiles[0](sets[0]).counts, profiles[1](sets[1]).counts):
            print(f"{spec:<24} counts differ")
            status = 1
            continue
        best = [float("inf")] * 2
        for r in range(args.rounds):
            for i in (0, 1) if r % 2 == 0 else (1, 0):
                best[i] = min(best[i], best_time(profiles[i], sets[i], args.repeats))
        print(f"{spec:<24} {best[0] * 1e3:10.3f} {best[1] * 1e3:10.3f} {best[1] / best[0]:7.3f}")
    return status


if __name__ == "__main__":
    sys.exit(main())
