"""The four workloads: fixed rounds of cornerlab commands built from a seed.

A round is a fixed list of ops run back to back.  Inputs come from the
workload seed and the round number, so every round has the same commands,
groups and densities on fresh random sets; set files are shared by all
rounds.  The program sees only the generated flags and set files.
Each op knows its work in the workload's unit and how to check its output.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# pipeline and regularize ignore --restarts today and use their library
# default; passing the same value keeps the work fixed if that is fixed.
PIPELINE_RESTARTS = "32"
WORKLOAD_INDEX = {"scan-cyclic": 1, "scan-product": 2, "density-sweep": 3, "regularity-mix": 4}


@dataclass
class Op:
    label: str
    work: float
    argv: list[str] | None = None  # a CLI op, run as cornerlab <argv> --out FILE
    call: Callable | None = None  # a library op; its return value is checked
    check: Callable = lambda output: {}
    oracle: Callable | None = None  # slow second check, once per run


@dataclass
class Workload:
    name: str
    unit: str  # what one unit of work is
    ops: list[Op]
    files: list[tuple[str, tuple[int, ...], np.ndarray]]  # set files to write in set-up
    round_s: float  # nominal seconds per round at the benchmark-defining commit
    probe: str  # label of the op repeated at 1 and 2 threads in the traced run


def _spec(moduli: tuple[int, ...]) -> str:
    return "x".join(f"Z{n}" for n in moduli)


def _profile_op(command, moduli, density, set_seed, rng_seed, set_file=None, naive=False) -> Op:
    """scan or popular on a seeded random set, by flags or by set file."""
    n = math.prod(moduli)
    bits = checks.random_bits(n, density, set_seed)
    source = (["--set-file", str(set_file)] if set_file is not None
              else ["--group", _spec(moduli), "--density", repr(density), "--seed", str(set_seed)])
    label = f"{command} {_spec(moduli)} d={density}" + (" file" if set_file else "")

    def check(text):
        rng = np.random.default_rng(rng_seed)
        if command == "scan":
            checks.check_profile(text, bits, moduli, rng)
        else:
            checks.check_popular(text, bits, moduli, rng)
        return {}

    def oracle(text):
        from cornerlab.corners import PlaneSet, corner_count_naive
        from cornerlab.groups import GroupSpec

        want = corner_count_naive(PlaneSet(GroupSpec(moduli), bits), cap=n).counts
        got = [int(r.split(",")[2]) for r in checks.data_lines(text)[1:]]
        if got != [int(v) for v in want]:
            raise checks.CheckFailed("profile differs from corner_count_naive")

    return Op(label, float(n) ** 3, argv=[command] + source, check=check,
              oracle=oracle if naive else None)


def _zscan_op(n, density, set_seed, rho: Fraction, naive=False) -> Op:
    bits = checks.random_bits(n, density, set_seed)
    cands = sum(1 for d in range(1, n) if Fraction(min(d, n - d), n) < rho)
    op = Op(
        f"zscan Z{n} d={density} rho={rho}",
        float(n) ** 2 * cands,
        argv=["zscan", "--group", f"Z{n}", "--density", repr(density), "--seed", str(set_seed),
              "--rho", str(rho)],
        check=lambda text: checks.check_zscan(text, checks.zscan_expected(bits, rho)) or {},
    )
    if naive:
        def oracle(text):
            from cornerlab.corners import integer_corner_scan_naive

            scan = integer_corner_scan_naive(bits, rho=rho)
            checks.check_zscan(text, (scan.profile, scan.difference, scan.count))

        op.oracle = oracle
    return op


def _seeds(seed: int, workload: str, count: int, r: int | None = None) -> list[int]:
    """Set seeds for round r; r=None gives the seeds of the set files, shared by all rounds."""
    rng = np.random.default_rng([seed, WORKLOAD_INDEX[workload]] + ([] if r is None else [r + 1]))
    return [int(s) for s in rng.integers(0, 2**31, size=count)]


DENSITIES = (0.1, 0.2, 0.3, 0.4, 0.5)


def scan_cyclic(seed: int, workdir: Path, r: int) -> Workload:
    """Cyclic ladder Z64..Z512, one CRT-cyclic product, a Z768 set file, zscans.

    Order statistics need groups of like ops around them: with 4 rounds the
    tail (11th largest) falls among the twelve Z512 ops below the four Z768
    ones, and the median among the four Z512 zscans.
    """
    ladder = [(64,), (96,), (128,), (160,), (192,), (256,), (384,), (512,), (512,), (512,), (8, 63)]
    s = _seeds(seed, "scan-cyclic", len(ladder) + 3, r)
    f = _seeds(seed, "scan-cyclic", 1)[0]
    ops = []
    for i, moduli in enumerate(ladder):
        command = "scan" if i % 2 == 0 else "popular"
        density = DENSITIES[i % len(DENSITIES)]
        ops.append(_profile_op(command, moduli, density, s[i], s[i] + 1, naive=i == 0))
    big = (768,)
    set_file = workdir / "cyclic768.txt"
    ops.append(_profile_op("scan", big, 0.5, f, s[11], set_file))
    ops.append(_zscan_op(256, 0.3, s[11], Fraction(1, 64), naive=True))
    ops.append(_zscan_op(384, 0.4, s[12], Fraction(1, 8)))
    ops.append(_zscan_op(512, 0.5, s[13], Fraction(1, 4)))
    files = [(set_file.name, big, checks.random_bits(768, 0.5, f))]
    return Workload("scan-cyclic", "(d,x,y) triples", ops, files, round_s=5.0,
                    probe="scan Z768 d=0.5 file")


def scan_product(seed: int, workdir: Path, r: int) -> Workload:
    """Non-cyclic groups of the same orders as the cyclic ladder."""
    ladder = [(8, 8), (4, 24), (2, 64), (4, 48), (16, 16), (4, 4, 4, 4), (2, 4, 48),
              (16, 32), (8, 8, 8), (2, 4, 64)]
    s = _seeds(seed, "scan-product", len(ladder) + 1, r)
    f = _seeds(seed, "scan-product", 1)[0]
    ops = []
    for i, moduli in enumerate(ladder):
        command = "scan" if i % 2 == 0 else "popular"
        density = DENSITIES[i % len(DENSITIES)]
        ops.append(_profile_op(command, moduli, density, s[i], s[i] + 1, naive=i == 0))
    big = (16, 48)
    set_file = workdir / "product768.txt"
    ops.append(_profile_op("scan", big, 0.3, f, s[-1], set_file))
    files = [(set_file.name, big, checks.random_bits(768, 0.3, f))]
    return Workload("scan-product", "(d,x,y) triples", ops, files, round_s=4.5,
                    probe="scan Z16xZ48 d=0.3 file")


# Solver work per op swings up to 2x with the solver seed alone (random
# restarts), so these inputs are fixed: the workload seed does not change them.
# Five ops of 4-5 s put the median and the maximum inside a group of similar
# ops; a single slower op (alpha 0.1 takes 8-11 s) made the maximum as noisy
# as that one op.
SWEEP_SINGLE = ((0.2, 1), (0.4, 1), (0.45, 0), (0.55, 0), (0.75, 0), (0.85, 0), (0.9, 0))
SWEEP_ENVELOPE = (0.55, 0.75)


def density_sweep(seed: int, workdir: Path, r: int) -> Workload:
    """variational at the CLI defaults over fixed densities, plus one envelope."""
    ops = []
    for alpha, solver_seed in SWEEP_SINGLE:
        def check(text, alpha=alpha):
            return {"mhat": checks.check_variational(text, [alpha])}

        ops.append(Op(f"variational a={alpha} s={solver_seed}", 1.0,
                      argv=["variational", "--density", repr(alpha), "--seed", str(solver_seed),
                            "--grid-n", "6", "--restarts", "8"],
                      check=check))
    env = ",".join(repr(a) for a in SWEEP_ENVELOPE)
    ops.append(Op(f"envelope {env}", float(len(SWEEP_ENVELOPE)),
                  argv=["envelope", "--density", env, "--seed", "0", "--grid-n", "6",
                        "--restarts", "8"],
                  check=lambda text: checks.check_envelope(text, list(SWEEP_ENVELOPE)) or {}))
    return Workload("density-sweep", "density samples", ops, [], round_s=28.0,
                    probe=f"envelope {env}")


REG_GROUPS = [(16,), (32,), (64,), (128,), (4, 32), (2, 2, 32), (6, 10)]


def _report_op(command, moduli, density, set_seed, extra=(), set_file=None, bits=None,
               routes_agree=False) -> Op:
    n = math.prod(moduli)
    if bits is None:
        bits = checks.random_bits(n, density, set_seed)
    source = (["--set-file", str(set_file)] if set_file is not None
              else ["--group", _spec(moduli), "--density", repr(density), "--seed", str(set_seed)])

    def check(text):
        report = checks.parse_report(text)
        certified = checks.check_residuals(report, n)
        if command == "pipeline":
            checks.check_pipeline(report, bits, routes_agree)
        elif report["density"] != bits.sum() / bits.size:
            raise checks.CheckFailed("regularize density is not the set density")
        return {"certified": certified}

    label = f"{command} {_spec(moduli)} d={density}" + (" file" if set_file else "")
    return Op(label, float(n) ** 2,
              argv=[command] + source + ["--restarts", PIPELINE_RESTARTS] + list(extra),
              check=check)


def _bohr_ops(seed_value: int) -> list[Op]:
    """The Bohr geometry calls of the geometry tour, on Z60 and Z6xZ10."""
    from cornerlab import bohr
    from cornerlab.groups import Character, GroupSpec

    rng = np.random.default_rng(seed_value)
    ops = []
    for moduli in ((60,), (6, 10)):
        G = GroupSpec(moduli)
        n = G.order
        coeffs = tuple(int(rng.integers(1, m)) for m in moduli)
        xi = Character(G, coeffs)
        z0 = int(rng.integers(0, n))
        name = _spec(moduli)

        def translate(G=G, xi=xi):
            return bohr.verify_translate_containment(G, [xi], Fraction(1, 4), Fraction(1, 60))

        def absorb(G=G, xi=xi):
            return bohr.verify_part_absorption(G, [xi], [xi], Fraction(1, 4), Fraction(1, 60))

        def box(G=G, xi=xi, z0=z0):
            B = bohr.BohrSet(G, [xi], Fraction(1, 4))
            return bohr.box_approximation(B, G.element(z0), 0.5, Fraction(1, 60))

        def check_box(decomp, moduli=moduli, coeffs=coeffs, z0=z0):
            checks.check_boxes(decomp, moduli, [coeffs], Fraction(1, 4), z0)
            return {}

        ops += [
            Op(f"bohr-translate {name}", float(n) ** 2, call=translate,
               check=lambda fr: checks.check_fraction(fr) or {}),
            Op(f"bohr-absorb {name}", float(n) ** 2, call=absorb,
               check=lambda fr: checks.check_fraction(fr) or {}),
            Op(f"bohr-box {name}", float(n) ** 2, call=box, check=check_box),
        ]
    return ops


def regularity_mix(seed: int, workdir: Path, r: int) -> Workload:
    """regularize and pipeline on small groups, the striped set, Bohr geometry."""
    s = _seeds(seed, "regularity-mix", 2 * len(REG_GROUPS) + 1, r)
    ops = []
    for i, moduli in enumerate(REG_GROUPS):
        ops.append(_report_op("regularize", moduli, DENSITIES[i % 5], s[i]))
        ops.append(_report_op("pipeline", moduli, DENSITIES[(i + 2) % 5], s[len(REG_GROUPS) + i]))
    idx = np.arange(32)
    stripes = ((idx[:, None] + idx[None, :]) % 8) < 4
    set_file = workdir / "stripes32.txt"
    ops.append(_report_op("pipeline", (32,), 0.5, None, extra=["--growth", "poly:8,2"],
                          set_file=set_file, bits=stripes, routes_agree=True))
    ops += _bohr_ops(s[-1])
    return Workload("regularity-mix", "plane cells |G|^2", ops, [(set_file.name, (32,), stripes)],
                    round_s=1.3, probe="pipeline Z128 d=0.1")


BY_NAME = {
    "scan-cyclic": scan_cyclic,
    "scan-product": scan_product,
    "density-sweep": density_sweep,
    "regularity-mix": regularity_mix,
}
