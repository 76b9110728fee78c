"""Acceptance suite: one test per headline guarantee, one line printed each.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines as they pass; under plain `pytest` the lines surface for failures and
the verdicts show as test outcomes.

Tolerances and instance sizes here are contractual, so they are written out
literally rather than shared through helpers.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import cornerlab as cl
from cornerlab.cli import main as cli_main


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


# --------------------------------------------------------------------------


def test_c01_corner_oracle_equivalence():
    with criterion("corner profiles: bitset path equals naive triple loop"):
        t0 = time.monotonic()
        for spec in ("Z16", "Z5xZ5", "Z2xZ2xZ2xZ2"):
            G = cl.parse_group_spec(spec)
            for seed in range(20):
                A = cl.PlaneSet.random(G, 0.4, seed)
                fast = cl.corner_count_by_difference(A).counts
                slow = cl.corner_count_naive(A).counts
                assert np.array_equal(fast, slow), (spec, seed)
        assert time.monotonic() - t0 < 10.0


def test_c02_weighted_count_consistency():
    with criterion("weighted counts: hyperplane triple sum equals profile sum"):
        cases = [("Z8", s) for s in range(5)] + [("Z3xZ3", s) for s in range(5)]
        for spec, seed in cases:
            G = cl.parse_group_spec(spec)
            A = cl.PlaneSet.random(G, 0.45, seed)
            views = cl.hyperplane_views(A)
            B = cl.BohrSet(G, [G.characters()[1]], Fraction(1, 4))
            for nu in (cl.GroupFunction.constant(G, 1.0), B.mu()):
                lhs = cl.triple_sum_from_views(views, G, nu)
                rhs = cl.weighted_corner_count(A, nu)
                assert abs(lhs - rhs) <= 1e-10, (spec, seed)


def test_c03_fourier_identities():
    with criterion("Fourier: Plancherel, convolution theorem, direct oracle"):
        for spec in ("Z16", "Z5xZ5", "Z2xZ2xZ2xZ2", "Z6xZ10", "Z256"):
            G = cl.parse_group_spec(spec)
            rng = np.random.default_rng(len(spec) * 1000 + G.order)
            for _ in range(50):
                f = cl.GroupFunction(G, rng.random(G.order))
                g = cl.GroupFunction(G, rng.random(G.order))
                fhat = cl.dft(f)
                assert abs(cl.lp_norm(f, 2) - cl.lp_dual_norm(fhat, 2)) <= 1e-9
                conv = cl.dft(cl.convolve(f, g)).coefficients
                prod = fhat.coefficients * cl.dft(g).coefficients
                assert np.max(np.abs(conv - prod)) <= 1e-9
                direct = cl.dft_direct(f).coefficients
                assert np.max(np.abs(fhat.coefficients - direct)) <= 1e-10


def test_c04_bohr_volume_bound():
    with criterion("Bohr volume: measure at least N^-|S| on 200 draws"):
        G12 = cl.parse_group_spec("Z12")
        B12 = cl.BohrSet(G12, [G12.characters()[1]], Fraction(1, 5))
        assert B12.measure() == Fraction(5, 12)
        assert Fraction(5, 12) >= cl.volume_lower_bound(1, Fraction(1, 5)) == Fraction(1, 6)

        specs = ("Z12", "Z30", "Z128", "Z512", "Z1024", "Z4xZ4",
                 "Z2xZ3xZ5", "Z6xZ10", "Z8xZ8", "Z4xZ4xZ4")
        rng = np.random.default_rng(20240815)
        for draw in range(200):
            G = cl.parse_group_spec(specs[int(rng.integers(len(specs)))])
            chars = G.characters()
            k = int(rng.integers(1, 4))
            picks = rng.choice(len(chars), size=min(k, len(chars)), replace=False)
            S = [chars[int(i)] for i in picks]
            q = int(rng.integers(3, 17))
            p = int(rng.integers(1, q // 2 + 1))
            B = cl.BohrSet(G, S, Fraction(p, q))
            measured = B.measure()
            bound = cl.volume_lower_bound(len(B.freqs), Fraction(p, q))
            assert measured >= bound, (draw, G.spec_string(), p, q)


def test_c05_partition_verifier_bounds():
    with criterion("partition verifiers: bad fractions under pinned constants"):
        translate_cases = [
            ("Z100", [1], Fraction(1, 100), Fraction(1, 4)),
            ("Z256", [1], Fraction(1, 32), Fraction(1, 2)),
            ("Z64", [1], Fraction(1, 64), Fraction(1, 4)),
            ("Z16xZ16", [1, 16], Fraction(1, 128), Fraction(1, 4)),
        ]
        for spec, char_idx, rho, delta in translate_cases:
            G = cl.parse_group_spec(spec)
            S = [G.characters()[i] for i in char_idx]
            bound = cl.translate_containment_bound(len(S), rho, delta)
            assert bound < 1  # hypothesis regime: the prediction has teeth
            measured = cl.verify_translate_containment(G, S, delta, rho)
            assert measured <= bound, (spec, measured, bound)

        absorption_cases = [
            ("Z128", Fraction(1, 4), Fraction(1, 100)),
            ("Z256", Fraction(1, 4), Fraction(1, 200)),
            ("Z64", Fraction(1, 2), Fraction(1, 64)),
        ]
        for spec, rho, delta_prime in absorption_cases:
            G = cl.parse_group_spec(spec)
            S = [G.characters()[1]]
            bound = cl.part_absorption_bound(1, rho, delta_prime)
            assert bound < 1
            measured = cl.verify_part_absorption(G, S, S, rho, delta_prime)
            assert measured <= bound, (spec, measured, bound)


def test_c06_variational_bound_chain():
    with criterion("variational sweep: bracketed, convex envelope, monotone"):
        t0 = time.monotonic()
        alphas = [round(0.05 * i, 2) for i in range(21)]
        pts = cl.sweep_and_envelope(alphas, 6, restarts=8, seed=0)
        for a, raw, v in zip(pts.alphas, pts.raw_values, pts.values):
            assert a**4 - 1e-6 <= raw <= a**3 + 1e-9, (a, raw)
            assert a**4 - 1e-6 <= v <= a**3 + 1e-9, (a, v)
        for prev, nxt in zip(pts.values, pts.values[1:]):
            assert prev <= nxt + 1e-6
        for a, v in zip(pts.alphas, pts.values):
            assert pts.envelope_at(a) <= v + 1e-12
        slopes = np.diff(pts.hull_values) / np.diff(pts.hull_alphas)
        assert np.all(np.diff(slopes) >= -1e-12)
        assert time.monotonic() - t0 < 300.0


def test_c07_T_gold_values():
    with criterion("T values: constants cube, diagonal n=2 gives 1/32"):
        for alpha in np.linspace(0.0, 1.0, 11):
            phi = cl.GridFunction.constant(4, float(alpha))
            assert abs(cl.evaluate_T(phi) - float(alpha) ** 3) <= 1e-12
        diag = np.zeros((2, 2, 2))
        diag[0, 0, 0] = diag[1, 1, 1] = 1.0
        assert abs(cl.evaluate_T(cl.GridFunction.uniform(diag)) - 1 / 32) <= 1e-12


def test_c08_gradient_check():
    with criterion("gradient: analytic matches central differences"):
        h = 1e-4
        for n in (2, 4, 8):
            for seed in (0, 1, 2):
                rng = np.random.default_rng([seed, n])
                vals = rng.uniform(0.1, 0.9, size=(n, n, n))
                phi = cl.GridFunction.uniform(vals)
                grad = cl.gradient_T(phi)
                worst = 0.0
                for idx in np.ndindex(n, n, n):
                    up = vals.copy()
                    up[idx] += h
                    dn = vals.copy()
                    dn[idx] -= h
                    fd = (
                        cl.evaluate_T(cl.GridFunction.uniform(up))
                        - cl.evaluate_T(cl.GridFunction.uniform(dn))
                    ) / (2 * h)
                    rel = abs(grad[idx] - fd) / max(abs(fd), 1e-12)
                    worst = max(worst, rel)
                assert worst <= 1e-5, (n, seed, worst)


def test_c09_regularity_engines():
    with criterion("regularity: round caps, exact sums, certified residuals"):
        F = cl.GrowthFunction("polynomial", c=4.0, k=1.0)
        for spec, seeds in (("Z32", (0, 1, 2)), ("Z64", (3, 4))):
            G = cl.parse_group_spec(spec)
            for seed in seeds:
                rng = np.random.default_rng(seed)
                fs = [(rng.random(G.order) < 0.5).astype(float) for _ in range(2)]
                dec = cl.bohr_regularize(fs, F, G)
                assert dec.rounds <= len(fs) * F(1.0) ** 2
                for f, (I0, I1, I2) in zip(fs, dec.components):
                    resid = I0 + I1 + I2 - f
                    assert np.max(np.abs(resid)) <= 1e-12

        for seed in range(4):
            rng = np.random.default_rng(100 + seed)
            G = cl.parse_group_spec("Z16")
            M = (rng.random((16, 16)) < 0.5).astype(float)
            res = cl.weak_regularity([M], 0.25, G)
            assert res.certified  # exact enumerator ran at this size
            assert res.residuals[0] <= 0.25


def test_c10_partition_bridge():
    with criterion("partitioned boxes: fiber means honest, box value dominates"):
        G = cl.parse_group_spec("Z6")
        n = 6
        outer = cl.BohrPartition(G, [G.characters()[1]], Fraction(1, 2))
        inner = cl.BohrPartition(G, [G.characters()[1]], Fraction(1, 6))
        outer_parts = [idx for _, idx in outer.parts()]
        assert [len(p) for p in outer_parts] == [3, 3]

        for seed in range(5):
            A = cl.PlaneSet.random(G, 0.5, seed)
            bits = A.bits
            for B in outer_parts:
                for C in outer_parts:
                    for D in outer_parts:
                        # direct enumeration over the hyperplane x + y + z = 0
                        pos_b = {int(v): i for i, v in enumerate(B)}
                        pos_c = {int(v): j for j, v in enumerate(C)}
                        pos_d = {int(v): k for k, v in enumerate(D)}
                        cells = np.zeros((len(B), len(C), len(D)))
                        plane_pts = 0
                        set_pts = 0
                        for x in map(int, B):
                            for y in map(int, C):
                                z = (-x - y) % n
                                if z not in pos_d:
                                    continue
                                plane_pts += 1
                                if bits[x, y]:
                                    set_pts += 1
                                    cells[pos_b[x], pos_c[y], pos_d[z]] += 1
                        if plane_pts == 0:
                            continue
                        inst = cl.BoxInstance(
                            delta_x=np.full(len(B), 1 / len(B)),
                            delta_y=np.full(len(C), 1 / len(C)),
                            delta_z=np.full(len(D), 1 / len(D)),
                            cell_masses=cells / n**2,
                            hyperplane_mass=plane_pts / n**2,
                            eps=0.25,
                            m=3,
                        )
                        raw, phi = cl.phi_from_partition(inst)
                        w = np.einsum(
                            "i,j,k->ijk", inst.delta_x, inst.delta_y, inst.delta_z
                        )
                        mean_raw = float(np.sum(w * raw))
                        assert abs(mean_raw - set_pts / plane_pts) <= 1e-12
                        tv = cl.T_of_box(inst)
                        assert cl.evaluate_T(phi) <= tv + 1e-12


def test_c11_integer_scan_oracle():
    with criterion("integer grid scan: equals brute force, no wraparound"):
        rng = np.random.default_rng(9)
        rho = Fraction(1, 4)
        for n in (8, 12, 20, 30):
            for density in (0.3, 0.4):
                bits = rng.random((n, n)) < density
                fast = cl.integer_corner_scan(bits, rho=rho)
                slow = cl.integer_corner_scan_naive(bits, rho=rho)
                assert fast.profile == slow.profile, n
                assert (fast.difference, fast.count) == (slow.difference, slow.count)
                for d in fast.profile:
                    assert Fraction(abs(d), n) < rho
        # corners that only close modulo n must not be counted
        n = 24
        bits = np.zeros((n, n), dtype=bool)
        for r, c in ((21, 21), (21, 2), (2, 21)):
            bits[r, c] = True
        assert cl.integer_corner_scan(bits).profile[5] == 0


def test_c12_popular_difference_statistical():
    with criterion("popular difference: seeded density-0.3 sets beat 0.8 a^3 N^2"):
        # fixed seeds: 11, 23, 47
        G = cl.parse_group_spec("Z101")
        threshold = 0.8 * 0.3**3 * 101**2
        for seed in (11, 23, 47):
            A = cl.PlaneSet.random(G, 0.3, seed)
            _, count = cl.popular_difference(A)
            assert count >= threshold, (seed, count, threshold)


def test_c13_cli_determinism(capsys, tmp_path):
    with criterion("command line: byte-identical across reruns"):
        commands = [
            ("scan", "--group", "Z12", "--density", "0.35", "--seed", "6"),
            ("popular", "--group", "Z12", "--density", "0.35", "--seed", "6"),
            ("zscan", "--group", "Z24", "--density", "0.4", "--seed", "2"),
            ("variational", "--density", "0.2,0.5", "--grid-n", "3",
             "--restarts", "2", "--seed", "1"),
            ("envelope", "--density", "0,0.5,1", "--grid-n", "3",
             "--restarts", "2", "--seed", "1"),
            ("regularize", "--group", "Z16", "--density", "0.5", "--seed", "4"),
            ("pipeline", "--group", "Z6", "--density", "0.5", "--seed", "1",
             "--restarts", "4"),
        ]
        for cmd in commands:
            outputs = []
            for _ in range(2):
                code = cli_main(list(cmd))
                captured = capsys.readouterr()
                assert code == 0, (cmd, captured.err)
                outputs.append(captured.out)
            assert len(set(outputs)) == 1, cmd[0]
