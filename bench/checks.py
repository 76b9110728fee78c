"""Output checks for benchmark ops, independent of cornerlab's own arithmetic.

Every check takes the text a command wrote (or the value a library call
returned) plus the inputs the benchmark generated, and raises CheckFailed on
the first disagreement.  Group elements are handled with plain numpy
mixed-radix arithmetic (last coordinate fastest), not with cornerlab's
translate_permutation.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

# m_hat must lie in [alpha^4, alpha^3]; the slack only absorbs float rounding
# and the solver's 1e-10 feasibility tolerance on the mean.
BRACKET_TOL = 1e-9
ROUTE_TOL = 1e-9


class CheckFailed(Exception):
    pass


def random_bits(n: int, density: float, seed: int) -> np.ndarray:
    """Bernoulli(density) cells from numpy's default PCG64 stream.

    This is the rule the CLI documents for --group/--density/--seed inputs,
    so the checker knows the set the program was asked to build.
    """
    return np.random.default_rng(seed).random((n, n)) < density


def coords(moduli: tuple[int, ...]) -> np.ndarray:
    n = math.prod(moduli)
    return np.stack(np.unravel_index(np.arange(n), moduli), axis=1)


def translate(moduli: tuple[int, ...], d: int) -> np.ndarray:
    """Index of element(i) + element(d) for every i."""
    c = coords(moduli)
    shifted = (c + c[d]) % np.asarray(moduli)
    return np.ravel_multi_index(tuple(shifted.T), moduli)


def corner_count(bits: np.ndarray, moduli: tuple[int, ...], d: int) -> int:
    """N(d) = #{(x, y): A(x, y), A(x, y + d), A(x + d, y)}."""
    t = translate(moduli, d)
    return int((bits & bits[:, t] & bits[t, :]).sum())


def data_lines(text: str) -> list[str]:
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


def _summary(text: str) -> dict[str, str]:
    for ln in text.splitlines():
        if ln.startswith("# summary "):
            return dict(kv.split("=", 1) for kv in ln[len("# summary "):].split())
    raise CheckFailed("no summary line")


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _element_repr(c: np.ndarray) -> str:
    return ":".join(str(int(v)) for v in c)


def check_alpha(reported: str, bits: np.ndarray) -> None:
    _expect(float(reported) == bits.sum() / bits.size, f"alpha {reported} is not the set density")


def sample_differences(n: int, rng: np.random.Generator, k: int = 8, every_below: int = 128) -> list[int]:
    """Every difference of a small group, else 0 and k seeded others."""
    if n <= every_below:
        return list(range(n))
    return [0] + sorted(int(d) for d in rng.choice(np.arange(1, n), size=k, replace=False))


def check_profile(text: str, bits: np.ndarray, moduli: tuple[int, ...], rng) -> np.ndarray:
    """A scan output: every row well formed, sampled N(d) exact, summary consistent."""
    n = math.prod(moduli)
    rows = data_lines(text)
    _expect(rows[:1] == ["d_index,d_repr,count"], "missing profile header")
    _expect(len(rows) == n + 1, f"expected {n} profile rows, got {len(rows) - 1}")
    c = coords(moduli)
    counts = np.empty(n, dtype=np.int64)
    for i, row in enumerate(rows[1:]):
        idx, rep, count = row.split(",")
        _expect(int(idx) == i and rep == _element_repr(c[i]), f"row {i} reads {row!r}")
        counts[i] = int(count)
    for d in sample_differences(n, rng):
        want = corner_count(bits, moduli, d)
        _expect(counts[d] == want, f"N({d}) = {counts[d]}, expected {want}")
    s = _summary(text)
    check_alpha(s["alpha"], bits)
    best = int(np.argmax(counts[1:])) + 1
    _expect(int(s["d_star_index"]) == best, f"d_star {s['d_star_index']} is not argmax {best}")
    _expect(int(s["count"]) == counts[best], "summary count is not N(d_star)")
    return counts


def check_popular(text: str, bits: np.ndarray, moduli: tuple[int, ...], rng) -> None:
    """A popular output: N(d_star) exact and no sampled difference beats it."""
    n = math.prod(moduli)
    kv = dict(ln.split("=", 1) for ln in data_lines(text))
    check_alpha(kv["alpha"], bits)
    d_star, count = int(kv["d_star_index"]), int(kv["count"])
    _expect(1 <= d_star < n, f"d_star index {d_star} out of range")
    _expect(kv["d_star"] == _element_repr(coords(moduli)[d_star]), "d_star repr mismatch")
    _expect(corner_count(bits, moduli, d_star) == count, f"N(d_star) is not {count}")
    for d in sample_differences(n, rng)[1:]:
        other = corner_count(bits, moduli, d)
        _expect(other < count or (other == count and d >= d_star),
                f"difference {d} has {other} corners, beating d_star")


def zscan_expected(bits: np.ndarray, rho: Fraction) -> tuple[dict[int, int], int, int]:
    """Valid (non-wrapping) corner counts for every signed d with |d|/n < rho."""
    n = bits.shape[0]
    signed = [d if 2 * d <= n else d - n for d in range(1, n)]
    cands = [d for d in signed if Fraction(abs(d), n) < rho]
    profile = {}
    for d in cands:
        lo, hi = max(0, -d), n - max(0, d)
        r, s = slice(lo, hi), slice(lo + d, hi + d)
        profile[d] = int((bits[r, r] & bits[r, s] & bits[s, r]).sum())
    best_d, best = 0, 0
    if cands:
        best_d = max(cands, key=lambda d: (profile[d], -cands.index(d)))
        best = profile[best_d]
    return profile, best_d, best


def check_zscan(text: str, expected: tuple[dict[int, int], int, int]) -> None:
    """A zscan output against (profile, best difference, best count)."""
    profile, best_d, best = expected
    rows = data_lines(text)
    _expect(rows[:1] == ["d,count"], "missing zscan header")
    got = {int(d): int(c) for d, c in (row.split(",") for row in rows[1:])}
    _expect(got == profile, "zscan profile differs from the direct count")
    s = _summary(text)
    _expect((int(s["best_d"]), int(s["count"])) == (best_d, best),
            f"zscan best {s['best_d']}:{s['count']}, expected {best_d}:{best}")
    _expect(int(s["candidates"]) == len(profile), "zscan candidate count differs")


def check_mhat(alpha: float, m_hat: float) -> None:
    _expect(alpha**4 - BRACKET_TOL <= m_hat <= alpha**3 + BRACKET_TOL,
            f"m_hat {m_hat!r} outside [alpha^4, alpha^3] at alpha={alpha!r}")


def check_variational(text: str, alphas: list[float]) -> list[tuple[float, float]]:
    """Rows bracketed; returns (alpha, m_hat) per row."""
    rows = data_lines(text)
    _expect(rows[:1] == ["alpha,m_hat,envelope,alpha3,alpha4,n,restarts,seed"], "bad header")
    out = []
    for row in rows[1:]:
        a, m = (float(v) for v in row.split(",")[:2])
        check_mhat(a, m)
        out.append((a, m))
    _expect([a for a, _ in out] == alphas, "variational rows do not match the densities asked for")
    return out


def check_convex(xs: list[float], ys: list[float]) -> None:
    _expect(all(b > a for a, b in zip(xs, xs[1:])), "envelope knots are not increasing")
    for i in range(len(xs) - 2):
        turn = (xs[i + 1] - xs[i]) * (ys[i + 2] - ys[i]) - (ys[i + 1] - ys[i]) * (xs[i + 2] - xs[i])
        _expect(turn >= -1e-12, f"envelope turns concave at knot {i + 1}")


def check_envelope(text: str, alphas: list[float]) -> None:
    rows = data_lines(text)
    _expect(rows[:1] == ["alpha,envelope"], "bad envelope header")
    knots = [tuple(float(v) for v in row.split(",")) for row in rows[1:]]
    _expect(len(knots) >= 1, "envelope has no knots")
    xs, ys = [k[0] for k in knots], [k[1] for k in knots]
    _expect(set(xs) <= set(alphas), "envelope knot at a density that was not sampled")
    for a, v in knots:
        check_mhat(a, v)
    check_convex(xs, ys)


def parse_report(text: str) -> dict:
    try:
        report = json.loads("\n".join(ln for ln in text.splitlines() if not ln.startswith("#")))
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"report is not JSON: {exc}")
    _expect(isinstance(report, dict), "report is not a JSON object")
    return report


def check_residuals(report: dict, order: int) -> list[bool]:
    """Cut-norm residuals well formed; one certified flag per residual."""
    _expect(report.get("order") == order, "report order differs from the input group")
    cuts = report["f2_cut_estimates"]
    _expect(len(cuts) == 3 and all(0.0 <= v <= 1.0 for v in cuts), f"bad cut residuals {cuts}")
    _expect(isinstance(report["cut_certified"], bool), "cut_certified is not a boolean")
    return [report["cut_certified"]] * len(cuts)


def check_pipeline(report: dict, bits: np.ndarray, routes_agree: bool) -> None:
    _expect(report["density"] == bits.sum() / bits.size, "pipeline density is not the set density")
    counts = (report["weighted_count"], report["box_sum"], report["box_model"])
    _expect(all(math.isfinite(v) for v in counts), "pipeline counts are not finite")
    if routes_agree:
        spread = max(counts) - min(counts)
        _expect(spread <= ROUTE_TOL, f"the three routes differ by {spread:.3e}")


def check_fraction(fr: Fraction) -> None:
    _expect(isinstance(fr, Fraction) and 0 <= fr <= 1, f"not a fraction in [0, 1]: {fr!r}")


def bohr_mask(moduli: tuple[int, ...], freqs: list[tuple[int, ...]], rho: Fraction) -> np.ndarray:
    """Elements whose every frequency value lies strictly within rho of 0 on the torus."""
    L = math.lcm(*moduli)
    c = coords(moduli)
    mask = np.ones(len(c), dtype=bool)
    for a in freqs:
        r = (c @ np.asarray([ai * (L // m) for ai, m in zip(a, moduli)])) % L
        mask &= np.minimum(r, L - r) * rho.denominator < rho.numerator * L
    return mask


def check_boxes(decomp, moduli, freqs, rho: Fraction, z0: int) -> None:
    """Boxes are disjoint, inside {(x, y): x + y + z0 in B}, and the measures add up."""
    n = math.prod(moduli)
    c = coords(moduli)
    total = (c[:, None, :] + c[None, :, :] + c[z0]) % np.asarray(moduli)
    inside = bohr_mask(moduli, freqs, rho)[np.ravel_multi_index(tuple(np.moveaxis(total, -1, 0)), moduli)]
    covered = np.zeros((n, n), dtype=np.int64)
    for rows, cols in decomp.boxes:
        covered[np.ix_(rows, cols)] += 1
    _expect(covered.max(initial=0) <= 1, "boxes overlap")
    _expect(not covered[~inside].any(), "a box leaves the planar Bohr set")
    _expect(abs(decomp.target_measure - inside.mean()) <= 1e-12, "target measure is off")
    residual = (inside.sum() - covered.sum()) / n**2
    _expect(abs(decomp.residual_measure - residual) <= 1e-12, "residual measure is off")
