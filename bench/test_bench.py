"""Self-tests of the benchmark's checkers and helpers.

    python3 -m pytest -q bench
"""
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from cornerlab import cli, corners, groups  # noqa: E402


def scan_text(tmp_path, moduli, density, seed):
    out = tmp_path / "scan.txt"
    spec = "x".join(f"Z{m}" for m in moduli)
    assert cli.main(["scan", "--group", spec, "--density", str(density), "--seed", str(seed),
                     "--out", str(out)]) == 0
    return out.read_text()


@pytest.mark.parametrize("moduli", [(9,), (2, 4)])
def test_profile_check_accepts_the_program_and_rejects_one_count_off(tmp_path, moduli):
    text = scan_text(tmp_path, moduli, 0.5, 3)
    bits = checks.random_bits(int(np.prod(moduli)), 0.5, 3)
    checks.check_profile(text, bits, moduli, np.random.default_rng(0))
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line[:1].isdigit():
            idx, rep, count = line.split(",")
            bad = lines[:i] + [f"{idx},{rep},{int(count) + 1}"] + lines[i + 1:]
            with pytest.raises(checks.CheckFailed):
                checks.check_profile("\n".join(bad), bits, moduli, np.random.default_rng(0))


def test_own_corner_count_matches_the_oracle():
    moduli = (2, 6)
    bits = checks.random_bits(12, 0.4, 5)
    want = corners.corner_count_naive(corners.PlaneSet(groups.GroupSpec(moduli), bits)).counts
    assert [checks.corner_count(bits, moduli, d) for d in range(12)] == list(want)


def variational_text(alpha, m_hat):
    return ("# cornerlab variational\nalpha,m_hat,envelope,alpha3,alpha4,n,restarts,seed\n"
            f"{alpha!r},{m_hat!r},{m_hat!r},{alpha**3!r},{alpha**4!r},6,8,0\n")


def test_mhat_check_rejects_values_outside_the_bracket():
    a = 0.4
    assert checks.check_variational(variational_text(a, 0.9 * a**3), [a]) == [(a, 0.9 * a**3)]
    for bad in (a**3 + 1e-6, a**4 - 1e-6):
        with pytest.raises(checks.CheckFailed):
            checks.check_variational(variational_text(a, bad), [a])


def test_envelope_check_rejects_a_concave_knot():
    checks.check_convex([0.2, 0.5, 0.8], [0.001, 0.1, 0.4])
    with pytest.raises(checks.CheckFailed):
        checks.check_convex([0.2, 0.5, 0.8], [0.001, 0.3, 0.4])


@pytest.mark.parametrize(
    "n, expected",
    [(5, (100, 5.0)), (11, (9, 1.0)), (20, (50, 10.0)), (40, (75, 30.0)), (100, (90, 90.0))],
)
def test_tail_latency_is_the_highest_percentile_with_ten_beyond(n, expected):
    values = [float(v) for v in range(n, 0, -1)]
    assert stats.tail_latency(values) == expected


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 0, "name": "cli", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "a", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "b", "parent": 0, "start": 3.0, "end": 6.0},  # overlaps a
        {"id": 3, "name": "c", "parent": 1, "start": 2.0, "end": 3.0},
        {"id": 4, "name": "d", "parent": 0, "start": 9.0, "end": 12.0},  # clipped at 10
    ]
    assert stats.self_times(spans) == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0}


def test_tracer_records_nested_spans_and_restores_every_name(tmp_path):
    before = (cli.corner_count_by_difference, groups.GroupSpec.__dict__["translate_permutation"],
              corners.PlaneSet.__dict__["random"])
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert cli.main(["scan", "--group", "Z6", "--density", "0.5",
                         "--out", str(tmp_path / "o.txt")]) == 0
    after = (cli.corner_count_by_difference, groups.GroupSpec.__dict__["translate_permutation"],
             corners.PlaneSet.__dict__["random"])
    assert after == before
    metrics = tracing.layer_metrics(tracer.spans, rounds=1)
    assert metrics["corners.profile_triples"] == 6**3
    assert metrics["groups.translate_perm_calls"] == 6
    by_id = {s["id"]: s for s in tracer.spans}

    def ancestors(span):
        while span["parent"] is not None:
            span = by_id[span["parent"]]
            yield span["name"]

    perms = [s for s in tracer.spans if s["name"] == "groups.translate_perm"]
    assert all(list(ancestors(s)) == ["parallel.map", "corners.profile"] for s in perms)
