"""The scripts under tools/ run against the sources in src/."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _profile_ab():
    spec = importlib.util.spec_from_file_location("profile_ab", ROOT / "tools" / "profile_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_profile_ab_times_one_tree_against_itself(capsys):
    # a smoke run of well under a second: Z6 and Z4xZ4, two rounds of two
    status = _profile_ab().main([str(ROOT), str(ROOT), "Z6", "Z4xZ4", "--rounds", "2", "--repeats", "2"])
    assert status == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split() == ["group", "parent", "ms", "change", "ms", "ratio"]
    assert [line.split()[0] for line in lines] == ["Z6", "Z4xZ4"]
    for line in lines:
        parent, change, ratio = map(float, line.split()[1:])
        assert parent > 0 and change > 0 and ratio > 0


def test_profile_ab_times_a_scan_of_one_tree_against_itself(capsys):
    # an item Zn@rho times integer_corner_scan on a grid of side n
    argv = [str(ROOT), str(ROOT), "Z70@1/4", "--rounds", "2", "--repeats", "2"]
    status = _profile_ab().main(argv)
    assert status == 0
    header, line = capsys.readouterr().out.splitlines()
    assert line.split()[0] == "Z70@1/4"
    parent, change, ratio = map(float, line.split()[1:])
    assert parent > 0 and change > 0 and ratio > 0


def test_profile_ab_refuses_a_scan_on_a_group_of_rank_two():
    with pytest.raises(SystemExit):
        _profile_ab().main([str(ROOT), str(ROOT), "Z4xZ4@1/4", "--rounds", "1", "--repeats", "1"])


def test_profile_ab_refuses_trees_whose_counts_differ(tmp_path, capsys):
    # a copy of the sources whose profile adds one corner at the last d, and
    # whose scan one at the last candidate
    shutil.copytree(ROOT / "src" / "cornerlab", tmp_path / "src" / "cornerlab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "cornerlab" / "corners.py", "a") as fh:
        fh.write(
            "\n_exact = corner_count_by_difference\n\n\n"
            "def corner_count_by_difference(A):\n"
            "    counts = _exact(A).counts.copy()\n"
            "    counts[-1] += 1\n"
            "    return CornerProfile(A.group, counts)\n"
            "\n\n_scan = integer_corner_scan\n\n\n"
            "def integer_corner_scan(bits, rho):\n"
            "    scan = _scan(bits, rho)\n"
            "    scan.profile[-1] += 1\n"
            "    return scan\n"
        )
    argv = [str(ROOT), str(tmp_path), "Z6", "Z70@1/4", "--rounds", "1", "--repeats", "1"]
    status = _profile_ab().main(argv)
    assert status == 1
    lines = capsys.readouterr().out.splitlines()[1:]
    assert [line.split() for line in lines] == [
        ["Z6", "counts", "differ"], ["Z70@1/4", "counts", "differ"]
    ]
