"""The scripts under tools/ run against the sources in src/."""

import importlib.util
import shutil
from pathlib import Path

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


def test_profile_ab_refuses_trees_whose_counts_differ(tmp_path, capsys):
    # a copy of the sources whose profile adds one corner at the last d
    shutil.copytree(ROOT / "src" / "cornerlab", tmp_path / "src" / "cornerlab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "cornerlab" / "corners.py", "a") as fh:
        fh.write(
            "\n_exact = corner_count_by_difference\n\n\n"
            "def corner_count_by_difference(A):\n"
            "    counts = _exact(A).counts.copy()\n"
            "    counts[-1] += 1\n"
            "    return CornerProfile(A.group, counts)\n"
        )
    status = _profile_ab().main([str(ROOT), str(tmp_path), "Z6", "--rounds", "1", "--repeats", "1"])
    assert status == 1
    assert capsys.readouterr().out.splitlines()[1].split() == ["Z6", "counts", "differ"]
