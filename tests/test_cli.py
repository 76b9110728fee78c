"""End-to-end checks of the command-line surface.

Commands run in-process through main(argv) so stdout bytes can be captured
and compared; one subprocess test confirms the installed entry point.
"""

import ast
import inspect
import json
import string
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cornerlab
from cornerlab import (
    PlaneSet,
    ValidationError,
    corner_count_by_difference,
    integer_corner_scan,
    minimize_T,
    parse_group_spec,
    popular_difference,
)
from cornerlab import cli, regularity
from cornerlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_lines(text):
    return [ln for ln in text.splitlines() if not ln.startswith("#")]


def strip_comments(text):
    return "\n".join(data_lines(text))


# ------------------------------------------------------------------ commands


def test_scan_matches_library_profile(capsys):
    code, out, err = run_cli(capsys, "scan", "--group", "Z8", "--density", "0.4", "--seed", "3")
    assert code == 0 and err == ""
    assert out.startswith("# cornerlab scan\n")
    rows = data_lines(out)
    assert rows[0] == "d_index,d_repr,count"
    A = PlaneSet.random(parse_group_spec("Z8"), 0.4, 3)
    prof = corner_count_by_difference(A)
    body = rows[1:]
    assert len(body) == 8
    for line, expected in zip(body, prof.counts):
        d_index, d_repr, count = line.split(",")
        assert int(count) == int(expected)
    summary = [ln for ln in out.splitlines() if ln.startswith("# summary ")]
    assert len(summary) == 1
    assert f"alpha={A.density!r}" in summary[0]


@pytest.mark.parametrize("spec", ["Z2xZ3xZ4", "Z1xZ5"])
def test_scan_rows_format_each_element(capsys, spec):
    code, out, _ = run_cli(capsys, "scan", "--group", spec, "--density", "0.5", "--seed", "4")
    assert code == 0
    G = parse_group_spec(spec)
    counts = corner_count_by_difference(PlaneSet.random(G, 0.5, 4)).counts
    expected = [
        f"{d},{':'.join(str(c) for c in G.element(d).coords)},{int(counts[d])}"
        for d in range(G.order)
    ]
    assert data_lines(out)[1:] == expected


def test_popular_matches_library(capsys):
    code, out, err = run_cli(capsys, "popular", "--group", "Z8", "--density", "0.4", "--seed", "3")
    assert code == 0
    A = PlaneSet.random(parse_group_spec("Z8"), 0.4, 3)
    d, count = popular_difference(A)
    fields = dict(ln.split("=", 1) for ln in data_lines(out))
    assert int(fields["d_star_index"]) == d.index
    assert int(fields["count"]) == count


def test_zscan_matches_library(capsys):
    code, out, err = run_cli(capsys, "zscan", "--group", "Z24", "--density", "0.4", "--seed", "2")
    assert code == 0
    A = PlaneSet.random(parse_group_spec("Z24"), 0.4, 2)
    scan = integer_corner_scan(A.bits)
    rows = data_lines(out)
    assert rows[0] == "d,count"
    parsed = {int(d): int(c) for d, c in (r.split(",") for r in rows[1:])}
    assert parsed == scan.profile
    ds = sorted(parsed)
    assert ds == list(parsed)  # emitted in ascending signed order


def test_zscan_runs_above_the_old_512_cap(capsys):
    code, out, err = run_cli(capsys, "zscan", "--group", "Z1024", "--density", "0.3", "--seed", "5")
    assert code == 0
    A = PlaneSet.random(parse_group_spec("Z1024"), 0.3, 5)
    scan = integer_corner_scan(A.bits)
    rows = data_lines(out)
    parsed = {int(d): int(c) for d, c in (r.split(",") for r in rows[1:])}
    assert parsed == scan.profile
    assert f"# summary best_d={scan.difference} count={scan.count}" in out


def test_zscan_takes_a_radius_with_a_huge_denominator(capsys):
    code, out, err = run_cli(capsys, "zscan", "--group", "Z64", "--density", "0.5",
                             "--rho", f"1/{10**23}")
    assert code == 0 and err == ""
    assert out.endswith("# summary best_d=0 count=0 candidates=0\n")


def test_zscan_needs_rank_one_group(capsys):
    code, out, err = run_cli(capsys, "zscan", "--group", "Z2xZ3", "--density", "0.4")
    assert code == 2
    assert "cornerlab:" in err


_PINNED = {
    ("scan", "Z2xZ3", "1"): """\
# cornerlab scan
# group=Z2xZ3
# density=0.5
# seed=1
d_index,d_repr,count
0,0:0,17
1,0:1,4
2,0:2,4
3,1:0,1
4,1:1,4
5,1:2,4
# summary alpha=0.4722222222222222 d_star_index=1 d_star=0:1 count=4 alpha3_bound=3.7908950617283947
""",
    ("popular", "Z2xZ3", "1"): """\
# cornerlab popular
# group=Z2xZ3
# density=0.5
# seed=1
alpha=0.4722222222222222
d_star_index=1
d_star=0:1
count=4
alpha3_bound=3.7908950617283947
""",
    ("zscan", "Z12", "2"): """\
# cornerlab zscan
# group=Z12
# density=0.5
# seed=2
# rho=1/4
d,count
-2,8
-1,16
1,14
2,9
# summary best_d=-1 count=16 candidates=4
""",
}


@pytest.mark.parametrize("command, group, seed", list(_PINNED))
def test_whole_output_is_pinned(capsys, command, group, seed):
    # counts and pure-Python float arithmetic only: no BLAS summation order
    flags = ["--group", group, "--density", "0.5", "--seed", seed]
    code, out, err = run_cli(capsys, command, *flags)
    assert (code, out, err) == (0, _PINNED[command, group, seed], "")
    # flags may also come before the command
    assert run_cli(capsys, *flags, command) == (0, out, "")


def test_variational_rows_match_library(capsys):
    code, out, err = run_cli(
        capsys, "variational", "--density", "0.2,0.5", "--grid-n", "3",
        "--restarts", "2", "--seed", "1",
    )
    assert code == 0
    rows = data_lines(out)
    assert rows[0] == "alpha,m_hat,envelope,alpha3,alpha4,n,restarts,seed"
    assert len(rows) == 3
    for i, row in enumerate(rows[1:]):
        cols = row.split(",")
        alpha = float(cols[0])
        expected = minimize_T(alpha, 3, restarts=2, seed=1 + i)
        assert float(cols[1]) == expected.value
        assert int(cols[7]) == 1 + i


def test_variational_single_sample_reports_itself_as_envelope(capsys):
    code, out, err = run_cli(
        capsys, "variational", "--density", "0.3", "--grid-n", "3", "--restarts", "2",
        "--seed", "5",
    )
    value = minimize_T(0.3, 3, restarts=2, seed=5).value
    assert (code, err) == (0, "")
    assert out == (
        "# cornerlab variational\n# density=0.3\n# grid_n=3\n# restarts=2\n# seed=5\n"
        "alpha,m_hat,envelope,alpha3,alpha4,n,restarts,seed\n"
        f"0.3,{value!r},{value!r},{0.3**3!r},{0.3**4!r},3,2,5\n"
    )


def test_envelope_emits_hull_knots(capsys):
    code, out, _ = run_cli(
        capsys, "envelope", "--density", "0,0.5,1", "--grid-n", "3", "--restarts", "2",
    )
    assert code == 0
    rows = data_lines(out)
    assert rows[0] == "alpha,envelope"
    knots = [tuple(map(float, r.split(","))) for r in rows[1:]]
    assert knots[0][0] == 0.0 and knots[-1][0] == 1.0
    slopes = [
        (b[1] - a[1]) / (b[0] - a[0]) for a, b in zip(knots, knots[1:])
    ]
    assert all(s2 >= s1 - 1e-12 for s1, s2 in zip(slopes, slopes[1:]))


def test_regularize_emits_json_report(capsys):
    code, out, _ = run_cli(
        capsys, "regularize", "--group", "Z16", "--density", "0.5", "--seed", "4",
    )
    assert code == 0
    report = json.loads(strip_comments(out))
    assert report["group"] == "Z16"
    assert report["rounds"] >= 0
    assert "bohr" in report and "f2_cut_estimates" in report
    assert isinstance(report["round_records"], list)


def test_pipeline_emits_json_report(capsys):
    code, out, _ = run_cli(
        capsys, "pipeline", "--group", "Z6", "--density", "0.5", "--seed", "1",
        "--restarts", "4",
    )
    assert code == 0
    report = json.loads(strip_comments(out))
    for key in ("weighted_count", "box_sum", "box_model", "gaps", "nu"):
        assert key in report


@pytest.mark.parametrize("command, target", [
    ("regularize", "double_regularity"), ("pipeline", "pipeline_lower_bound"),
])
def test_report_commands_pass_restarts_through(capsys, monkeypatch, command, target):
    import cornerlab.cli as cli

    seen = []
    real = getattr(cli, target)

    def spy(*args, **kwargs):
        seen.append(kwargs["restarts"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, target, spy)
    code, out, _ = run_cli(capsys, command, "--group", "Z32", "--density", "0.5", "--restarts", "1")
    assert code == 0 and seen == [1]
    assert "# restarts=1\n" in out
    run_cli(capsys, command, "--group", "Z32", "--density", "0.5")
    assert seen == [1, 32]


@pytest.mark.parametrize("command", ["regularize", "pipeline"])
def test_set_file_report_headers_name_their_seed(capsys, tmp_path, command):
    # above order 16 the seed drives the cut-norm ascents, so it shapes the report
    path = tmp_path / "set.txt"
    PlaneSet.random(parse_group_spec("Z32"), 0.5, 7).save(path)
    headers = []
    for seed in ("1", "2"):
        code, out, err = run_cli(capsys, command, "--set-file", str(path), "--seed", seed,
                                 "--restarts", "2")
        assert (code, err) == (0, "")
        header = [ln for ln in out.splitlines() if ln.startswith("# ")]
        assert header == [
            f"# cornerlab {command}", "# group=Z32", f"# set_file={path}", "# eps=0.25",
            "# growth=poly:2.0,1.0", f"# seed={seed}", "# restarts=2",
        ]
        headers.append(header)
    assert headers[0] != headers[1]


def test_flags_a_command_does_not_read_are_ignored_and_left_out(capsys):
    flags = ["--group", "Z8", "--density", "0.5", "--seed", "3"]
    unread = ["--rho", "junk", "--eps", "junk", "--growth", "junk", "--grid-n", "x",
              "--restarts", "y"]
    code, out, err = run_cli(capsys, "scan", *flags, *unread)
    assert (code, err) == (0, "")
    assert run_cli(capsys, "scan", *flags) == (0, out, "")
    assert out.startswith("# cornerlab scan\n# group=Z8\n# density=0.5\n# seed=3\nd_index,")


def test_top_level_help_lists_commands_flags_and_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # argparse wraps long help lines
    for name, (_, description) in cli._COMMANDS.items():
        assert f"{name} {description}" in text
    for key in cli._KNOWN_KEYS:
        assert f"--{key.replace('_', '-')} " in text
    for key, default in cli._DEFAULTS.items():
        assert f"(default {default})" in text


# ------------------------------------------------------------ configuration


def test_config_file_supplies_defaults_and_flags_win(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("group = Z8\ndensity = 0.4\nseed = 3\n")
    _, from_cfg, _ = run_cli(capsys, "scan", "--config", str(cfg))
    _, from_flags, _ = run_cli(capsys, "scan", "--group", "Z8", "--density", "0.4", "--seed", "3")
    assert from_cfg == from_flags
    # a flag overrides the same key from the file
    _, overridden, _ = run_cli(capsys, "scan", "--config", str(cfg), "--seed", "9")
    assert "# seed=9" in overridden
    assert overridden != from_cfg


def test_config_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("group = Z8\nwibble = 3\n")
    code, _, err = run_cli(capsys, "scan", "--config", str(cfg))
    assert code == 2
    assert "wibble" in err


_CONFIG_VALUE = st.text(string.ascii_letters + string.digits + " .,:/=#+-_", max_size=12).map(str.strip)


def _read_text_config(text: str) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text(text)
        return cli._read_config_file(str(path))


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(st.sampled_from(cli._KNOWN_KEYS), _CONFIG_VALUE),
    st.data(),
)
def test_config_file_reads_back_what_was_written(entries, data):
    lines = []
    for key, value in entries.items():
        lines += data.draw(st.lists(st.sampled_from(["", "   ", "# note", "  # k = v"]), max_size=2))
        if data.draw(st.booleans()):
            key = key.replace("_", "-")
        pad = data.draw(st.sampled_from(["", " ", "\t", "  "]))
        lines.append(f"{pad}{key}{pad}={pad}{value}{pad}")
    assert _read_text_config("\n".join(lines) + "\n") == entries


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from(cli._KNOWN_KEYS),
    st.one_of(
        st.text(string.ascii_letters + " -_", min_size=1, max_size=10).filter(
            lambda t: t.strip() and not t.strip().startswith("#")
        ),
        st.sampled_from(["wibble = 3", "threads = 2", "mode=exact", "seed_ = 1"]),
    ),
)
def test_config_file_rejects_bad_lines(key, bad):
    with pytest.raises(ValidationError):
        _read_text_config(f"{key} = 1\n{bad}\n")


def test_config_line_without_equals_exits_2(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("group = Z8\ndensity 0.4\n")
    code, _, err = run_cli(capsys, "scan", "--config", str(cfg))
    assert code == 2
    assert "expected key=value" in err


def test_missing_set_file_is_a_clean_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "scan", "--set-file", str(tmp_path / "absent.txt"))
    assert code == 2
    assert "cornerlab:" in err


@pytest.mark.parametrize(
    "flag, content",
    [
        ("--set-file", b"group Z2 density abc\n10\n01\n"),
        ("--set-file", b"group Z2 density nan\n10\n01\n"),
        ("--set-file", b"group Z2 density 0.5\n1\xc3\xa9\n01\n"),
        ("--config", b"seed = 1\n# caf\xe9\n"),
    ],
    ids=["set-file-density-not-a-number", "set-file-density-nan", "set-file-not-ascii",
         "config-not-utf8"],
)
def test_unreadable_input_file_exits_2(capsys, tmp_path, flag, content):
    path = tmp_path / "input.txt"
    path.write_bytes(content)
    code, _, err = run_cli(capsys, "scan", flag, str(path))
    assert code == 2
    assert err.startswith("cornerlab: invalid input:")


def test_set_file_group_mismatch(capsys, tmp_path):
    A = PlaneSet.random(parse_group_spec("Z8"), 0.4, 1)
    path = tmp_path / "set.txt"
    A.save(path)
    code, _, err = run_cli(capsys, "scan", "--set-file", str(path), "--group", "Z9")
    assert code == 2
    _, out, _ = run_cli(capsys, "scan", "--set-file", str(path), "--group", "Z8")
    assert "d_index,d_repr,count" in out


def test_group_cap_maps_to_exit_three(capsys):
    code, _, err = run_cli(capsys, "scan", "--group", "Z99999", "--density", "0.5")
    assert code == 3
    assert "cornerlab:" in err


def test_bad_flag_value_maps_to_exit_two(capsys):
    code, _, err = run_cli(capsys, "scan", "--group", "Z8", "--density", "oops")
    assert code == 2


def test_group_spec_past_the_integer_digit_limit_maps_to_exit_two(capsys):
    # int() refuses strings of more than 4300 digits with a plain ValueError;
    # without that limit the order is refused as above the largest group
    code, out, err = run_cli(capsys, "scan", "--group", "Z" + "9" * 5000, "--density", "0.5")
    assert (code, out) == (2, "")
    assert err.startswith("cornerlab: invalid input:")


def test_thread_flag_and_config_key_are_gone(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--group", "Z6", "--density", "0.5", "--threads", "2"])
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("threads=2\n")
    code, out, _ = run_cli(capsys, "scan", "--group", "Z6", "--density", "0.5",
                           "--config", str(cfg))
    assert code == 2 and out == ""


@pytest.mark.parametrize("command", ["scan", "variational", "regularize"])
def test_negative_seed_maps_to_exit_two(capsys, command):
    target = ("--density", "0.3") if command == "variational" else (
        "--group", "Z8", "--density", "0.5")
    code, out, err = run_cli(capsys, command, *target, "--seed", "-1")
    assert code == 2 and out == ""
    assert "seed" in err


@pytest.mark.parametrize("command", ["regularize", "pipeline"])
@pytest.mark.parametrize(
    "flag", [("--eps", "nan"), ("--eps", "inf"), ("--growth", "exp:nan")], ids="-".join
)
def test_non_finite_regularity_inputs_map_to_exit_two(capsys, monkeypatch, command, flag):
    def must_not_run(*args, **kwargs):
        pytest.fail("invalid inputs must be rejected before regularization starts")

    monkeypatch.setattr(regularity, "bohr_regularize", must_not_run)
    code, out, _ = run_cli(capsys, command, "--group", "Z6", "--density", "0.5", *flag)
    assert code == 2 and out == ""


@pytest.mark.parametrize("command", ["regularize", "pipeline"])
@pytest.mark.parametrize("restarts", ["0", "-3"])
def test_restarts_below_one_map_to_exit_two(capsys, monkeypatch, command, restarts):
    def must_not_run(*args, **kwargs):
        pytest.fail("restarts must be checked before regularization starts")

    monkeypatch.setattr(regularity, "bohr_regularize", must_not_run)
    code, out, err = run_cli(
        capsys, command, "--group", "Z32", "--density", "0.5", "--restarts", restarts
    )
    assert code == 2 and out == ""
    assert "restart" in err


@pytest.mark.parametrize("argv", [
    ("regularize", "--eps", "1e-170"),
    ("pipeline", "--eps", "1e-170"),
    ("regularize", "--growth", "poly:2,400"),
    ("pipeline", "--growth", "poly:2,400"),
    ("regularize", "--growth", "exp:1e300"),
    ("pipeline", "--growth", "exp:1e300"),
], ids=" ".join)
def test_round_bounds_saturate_instead_of_overflowing(capsys, argv):
    # 1/eps^2 and F(.)^2 pass the float range here; the bounds become inf
    code, out, err = run_cli(capsys, *argv, "--group", "Z16", "--density", "0.5")
    assert code == 0 and err == ""
    assert json.loads(strip_comments(out))["rounds"] <= 1


@pytest.mark.parametrize("command", ["regularize", "pipeline"])
def test_growth_overflow_at_the_part_count_exits_2_naming_the_growth(capsys, command):
    code, out, err = run_cli(capsys, command, "--group", "Z32", "--density", "0.5",
                             "--growth", "exp:1e300")
    assert code == 2 and out == ""
    assert "growth exp:1e+300 overflows at 32 parts" in err and "eps" not in err


@pytest.mark.parametrize("command, flags, cells", [
    ("variational", ("--grid-n", "3"), 7 * 27),
    ("variational", ("--grid-n", "3", "--restarts", "1"), 27),
    ("envelope", ("--grid-n", "3", "--restarts", "3"), 2 * 27),
])
def test_descent_stack_above_its_cap_exits_3(capsys, monkeypatch, command, flags, cells):
    from cornerlab import variational

    argv = (command, "--density", "0.3,0.5", *flags)
    monkeypatch.setattr(variational, "_DESCENT_CELLS_CAP", cells - 1)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert f"need {cells} cells" in err
    monkeypatch.setattr(variational, "_DESCENT_CELLS_CAP", cells)
    assert run_cli(capsys, *argv)[0] == 0


@pytest.mark.parametrize("command", ["regularize", "pipeline"])
def test_cut_ascent_above_its_cap_exits_3_before_regularizing(capsys, monkeypatch, command):
    cells = 2 * 5 * 32
    monkeypatch.setattr(regularity, "_ASCENT_CELLS_CAP", cells - 1)
    monkeypatch.setattr(
        regularity, "bohr_regularize", lambda *a, **k: pytest.fail("ran before the cap check")
    )
    argv = (command, "--group", "Z32", "--density", "0.5", "--restarts", "5")
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert f"need {cells} cells" in err
    monkeypatch.undo()
    monkeypatch.setattr(regularity, "_ASCENT_CELLS_CAP", cells)
    assert run_cli(capsys, *argv)[0] == 0


def test_regularize_checks_the_cap_before_building_views(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "hyperplane_views", lambda A: pytest.fail("views built before the cap check")
    )
    code, out, err = run_cli(capsys, "regularize", "--group", "Z256", "--density", "0.5")
    assert code == 3 and out == ""
    assert "cap" in err


def test_package_has_no_assert_invariants():
    # main maps BoundViolation, not AssertionError, to exit 4; bare asserts
    # would also vanish under python -O
    package = Path(cli.__file__).parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            raised = getattr(node, "exc", None)
            if isinstance(raised, ast.Call):
                raised = raised.func
            if isinstance(node, ast.Assert) or (
                isinstance(raised, ast.Name) and raised.id == "AssertionError"
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_public_signatures_have_no_size_or_sampling_knobs():
    # size caps are module constants checked at call time; the naive oracle
    # alone keeps a per-call cap
    banned = {"cap", "sample_size", "extra_freqs"}
    offenders = []
    for name, obj in vars(cornerlab).items():
        if name.startswith("_") or not callable(obj) or inspect.ismodule(obj):
            continue
        if inspect.isclass(obj) and issubclass(obj, BaseException):
            continue
        members = [(name, obj)]
        if inspect.isclass(obj):
            members += [
                (f"{name}.{attr}", getattr(obj, attr))
                for attr, raw in vars(obj).items()
                if not attr.startswith("_")
                and isinstance(raw, (types.FunctionType, classmethod, staticmethod))
            ]
        for label, fn in members:
            for param in inspect.signature(fn).parameters:
                if param in banned and label != "corner_count_naive":
                    offenders.append(f"{label}({param})")
    assert offenders == []
    assert "m" not in inspect.signature(cornerlab.bohr_regularize).parameters
    assert "t" not in inspect.signature(cornerlab.double_regularity).parameters
    assert "cap" in inspect.signature(cornerlab.corner_count_naive).parameters


# -------------------------------------------------------------- determinism


def test_scan_bytes_stable_across_reruns_and_threads(capsys):
    args = ("scan", "--group", "Z12", "--density", "0.35", "--seed", "6")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    assert "threads" not in first


@pytest.mark.parametrize(
    "args",
    [
        ("scan", "--group", "Z12", "--density", "0.35", "--seed", "6"),
        ("popular", "--group", "Z12", "--density", "0.35", "--seed", "6"),
        ("zscan", "--group", "Z24", "--density", "0.4", "--seed", "2"),
        ("variational", "--density", "0.3", "--grid-n", "3", "--restarts", "2"),
        ("envelope", "--density", "0.2,0.6", "--grid-n", "3", "--restarts", "2"),
        ("regularize", "--group", "Z8", "--density", "0.5", "--seed", "1"),
        ("pipeline", "--group", "Z6", "--density", "0.5", "--seed", "1", "--restarts", "4"),
    ],
    ids=lambda args: args[0],
)
def test_out_flag_writes_identical_bytes(capsys, tmp_path, args):
    target = tmp_path / "out.txt"
    code, piped, _ = run_cli(capsys, *args)
    code2, silent, _ = run_cli(capsys, *args, "--out", str(target))
    assert code == code2 == 0
    assert silent == ""
    assert target.read_text() == piped


def test_installed_entry_point():
    proc = subprocess.run(
        ["cornerlab", "popular", "--group", "Z6", "--density", "0.5", "--seed", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "d_star_index=" in proc.stdout
