"""Checks on the package source itself."""

import ast
from pathlib import Path

import numpy as np

import cornerlab


def test_no_bare_assert_in_the_package():
    # python -O strips assert statements, so a runtime invariant written as
    # one would vanish; invariants raise errors from cornerlab.errors instead
    files = sorted(Path(cornerlab.__file__).parent.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def _is_direct_raise(node, names=("CapExceededError", "GroupMismatchError")) -> bool:
    """A raise of one of the named errors."""
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
    return name in names


def _uses_operator_index(node) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "index" and getattr(node.value, "id", None) == "operator"
    if isinstance(node, ast.ImportFrom):
        return node.module == "operator" and any(a.name == "index" for a in node.names)
    return False


def test_caps_and_integer_arguments_are_checked_only_in_errors():
    # every size cap goes through errors.check_cap, every integer argument
    # through errors.check_int and every group match through
    # errors.check_same_group, so each refusal is decided in one place; the
    # per-module helpers those checks replaced stay gone
    files = sorted(Path(cornerlab.__file__).parent.glob("*.py"))
    assert files
    stale = {"_check_eps", "_as_fraction", "_check_same_group"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        if path.name != "errors.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _is_direct_raise(node) or _uses_operator_index(node)
        or stale & {getattr(node, key, None) for key in ("id", "attr", "name")}
    ]
    assert not found, found


_ARRAY_READS = {"shape", "ndim", "size", "min", "max", "isfinite", "iscomplexobj"}


def test_array_arguments_are_refused_only_in_errors():
    # every shape, finiteness and value check of an array argument goes
    # through errors.check_reals, check_bits or check_ints: no other module
    # raises ValidationError in a branch whose test reads an array's shape,
    # ndim, size, min(), max(), isfinite or iscomplexobj
    files = sorted(Path(cornerlab.__file__).parent.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        if path.name != "errors.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.If, ast.While))
        and _ARRAY_READS & {n.attr for n in ast.walk(node.test) if isinstance(n, ast.Attribute)}
        and any(_is_direct_raise(inner, {"ValidationError"})
                for statement in node.body + node.orelse for inner in ast.walk(statement))
    ]
    assert not found, found


def test_cli_reaches_the_solver_only_through_the_sweep():
    # one entry into the solver: every variational and envelope op goes
    # through sweep_and_envelope, whatever the number of densities
    path = Path(cornerlab.__file__).parent / "cli.py"
    found = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if "minimize_T" in {getattr(node, "id", None), getattr(node, "attr", None)}
        or (isinstance(node, ast.alias) and node.name == "minimize_T")
    ]
    assert not found, found


def test_profile_and_scan_shift_through_one_helper():
    # every shift of packed rows goes through corners._shifted_views, once
    # per run of residue classes (bit residues of the offsets), so no
    # per-difference shift path comes back
    path = Path(cornerlab.__file__).parent / "corners.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    stale = {"_shift_rows", "_valid_count"}
    found = [
        node.lineno
        for node in ast.walk(tree)
        if stale & {getattr(node, key, None) for key in ("id", "attr", "name")}
    ]
    assert not found, found
    callers = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_shifted_views"
    }
    assert {"corner_count_by_difference", "integer_corner_scan"} <= callers


def _variational_functions():
    path = Path(cornerlab.__file__).parent / "variational.py"
    return [
        fn
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(fn, ast.FunctionDef)
    ]


def _calls(fn, name):
    return sum(
        isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
        for node in ast.walk(fn)
    )


def test_variational_states_the_kernel_pass_and_the_restart_table_once():
    # T and its parts come from one kernel pass, the face Hessian reads the
    # conditionals alone, and minimize_T builds its result once, from one
    # table of per-restart rows
    functions = _variational_functions()
    assert {fn.name for fn in functions if _calls(fn, "_conditionals")} == {
        "_kernel", "_box_model", "_face_hessian"
    }
    (minimize,) = [fn for fn in functions if fn.name == "minimize_T"]
    assert _calls(minimize, "MinimizeResult") == 1


def test_newton_steps_stop_at_their_face_boundary_without_a_projection():
    # a Newton attempt scales its step to the face boundary (_step_to_boundary):
    # no fix-and-resolve loop, and _descend projects onto the slice only its
    # starts and its spectral steps
    functions = {fn.name: fn for fn in _variational_functions()}
    assert "_newton_target" not in functions
    assert _calls(functions["_descend"], "_project_to_slice") == 2
    assert _calls(functions["_descend"], "_step_to_boundary") == 1


def test_newton_faces_are_their_inside_cells():
    # a Newton attempt works on the face's cells strictly inside (0, 1): no
    # inward-pull admission of cells on a bound, and no per-lane count of
    # held steps that grows after a failed attempt
    functions = {fn.name: fn for fn in _variational_functions()}
    assert "_free_cells" not in functions
    names = {node.id for node in ast.walk(functions["_descend"]) if isinstance(node, ast.Name)}
    assert "hold" not in names and "_FACE_STEPS" in names


def test_face_hessian_reads_no_kernel_rows():
    # the Hessian of the bracket is linear in the conditionals, so it pushes
    # no shifted copies of the lane through the kernel or the bracket
    (hessian,) = [fn for fn in _variational_functions() if fn.name == "_face_hessian"]
    assert _calls(hessian, "_conditionals") == 1
    assert _calls(hessian, "_kernel") == _calls(hessian, "_bracket") == 0


def test_profile_gathers_the_bit_matrix_once():
    # corner_count_by_difference reads A.bits in one place, outside every
    # loop and nested function, and hands A itself to no helper: the plane is
    # gathered and packed once, and each H-part is translated in packed words
    path = Path(cornerlab.__file__).parent / "corners.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    (fn,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "corner_count_by_difference"
    ]
    scopes = (ast.For, ast.While, ast.FunctionDef, ast.Lambda, ast.ListComp, ast.SetComp,
              ast.DictComp, ast.GeneratorExp)
    reads, bare = [], []

    def visit(node, looped):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and getattr(child.value, "id", None) == "A":
                if child.attr == "bits":
                    reads.append((child.lineno, looped))
                continue
            if isinstance(child, ast.Name) and child.id == "A":
                bare.append(child.lineno)
            visit(child, looped or isinstance(child, scopes))

    visit(fn, False)
    assert [looped for _, looped in reads] == [False], reads
    assert not bare, bare


def test_bohr_reads_residues_through_one_table():
    # BohrSet.mask and BohrPartition.label_matrix both read bohr._residues,
    # the one place that calls residue_vector; the one-line aliases stay gone
    path = Path(cornerlab.__file__).parent / "bohr.py"
    functions = [
        fn
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(fn, ast.FunctionDef)
    ]

    def callers(name):
        return sorted(
            fn.name
            for fn in functions
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and name in {getattr(node.func, "attr", None), getattr(node.func, "id", None)}
        )

    assert callers("residue_vector") == ["_residues"]
    assert callers("_residues") == ["label_matrix", "mask"]
    assert not hasattr(cornerlab.BohrSet, "indices")
    assert not hasattr(cornerlab.BohrPartition, "resolution")


def test_bohr_regularize_builds_one_bohr_set(monkeypatch):
    # the smoothing Bohr set is built once, after the loop, on a run of
    # two rounds
    built = []

    def counted(*args):
        built.append(cornerlab.BohrSet(*args))
        return built[-1]

    monkeypatch.setattr(cornerlab.regularity, "BohrSet", counted)
    G = cornerlab.parse_group_spec("Z32")
    f = (np.arange(32) % 5 < 2).astype(float)
    result = cornerlab.bohr_regularize([f], cornerlab.GrowthFunction("polynomial", 4, 1), G)
    assert result.rounds >= 1
    assert len(built) == 1 and result.bohr_set is built[0]


def test_bohr_regularize_transforms_each_input_once_per_round():
    # the Bohr step reads its spectra from fourier's stacked transform, one
    # (parts, |G|) stack per input, and calls neither dft nor large_spectrum;
    # it projects and convolves its inputs as one (inputs, |G|) stack, and
    # smooths with the Bohr set's mask, not with a GroupFunction from mu
    path = Path(cornerlab.__file__).parent / "regularity.py"
    (fn,) = [
        node
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef) and node.name == "bohr_regularize"
    ]
    called = {
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
    }
    assert not {"dft", "large_spectrum", "mu"} & called
    assert {"_large_indices", "_transform", "_convolve_rows", "_project_rows", "mask"} <= called


def _names(path: Path) -> set[str]:
    """Every name and attribute the module's source mentions."""
    return {
        getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
    }


def test_the_bohr_step_runs_on_arrays():
    # regularity.py takes and returns arrays: no GroupFunction, and no
    # per-input convolve or lp_norm; the part indicators are one boolean
    # stack, so Partition builds no list of indicator functions
    package = Path(cornerlab.__file__).parent
    assert not {"GroupFunction", "convolve", "lp_norm"} & _names(package / "regularity.py")
    assert not hasattr(cornerlab.Partition, "indicator_functions")


def test_fourier_has_one_convolution_body():
    # convolve is the one-row stack of _convolve_rows, so the forward and
    # inverse transforms of a convolution sit in _convolve_rows alone; the
    # other inverse transform is inverse_dft's
    path = Path(cornerlab.__file__).parent / "fourier.py"
    functions = [
        node
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef)
    ]

    def calls(fn, name):
        return any(
            isinstance(node, ast.Call) and getattr(node.func, "attr", None) == name
            for node in ast.walk(fn)
        )

    assert sorted(fn.name for fn in functions if calls(fn, "ifftn")) == [
        "_convolve_rows", "inverse_dft"]
    (convolve,) = [fn for fn in functions if fn.name == "convolve"]
    assert not calls(convolve, "fftn")
    assert any(
        isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_convolve_rows"
        for node in ast.walk(convolve)
    )


def test_lines_and_planes_project_through_one_body():
    # Partition._project_rows holds regularity.py's one weighted bincount:
    # project_line and project_plane are its one-row cases, and the weak
    # step projects its plane stack through it and refines once per round
    path = Path(cornerlab.__file__).parent / "regularity.py"
    functions = {
        node.name: node
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef)
    }

    def called(fn):
        return {
            getattr(node.func, "id", getattr(node.func, "attr", None))
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
        }

    weighted = [
        fn.name
        for fn in functions.values()
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "bincount"
        and any(keyword.arg == "weights" for keyword in node.keywords)
    ]
    assert weighted == ["_project_rows"]
    for name in ("project_line", "project_plane", "_weak_rounds"):
        assert "_project_rows" in called(functions[name]), name
    assert not {"project_plane", "refine_with_mask"} & called(functions["_weak_rounds"])


def test_corners_imports_nothing_from_bohr():
    # on Z_n the zscan's Bohr-set candidates are an interval, listed as one
    path = Path(cornerlab.__file__).parent / "corners.py"
    found = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and "bohr" in (node.module or "").split(".")
        or isinstance(node, ast.Import) and any("bohr" in a.name.split(".") for a in node.names)
    ]
    assert not found, found
    assert not {"BohrSet", "BohrPartition"} & _names(path)


def test_the_profile_has_one_counting_body():
    # every run of corner_count_by_difference, of one class or many, of one
    # H-part or a block of them, of one d or many, counts in count_class: it
    # is the one function nested in the profile that popcounts, through one
    # call, and the only other popcount of corners.py is the grid scan's; no
    # plane of the packed rows repeated per H-part is built beside it
    path = Path(cornerlab.__file__).parent / "corners.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    counting = sorted(
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        and not any(isinstance(inner, ast.FunctionDef) for inner in ast.walk(fn) if inner is not fn)
        and any(isinstance(node, ast.Attribute) and node.attr == "bitwise_count"
                for node in ast.walk(fn))
    )
    assert counting == ["count_class", "integer_corner_scan"]
    (profile,) = [
        fn for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "corner_count_by_difference"
    ]
    nested = [fn.name for fn in ast.walk(profile) if isinstance(fn, ast.FunctionDef)]
    assert nested == ["corner_count_by_difference", "classes", "count_class"]
    (mapped,) = [
        node for node in ast.walk(profile)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "deterministic_map"
    ]
    assert getattr(mapped.args[0], "id", None) == "count_class"
    (body,) = [
        fn for fn in ast.walk(profile)
        if isinstance(fn, ast.FunctionDef) and fn.name == "count_class"
    ]
    popcounts = [
        node for node in ast.walk(body)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "bitwise_count"
    ]
    assert len(popcounts) == 1
    assert "tiled" not in _names(path)
