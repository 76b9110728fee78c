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


def _is_direct_raise(node) -> bool:
    """A raise of CapExceededError or GroupMismatchError."""
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
    return name in {"CapExceededError", "GroupMismatchError"}


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
    # per shift class (one bit residue of the offsets), so no per-difference
    # shift path comes back
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
    f = cornerlab.GroupFunction(G, (np.arange(32) % 5 < 2).astype(float))
    result = cornerlab.bohr_regularize([f], cornerlab.GrowthFunction("polynomial", 4, 1))
    assert result.rounds >= 1
    assert len(built) == 1 and result.bohr_set is built[0]
