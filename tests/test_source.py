"""Checks on the package source itself."""

import ast
from pathlib import Path

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


def _is_direct_cap_raise(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
    return name == "CapExceededError"


def _uses_operator_index(node) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "index" and getattr(node.value, "id", None) == "operator"
    if isinstance(node, ast.ImportFrom):
        return node.module == "operator" and any(a.name == "index" for a in node.names)
    return False


def test_caps_and_integer_arguments_are_checked_only_in_errors():
    # every size cap goes through errors.check_cap and every integer argument
    # through errors.check_int, so each refusal is decided in one place
    files = sorted(Path(cornerlab.__file__).parent.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        if path.name != "errors.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _is_direct_cap_raise(node) or _uses_operator_index(node)
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
    # per bit residue, so no per-difference shift path comes back
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


def test_variational_states_the_kernel_pass_and_the_restart_table_once():
    # T and its parts come from one kernel pass, and minimize_T builds its
    # result once, from one table of per-restart rows
    path = Path(cornerlab.__file__).parent / "variational.py"
    functions = [
        fn
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(fn, ast.FunctionDef)
    ]

    def calls(fn, name):
        return sum(
            isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
            for node in ast.walk(fn)
        )

    assert {fn.name for fn in functions if calls(fn, "_conditionals")} == {"_kernel", "_box_model"}
    (minimize,) = [fn for fn in functions if fn.name == "minimize_T"]
    assert calls(minimize, "MinimizeResult") == 1
