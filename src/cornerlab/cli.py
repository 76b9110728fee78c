"""Command-line front end: set I/O, seeded generation, experiment drivers.

One table, _FLAGS, holds every config key with its default and help text;
the config-file keys, the defaults and the flags (--key, with _ spelled -)
all come from it, and every command takes the same flags, before or after
the command name.  `cornerlab --help` lists the commands and each flag's
default.  Every command resolves its parameters from (in increasing
precedence) those defaults, an optional key=value config file, and
command-line flags, then emits CSV or JSON prefixed with comment lines that
record the resolved configuration.  Output formatting is locale-free with
round-trip float reprs, and every computation runs serially in input order,
so a rerun with the same configuration is byte-identical.

Exit codes: 0 on success, 2 for validation or I/O problems, 3 when a size
cap is exceeded, 4 when a hard bound fails (BoundViolation).
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .corners import (
    PlaneSet,
    corner_count_by_difference,
    hyperplane_views,
    integer_corner_scan,
    popular_difference,
)
from .errors import BoundViolation, CapExceededError, GroupMismatchError, ValidationError
from .groups import parse_group_spec
from .regularity import CUT_RESTARTS, DOUBLE_CAP, double_regularity, parse_growth_spec
from .variational import DESCENT_RESTARTS, minimize_T, pipeline_lower_bound, sweep_and_envelope

# config key -> (default, help); a key without a default stays unset unless
# a config file or a flag sets it
_FLAGS = {
    "group": (None, "group spec such as Z12 or Z2xZ2xZ3"),
    "density": (None, "density in [0,1]; comma list for sweeps"),
    "seed": ("0", "RNG seed"),
    "set_file": (None, "read the set from this file"),
    "rho": ("1/4", "radius bound for zscan candidates"),
    "eps": ("0.25", "regularity accuracy target"),
    "growth": ("poly:2,1", "growth spec poly:c,k or exp:c"),
    "grid_n": ("6", "grid points per axis"),
    "restarts": (
        None,
        f"descent restarts per sample (default {DESCENT_RESTARTS}); cut-norm "
        f"restarts for regularize and pipeline (default {CUT_RESTARTS})",
    ),
    "out": (None, "output path (default stdout)"),
}
_KNOWN_KEYS = tuple(_FLAGS)
_DEFAULTS = {key: default for key, (default, _) in _FLAGS.items() if default is not None}


def _to_int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValidationError(f"{key} must be an integer, got {value!r}")


def _to_float(value: str, key: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ValidationError(f"{key} must be a number, got {value!r}")


def _to_fraction(value: str, key: str) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"{key} must be a rational like 1/4 or 0.25, got {value!r}")


def _to_float_list(value: str, key: str) -> list[float]:
    parts = [p.strip() for p in value.split(",") if p.strip()]
    if not parts:
        raise ValidationError(f"{key} must list at least one number")
    return [_to_float(p, key) for p in parts]


def _read_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}")
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValidationError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _KNOWN_KEYS:
            raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = value.strip()
    return out


def _resolve(args) -> dict[str, str]:
    resolved = dict(_DEFAULTS)
    if args.config is not None:
        resolved.update(_read_config_file(args.config))
    flags = vars(args)
    resolved.update({key: flags[key] for key in _KNOWN_KEYS if flags[key] is not None})
    return resolved


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _plain(x):
    """Recursively convert numpy scalars and Fractions for json emission."""
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, np.ndarray):
        return [_plain(v) for v in x.tolist()]
    return x


def _header(command: str, entries: list[tuple[str, str]]) -> str:
    lines = [f"# cornerlab {command}"]
    lines += [f"# {k}={v}" for k, v in entries]
    return "\n".join(lines) + "\n"


def _emit(out_path: str | None, text: str) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text)


def _load_plane_set(resolved: dict[str, str]) -> tuple[PlaneSet, list[tuple[str, str]]]:
    """Build the input set and the header entries describing its source."""
    set_file = resolved.get("set_file")
    if set_file is not None:
        A = PlaneSet.load(set_file)
        if "group" in resolved:
            wanted = parse_group_spec(resolved["group"])
            if wanted != A.group:
                raise GroupMismatchError(
                    f"set file holds {A.group.spec_string()}, flags say {wanted.spec_string()}"
                )
        return A, [("group", A.group.spec_string()), ("set_file", set_file)]
    group_text = resolved.get("group")
    density_text = resolved.get("density")
    if group_text is None or density_text is None:
        raise ValidationError("need --set-file, or --group together with --density")
    densities = _to_float_list(density_text, "density")
    if len(densities) != 1:
        raise ValidationError("this command takes exactly one density")
    group = parse_group_spec(group_text)
    seed = _to_int(resolved["seed"], "seed")
    A = PlaneSet.random(group, densities[0], seed)
    return A, [
        ("group", group.spec_string()),
        ("density", repr(densities[0])),
        ("seed", str(seed)),
    ]


def _element_repr(element) -> str:
    return ":".join(str(c) for c in element.coords)


def _popular_summary(A: PlaneSet):
    """The difference profile of A and its five popular-difference key=value fields."""
    profile = corner_count_by_difference(A)
    d_star, best = popular_difference(A, profile)
    alpha = A.density
    return profile, [
        f"alpha={_fmt(alpha)}",
        f"d_star_index={d_star.index}",
        f"d_star={_element_repr(d_star)}",
        f"count={best}",
        f"alpha3_bound={_fmt(alpha**3 * A.group.order**2)}",
    ]


def cmd_scan(resolved: dict[str, str]) -> int:
    A, source = _load_plane_set(resolved)
    profile, fields = _popular_summary(A)
    rows = ["d_index,d_repr,count"]
    for d in range(A.group.order):
        rows.append(f"{d},{_element_repr(A.group.element(d))},{int(profile.counts[d])}")
    body = "\n".join(rows + ["# summary " + " ".join(fields)]) + "\n"
    _emit(resolved.get("out"), _header("scan", source) + body)
    return 0


def cmd_popular(resolved: dict[str, str]) -> int:
    A, source = _load_plane_set(resolved)
    _, fields = _popular_summary(A)
    _emit(resolved.get("out"), _header("popular", source) + "\n".join(fields) + "\n")
    return 0


def cmd_zscan(resolved: dict[str, str]) -> int:
    A, source = _load_plane_set(resolved)
    if A.group.rank != 1:
        raise ValidationError("integer scan needs a rank-one group Zn")
    rho = _to_fraction(resolved["rho"], "rho")
    result = integer_corner_scan(A.bits, rho=rho)
    rows = ["d,count"]
    for d in sorted(result.profile):
        rows.append(f"{d},{result.profile[d]}")
    summary = (
        f"# summary best_d={result.difference} count={result.count}"
        f" candidates={len(result.profile)}"
    )
    body = "\n".join(rows + [summary]) + "\n"
    entries = source + [("rho", str(rho))]
    _emit(resolved.get("out"), _header("zscan", entries) + body)
    return 0


def _run_sweep(resolved: dict[str, str]):
    """Densities, grid size, restarts and seed, plus the header entries that
    record them."""
    if "density" not in resolved:
        raise ValidationError("need --density with one or more samples")
    alphas = _to_float_list(resolved["density"], "density")
    n = _to_int(resolved["grid_n"], "grid_n")
    restarts = _to_int(resolved.get("restarts", str(DESCENT_RESTARTS)), "restarts")
    seed = _to_int(resolved["seed"], "seed")
    entries = [
        ("density", ",".join(repr(a) for a in alphas)),
        ("grid_n", str(n)),
        ("restarts", str(restarts)),
        ("seed", str(seed)),
    ]
    return alphas, n, restarts, seed, entries


def cmd_variational(resolved: dict[str, str]) -> int:
    alphas, n, restarts, seed, entries = _run_sweep(resolved)
    rows = ["alpha,m_hat,envelope,alpha3,alpha4,n,restarts,seed"]
    if len(alphas) == 1:
        a = alphas[0]
        value = minimize_T(a, n, restarts=restarts, seed=seed).value
        samples = [(a, value, value, seed)]
    else:
        env = sweep_and_envelope(alphas, n, restarts=restarts, seed=seed)
        samples = [
            (a, env.values[i], env.envelope_at(a), seed + i)
            for i, a in enumerate(alphas)
        ]
    for a, m_hat, env_val, row_seed in samples:
        rows.append(
            f"{_fmt(a)},{_fmt(m_hat)},{_fmt(env_val)},{_fmt(a**3)},{_fmt(a**4)},"
            f"{n},{restarts},{row_seed}"
        )
    _emit(resolved.get("out"), _header("variational", entries) + "\n".join(rows) + "\n")
    return 0


def cmd_envelope(resolved: dict[str, str]) -> int:
    alphas, n, restarts, seed, entries = _run_sweep(resolved)
    if len(alphas) < 2:
        raise ValidationError("envelope needs at least two density samples")
    env = sweep_and_envelope(alphas, n, restarts=restarts, seed=seed)
    rows = ["alpha,envelope"]
    for a, v in zip(env.hull_alphas, env.hull_values):
        rows.append(f"{_fmt(a)},{_fmt(v)}")
    _emit(resolved.get("out"), _header("envelope", entries) + "\n".join(rows) + "\n")
    return 0


def _regularity_params(resolved: dict[str, str]):
    """Input set, eps, growth, seed and cut-norm restarts, plus the header
    entries that record them."""
    A, source = _load_plane_set(resolved)
    eps = _to_float(resolved["eps"], "eps")
    growth = parse_growth_spec(resolved["growth"])
    seed = _to_int(resolved["seed"], "seed")
    restarts = _to_int(resolved.get("restarts", str(CUT_RESTARTS)), "restarts")
    entries = source + [
        ("eps", _fmt(eps)), ("growth", growth.spec_string()), ("restarts", str(restarts))
    ]
    return A, eps, growth, seed, restarts, entries


def cmd_regularize(resolved: dict[str, str]) -> int:
    A, eps, growth, seed, restarts, entries = _regularity_params(resolved)
    if A.group.order > DOUBLE_CAP:
        raise CapExceededError(f"group order {A.group.order} exceeds cap {DOUBLE_CAP}")
    views = [v.astype(float) for v in hyperplane_views(A)]
    dr = double_regularity(
        views, eps=eps, F=growth, group=A.group, restarts=restarts, seed=seed
    )
    report = {
        "group": A.group.spec_string(),
        "order": A.group.order,
        "density": A.density,
        "eps": eps,
        "growth": growth.spec_string(),
        "seed": seed,
        "rounds": dr.rounds,
        "degenerate": dr.degenerate,
        "pi_parts": dr.pi.part_count,
        "pi_next_parts": dr.pi_next.part_count,
        "round_records": dr.round_records,
        "bohr": {
            "rounds": dr.bohr.rounds,
            "frequencies": len(dr.bohr.bohr_set.freqs),
            "radius": str(dr.bohr.bohr_set.radius),
            "width": str(dr.bohr.partition.width),
            "measure": float(dr.bohr.bohr_set.measure()),
            "achieved_l2": dr.bohr.achieved_l2,
            "achieved_linf": dr.bohr.achieved_linf,
            "linf_bound": dr.bohr.linf_bound,
            "linf_hypothesis": dr.bohr.linf_hypothesis,
            "degenerate": dr.bohr.degenerate,
            "history": dr.bohr.history,
        },
        "f1_norms": dr.f1_norms,
        "f2_cut_estimates": dr.f2_cut_estimates,
        "cut_certified": dr.cut_certified,
    }
    body = json.dumps(_plain(report), indent=2) + "\n"
    _emit(resolved.get("out"), _header("regularize", entries) + body)
    return 0


def cmd_pipeline(resolved: dict[str, str]) -> int:
    A, eps, growth, seed, restarts, entries = _regularity_params(resolved)
    report = pipeline_lower_bound(A, eps=eps, F=growth, restarts=restarts, seed=seed)
    body = json.dumps(_plain(report), indent=2) + "\n"
    _emit(resolved.get("out"), _header("pipeline", entries) + body)
    return 0


_COMMANDS = {
    "scan": (cmd_scan, "full difference profile N(d) of a plane set, as CSV"),
    "popular": (cmd_popular, "most popular nonzero difference of a plane set"),
    "zscan": (cmd_zscan, "wraparound-free corner scan of a set in [n]^2"),
    "variational": (cmd_variational, "estimate the grid functional minimum over a density grid"),
    "envelope": (cmd_envelope, "lower convex envelope knots of a density sweep"),
    "regularize": (cmd_regularize, "double regularity report for a plane set, as JSON"),
    "pipeline": (cmd_pipeline, "end-to-end count vs box-model comparison, as JSON"),
}


def _build_parser():
    import argparse

    width = max(map(len, _COMMANDS))
    parser = argparse.ArgumentParser(
        prog="cornerlab",
        usage="%(prog)s command [flags]",
        description="corner statistics, regularization, and grid functional drivers",
        epilog="commands:\n"
        + "\n".join(f"  {name:<{width}}  {text}" for name, (_, text) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "command", choices=_COMMANDS, metavar="command", help="one of the commands below"
    )
    parser.add_argument("--config", help="key=value parameter file; flags win")
    for key, (default, text) in _FLAGS.items():
        if default is not None:
            text += f" (default {default})"
        parser.add_argument("--" + key.replace("_", "-"), help=text)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        handler, _ = _COMMANDS[args.command]
        return handler(_resolve(args))
    except BoundViolation as exc:
        print(f"cornerlab: bound violated: {exc}", file=sys.stderr)
        return 4
    except CapExceededError as exc:
        print(f"cornerlab: cap exceeded: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"cornerlab: invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cornerlab: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
