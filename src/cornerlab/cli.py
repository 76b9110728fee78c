"""Command-line front end: set I/O, seeded generation, experiment drivers.

One table, _FLAGS, declares every setting: its default, its parser, what
the parser accepts and its help.  The config-file keys, the defaults and
the flags (--key, with _ spelled -) all come from it, and every command
takes the same flags, before or after the command name; `cornerlab --help`
lists them with their defaults.  Settings resolve from (in increasing
precedence) those defaults, an optional key=value config file, and flags.
A setting is parsed when a command first reads it, so a flag the command
never reads is ignored.  Handlers return their body lines; main alone
writes the text, once, to stdout or --out, after one `# key=value` line per
setting the command read, in read order.  Formatting is locale-free with
round-trip float reprs, and every computation runs serially in input order,
so a rerun with the same configuration is byte-identical.

Exit codes: 0 on success, 2 for validation or I/O problems, 3 when a size
cap is exceeded, 4 when a hard bound fails (BoundViolation).
"""
from __future__ import annotations

import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from .corners import (
    PlaneSet,
    corner_count_by_difference,
    hyperplane_views,
    integer_corner_scan,
    popular_difference,
)
from .errors import BoundViolation, CapExceededError, ValidationError, check_cap, check_same_group
from .groups import parse_group_spec
from .regularity import CUT_RESTARTS, DOUBLE_CAP, double_regularity, parse_growth_spec
from .variational import DESCENT_RESTARTS, pipeline_lower_bound, sweep_and_envelope


def _numbers(text: str) -> list[float]:
    """A comma list of one or more densities; a bad item is named alone."""
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise ValidationError("density must list at least one number")
    return [_parse("density", item, float) for item in items]


# config key -> (default, parser, what the parser accepts, help); a key
# without a default stays unset unless a config file or a flag sets it
_FLAGS = {
    "group": (None, parse_group_spec, "a group spec", "group spec such as Z12 or Z2xZ2xZ3"),
    "density": (None, _numbers, "a number", "density in [0,1]; comma list for sweeps"),
    "seed": ("0", int, "an integer", "RNG seed"),
    "set_file": (None, str, None, "read the set from this file"),
    "rho": ("1/4", Fraction, "a rational like 1/4 or 0.25", "radius bound for zscan candidates"),
    "eps": ("0.25", float, "a number", "regularity accuracy target"),
    "growth": ("poly:2,1", parse_growth_spec, "a growth spec", "growth spec poly:c,k or exp:c"),
    "grid_n": ("6", int, "an integer", "grid points per axis"),
    "restarts": (None, int, "an integer", f"descent restarts per sample (default "
                 f"{DESCENT_RESTARTS}); cut-norm restarts for regularize and pipeline "
                 f"(default {CUT_RESTARTS})"),
    "out": (None, str, None, "output path (default stdout)"),
}
_KNOWN_KEYS = tuple(_FLAGS)
_DEFAULTS = {key: default for key, (default, *_) in _FLAGS.items() if default is not None}


def _parse(key: str, text: str, parse=None):
    """text as setting key's value, by parse or else key's declared parser."""
    _, declared, accepts, _ = _FLAGS[key]
    try:
        return (parse or declared)(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"{key} must be {accepts}, got {text!r}") from None


def _printed(value) -> str:
    """The header form of a setting's value."""
    if isinstance(value, list):
        return ",".join(map(repr, value))
    return value.spec_string() if hasattr(value, "spec_string") else str(value)


class _Settings:
    """One command's settings.  `given` maps each set key to its text; a
    call parses a key's text the first time, or takes the command's default
    when the key is unset.  `read` holds each value read, in read order."""

    def __init__(self, given: dict[str, str]):
        self.given = given
        self.read: dict[str, object] = {}

    def __call__(self, key: str, default=None):
        if key not in self.read:
            self.read[key] = _parse(key, self.given[key]) if key in self.given else default
        return self.read[key]


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


def _resolve(args) -> _Settings:
    given = dict(_DEFAULTS)
    if args.config is not None:
        given.update(_read_config_file(args.config))
    flags = vars(args)
    given.update({key: flags[key] for key in _KNOWN_KEYS if flags[key] is not None})
    return _Settings(given)


def _fmt(x) -> str:
    return repr(float(x))


def _load_plane_set(settings: _Settings) -> PlaneSet:
    """The input set: drawn from group, density and seed, or loaded from the
    set file, whose group is the default group and must equal a given one."""
    if "set_file" in settings.given:
        A = PlaneSet.load(settings.given["set_file"])
        check_same_group(A.group, settings("group", A.group), "set file and --group")
        settings("set_file")
        return A
    if "group" not in settings.given or "density" not in settings.given:
        raise ValidationError("need --set-file, or --group together with --density")
    group = settings("group")
    densities = settings("density")
    if len(densities) != 1:
        raise ValidationError("this command takes exactly one density")
    return PlaneSet.random(group, densities[0], settings("seed"))


def _coords_repr(coords) -> str:
    return ":".join(map(str, coords))


def _popular_summary(A: PlaneSet):
    """The difference profile of A and its five popular-difference key=value fields."""
    profile = corner_count_by_difference(A)
    d_star, best = popular_difference(A, profile)
    alpha = A.density
    return profile, [
        f"alpha={_fmt(alpha)}",
        f"d_star_index={d_star.index}",
        f"d_star={_coords_repr(d_star.coords)}",
        f"count={best}",
        f"alpha3_bound={_fmt(alpha**3 * A.group.order**2)}",
    ]


def cmd_scan(settings: _Settings) -> list[str]:
    A = _load_plane_set(settings)
    profile, fields = _popular_summary(A)
    reprs = map(_coords_repr, A.group.coords_matrix().tolist())
    rows = ["d_index,d_repr,count"]
    rows += [f"{d},{r},{c}" for d, (r, c) in enumerate(zip(reprs, profile.counts.tolist()))]
    return rows + ["# summary " + " ".join(fields)]


def cmd_popular(settings: _Settings) -> list[str]:
    return _popular_summary(_load_plane_set(settings))[1]


def cmd_zscan(settings: _Settings) -> list[str]:
    A = _load_plane_set(settings)
    if A.group.rank != 1:
        raise ValidationError("integer scan needs a rank-one group Zn")
    result = integer_corner_scan(A.bits, rho=settings("rho"))
    rows = ["d,count"] + [f"{d},{result.profile[d]}" for d in sorted(result.profile)]
    return rows + [
        f"# summary best_d={result.difference} count={result.count}"
        f" candidates={len(result.profile)}"
    ]


def _run_sweep(settings: _Settings):
    """Densities, grid size, restarts and seed of a sweep."""
    if "density" not in settings.given:
        raise ValidationError("need --density with one or more samples")
    alphas, n = settings("density"), settings("grid_n")
    return alphas, n, settings("restarts", DESCENT_RESTARTS), settings("seed")


def cmd_variational(settings: _Settings) -> list[str]:
    alphas, n, restarts, seed = _run_sweep(settings)
    env = sweep_and_envelope(alphas, n, restarts=restarts, seed=seed)
    rows = ["alpha,m_hat,envelope,alpha3,alpha4,n,restarts,seed"]
    for i, a in enumerate(alphas):
        rows.append(
            f"{_fmt(a)},{_fmt(env.values[i])},{_fmt(env.envelope_at(a))},{_fmt(a**3)},"
            f"{_fmt(a**4)},{n},{restarts},{seed + i}"
        )
    return rows


def cmd_envelope(settings: _Settings) -> list[str]:
    alphas, n, restarts, seed = _run_sweep(settings)
    if len(alphas) < 2:
        raise ValidationError("envelope needs at least two density samples")
    env = sweep_and_envelope(alphas, n, restarts=restarts, seed=seed)
    return ["alpha,envelope"] + [
        f"{_fmt(a)},{_fmt(v)}" for a, v in zip(env.hull_alphas, env.hull_values)
    ]


def _regularity_params(settings: _Settings):
    """Input set, eps, growth, seed and cut-norm restarts."""
    A = _load_plane_set(settings)
    eps, growth, seed = settings("eps"), settings("growth"), settings("seed")
    return A, eps, growth, seed, settings("restarts", CUT_RESTARTS)


def cmd_regularize(settings: _Settings) -> list[str]:
    A, eps, growth, seed, restarts = _regularity_params(settings)
    check_cap(A.group.order, DOUBLE_CAP, "group order {size} exceeds cap {cap}")
    dr = double_regularity(
        hyperplane_views(A), eps=eps, F=growth, group=A.group, restarts=restarts, seed=seed
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
    return [json.dumps(report, indent=2)]


def cmd_pipeline(settings: _Settings) -> list[str]:
    A, eps, growth, seed, restarts = _regularity_params(settings)
    report = pipeline_lower_bound(A, eps=eps, F=growth, restarts=restarts, seed=seed)
    return [json.dumps(report, indent=2)]


_COMMANDS = {
    "scan": (cmd_scan, "full difference profile N(d) of a plane set, as CSV"),
    "popular": (cmd_popular, "most popular nonzero difference of a plane set"),
    "zscan": (cmd_zscan, "wraparound-free corner scan of a set in [n]^2"),
    "variational": (cmd_variational, "estimate the grid functional minimum over a density grid"),
    "envelope": (cmd_envelope, "lower convex envelope knots of a density sweep"),
    "regularize": (cmd_regularize, "double regularity report for a plane set, as JSON"),
    "pipeline": (cmd_pipeline, "end-to-end count vs box-model comparison, as JSON"),
}


@functools.cache
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
    for key, (default, _, _, text) in _FLAGS.items():
        if default is not None:
            text += f" (default {default})"
        parser.add_argument("--" + key.replace("_", "-"), help=text)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        handler, _ = _COMMANDS[args.command]
        settings = _resolve(args)
        lines = handler(settings)
        header = [f"# {key}={_printed(value)}" for key, value in settings.read.items()]
        text = "\n".join([f"# cornerlab {args.command}"] + header + lines) + "\n"
        if "out" in settings.given:
            Path(settings.given["out"]).write_text(text)
        else:
            sys.stdout.write(text)
        return 0
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
