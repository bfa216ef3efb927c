"""Command-line interface: one subcommand per pipeline stage.

Subcommands
-----------
``satake``
    List the involution-diagram catalog (or one entry) with the
    restricted root data.
``classify``
    Operator-existence verdict and admissible exponents for a catalog
    diagram or an inline diagram spec.
``git``
    The quotient model on 3-planes in a 6-space: ``stratify`` places the
    graph of a 3x3 matrix, ``fixed-points`` lists the torus-fixed points
    with their strata, ``module`` prints the exterior-cube decomposition.
``schubert``
    ``kempf``: windowed character bounds of an unstable stratum with
    per-degree dimensions and the degree extremes.
``cohomology``
    Line-bundle cohomology character of the compactification; in degree
    3 the cross-validation report against the quotient route is attached.
``acceptance``
    The end-to-end check suite; the exit status is the report's verdict.

Output is tab-separated rows whose first field names the row, or JSON
(``--format json``) with sorted keys.  Either form is byte-identical
across reruns with the same flags and seed; timings are omitted for that
reason.  Exit codes: 0 success, 1 value mismatch, 2 certification
failure (a truncation window or search box too small to decide), 3
invalid input, 4 internal error (a consistency guard inside the library
failed).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from contextlib import redirect_stdout
from fractions import Fraction
from io import TextIOBase

from .acceptance import DEFAULT_SEED, AcceptanceConfig, AcceptanceReport, run_acceptance
from .charring import DEFAULT_HEIGHT_CUTOFF, Character
from .gitgrass import (
    all_plucker_indices,
    coordinate_point,
    cstar_weight,
    decompose_module,
    graph_point,
    intersection_dims,
    is_semistable,
    unstable_component,
)
from .opcrit import classify
from .rootsys import Weight, _record
from .satake import (
    CATALOG,
    DiagramError,
    catalog_names,
    parse_diagram,
    restricted_system,
)
from .schubert import CSTAR_GRADING, unstable_character_bounds
from .wondercoh import (
    BoxTooSmallError,
    cross_validate_h3,
    h_character,
    spanning_weight,
    vanishing_profile,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CERTIFICATION = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4

DEFAULT_BOUND = 12


class InputError(ValueError):
    """A flag or input value the interface cannot act on."""


@_record
class RunConfig:
    """Validated values of the flags that several subcommands read; None
    where the flag is not given or the subcommand does not register it."""

    window: tuple[int, int] | None
    height_cutoff: int | None
    box_radius: int | None
    fmt: str

    def __post_init__(self):
        if self.window is not None and self.window[0] > self.window[1]:
            raise InputError(
                f"empty window {self.window[0]}:{self.window[1]}"
            )
        if self.height_cutoff is not None and self.height_cutoff < 1:
            raise InputError("height cutoff must be at least 1")
        if self.box_radius is not None and self.box_radius < 0:
            raise InputError("box radius must be nonnegative")
        if self.fmt not in ("tsv", "json"):
            raise InputError(f"unknown format {self.fmt!r}")


# ---------------------------------------------------------------------------
# flag parsing helpers

def _parse_window(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise InputError(
            f"window must be two integers as LO:HI, got {text!r}"
        ) from None


def _parse_coefficients(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise InputError(
            f"expected four comma-separated integers, got {text!r}"
        )
    try:
        a1, a2, b1, b2 = (int(p) for p in parts)
    except ValueError:
        raise InputError(f"non-integer coefficient in {text!r}") from None
    return a1, a2, b1, b2


def _parse_matrix(text: str) -> list[list[Fraction]]:
    rows = []
    for chunk in text.split(":"):
        row = []
        for entry in chunk.split(","):
            try:
                row.append(Fraction(entry))
            except (ValueError, ZeroDivisionError):
                raise InputError(f"bad matrix entry {entry!r}") from None
        rows.append(row)
    if len(rows) != 3 or any(len(row) != 3 for row in rows):
        raise InputError(
            "matrix must be three ':'-separated rows of three entries"
        )
    return rows


# ---------------------------------------------------------------------------
# output helpers

def _print_tsv(rows, out: TextIOBase) -> None:
    for row in rows:
        print("\t".join(str(x) for x in row), file=out)


def _print_json(payload: dict, out: TextIOBase) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2), file=out)


def _coords_str(w: Weight) -> str:
    return ",".join(str(c) for c in w.coords)


def _character_payload(ch: Character) -> dict:
    return {
        "dimension": ch.dimension(),
        "terms": [[list(w.coords), m] for w, m in ch.sorted_items()],
    }


def _degree_dimensions(ch: Character) -> dict[int, int]:
    out: dict[int, int] = {}
    for w, m in ch.terms.items():
        d = CSTAR_GRADING.degree(w)
        out[d] = out.get(d, 0) + m
    return out


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


# ---------------------------------------------------------------------------
# satake

def _cmd_satake(cfg: RunConfig, args, out: TextIOBase) -> int:
    if args.diagram is not None:
        names = [args.diagram]
    else:
        names = list(catalog_names())
    entries = []
    for name in names:
        if name not in CATALOG:
            raise InputError(
                f"unknown diagram {name!r}; available: "
                + ", ".join(catalog_names())
            )
        d = parse_diagram(CATALOG[name])
        rs = restricted_system(d)
        entries.append(
            {
                "name": name,
                "ambient": d.system.type_label,
                "black": sorted(d.black),
                "arrows": [list(a) for a in d.arrows],
                "restricted": rs.type_label,
                "restricted_rank": rs.rank,
                "nonreduced": rs.nonreduced,
            }
        )
    if cfg.fmt == "json":
        _print_json({"diagrams": entries}, out)
        return EXIT_OK
    rows = []
    for e in entries:
        rows.append(
            (
                "diagram",
                e["name"],
                e["ambient"],
                e["restricted"],
                e["restricted_rank"],
                _yesno(e["nonreduced"]),
                ",".join(str(i) for i in e["black"]) or "-",
                ";".join(f"{a}-{b}" for a, b in e["arrows"]) or "-",
            )
        )
    _print_tsv(rows, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# classify

def _cmd_classify(cfg: RunConfig, args, out: TextIOBase) -> int:
    if args.bound < 1:
        raise InputError("bound must be at least 1")
    if args.diagram is not None:
        if args.diagram not in CATALOG:
            raise InputError(
                f"unknown diagram {args.diagram!r}; available: "
                + ", ".join(catalog_names())
            )
        label = args.diagram
        d = parse_diagram(CATALOG[label])
    elif args.spec is not None:
        label = "(inline)"
        d = parse_diagram(args.spec.replace(";", "\n"))
    else:
        raise InputError("classify needs --diagram NAME or --spec TEXT")
    c = classify(d, bound=args.bound)
    minimal = sorted(c.minimal)
    solutions = sorted(c.solutions)
    if cfg.fmt == "json":
        _print_json(
            {
                "diagram": label,
                "ambient": d.system.type_label,
                "restricted": c.restricted.type_label,
                "nonreduced": c.restricted.nonreduced,
                "exists": c.exists,
                "bound": args.bound,
                "minimal": [list(n) for n in minimal],
                "solutions": [list(n) for n in solutions],
            },
            out,
        )
        return EXIT_OK
    rows = [
        ("diagram", label),
        ("ambient", d.system.type_label),
        ("restricted", c.restricted.type_label),
        ("nonreduced", _yesno(c.restricted.nonreduced)),
        ("exists", _yesno(c.exists)),
        ("bound", args.bound),
    ]
    for n in minimal:
        rows.append(("minimal", ",".join(str(x) for x in n)))
    rows.append(("solutions-within-bound", len(solutions)))
    _print_tsv(rows, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# git

def _cmd_git(cfg: RunConfig, args, out: TextIOBase) -> int:
    if args.action == "stratify":
        return _git_stratify(cfg, args, out)
    if args.action == "fixed-points":
        return _git_fixed_points(cfg, out)
    return _git_module(cfg, out)


def _git_stratify(cfg: RunConfig, args, out: TextIOBase) -> int:
    if args.matrix is not None:
        matrix = _parse_matrix(args.matrix)
    else:
        matrix = [
            [Fraction(int(i == j)) for j in range(3)] for i in range(3)
        ]
    u = graph_point(matrix)
    d_v, d_dual = intersection_dims(u)
    component = unstable_component(u)
    if cfg.fmt == "json":
        _print_json(
            {
                "matrix": [[str(x) for x in row] for row in matrix],
                "point": [[str(x) for x in row] for row in u.rows],
                "intersection": [d_v, d_dual],
                "semistable": is_semistable(u),
                "component": component,
            },
            out,
        )
        return EXIT_OK
    rows = [
        (
            "matrix",
            ":".join(
                ",".join(str(x) for x in row) for row in matrix
            ),
        ),
        ("dim-meet-v", d_v),
        ("dim-meet-dual", d_dual),
        ("semistable", _yesno(is_semistable(u))),
        ("component", component or "none"),
    ]
    _print_tsv(rows, out)
    return EXIT_OK


def _point_label(p) -> str:
    first = "".join(str(i) for i in p.first)
    second = "".join(str(j) for j in p.second)
    return f"{first}|{second}"


def _git_fixed_points(cfg: RunConfig, out: TextIOBase) -> int:
    entries = []
    for p in all_plucker_indices():
        u = coordinate_point(p)
        entries.append(
            {
                "index": _point_label(p),
                "cstar": cstar_weight(p),
                "component": unstable_component(u),
            }
        )
    entries.sort(key=lambda e: e["index"])
    counts: dict[str, int] = {}
    for e in entries:
        key = e["component"] or "none"
        counts[key] = counts.get(key, 0) + 1
    if cfg.fmt == "json":
        _print_json({"points": entries, "counts": counts}, out)
        return EXIT_OK
    rows = [
        ("point", e["index"], e["cstar"], e["component"] or "none")
        for e in entries
    ]
    for key in sorted(counts):
        rows.append(("count", key, counts[key]))
    _print_tsv(rows, out)
    return EXIT_OK


def _git_module(cfg: RunConfig, out: TextIOBase) -> int:
    summands = decompose_module()
    if cfg.fmt == "json":
        _print_json(
            {
                "summands": [
                    {
                        "highest_weight": list(s.highest_weight.coords),
                        "cstar": s.cstar,
                        "dim": s.dim,
                    }
                    for s in summands
                ],
                "total": sum(s.dim for s in summands),
            },
            out,
        )
        return EXIT_OK
    rows = [
        ("summand", _coords_str(s.highest_weight), s.cstar, s.dim)
        for s in summands
    ]
    rows.append(("total", sum(s.dim for s in summands)))
    _print_tsv(rows, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# schubert

def _cmd_schubert(cfg: RunConfig, args, out: TextIOBase) -> int:
    cell, k = args.cell, args.k
    cutoff = DEFAULT_HEIGHT_CUTOFF if cfg.height_cutoff is None else cfg.height_cutoff
    if cfg.window is not None:
        window = cfg.window
    elif cell == "F1":
        window = (k, k + 40)
    else:
        window = (k - 40, k)
    lower, upper = unstable_character_bounds(cell, k, window, cutoff)
    lower_dims = _degree_dimensions(lower)
    upper_dims = _degree_dimensions(upper)
    min_degree = min(upper_dims) if upper_dims else None
    max_degree = max(upper_dims) if upper_dims else None
    if cfg.fmt == "json":
        _print_json(
            {
                "cell": cell,
                "k": k,
                "window": list(window),
                "height_cutoff": cutoff,
                "min_degree": min_degree,
                "max_degree": max_degree,
                "degrees": [
                    [d, lower_dims.get(d, 0), upper_dims[d]]
                    for d in sorted(upper_dims)
                ],
            },
            out,
        )
        return EXIT_OK
    rows = [
        ("cell", cell),
        ("k", k),
        ("window", f"{window[0]}:{window[1]}"),
        ("height-cutoff", cutoff),
        ("min-degree", "-" if min_degree is None else min_degree),
        ("max-degree", "-" if max_degree is None else max_degree),
    ]
    for d in sorted(upper_dims):
        rows.append(("degree", d, lower_dims.get(d, 0), upper_dims[d]))
    _print_tsv(rows, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# cohomology

def _cross_payload(report) -> dict:
    rows = sorted(report.rows, key=lambda r: r[0].coords)
    return {
        "k": report.k,
        "n": report.n,
        "window": list(report.window),
        "height_cutoff": report.height_cutoff,
        "component": report.component,
        "certified": report.certified,
        "at_most_one": report.at_most_one,
        "ok": report.ok,
        "issues": list(report.issues),
        "rows": [
            [list(w.coords), lo, found, hi] for w, lo, found, hi in rows
        ],
        "unverified": sorted(
            [list(w.coords) for w in report.unverified]
        ),
    }


def _cmd_cohomology(cfg: RunConfig, args, out: TextIOBase) -> int:
    coeffs = _parse_coefficients(args.lam)
    degree = args.degree
    if not 0 <= degree <= 8:
        raise InputError(f"degree must lie in 0..8, got {degree}")
    lam = spanning_weight(*coeffs)
    ch = h_character(lam, degree, cfg.box_radius)
    profile = sorted(vanishing_profile(lam, cfg.box_radius))
    payload: dict = {
        "coefficients": list(coeffs),
        "weight": list(lam.coords),
        "degree": degree,
        "profile": profile,
        "character": _character_payload(ch),
    }
    status = EXIT_OK
    report = None
    if degree == 3:
        report = cross_validate_h3(
            lam, cfg.window, cfg.box_radius, cfg.height_cutoff
        )
        payload["cross_check"] = _cross_payload(report)
        if not report.certified:
            status = EXIT_CERTIFICATION
        elif not report.ok:
            status = EXIT_MISMATCH
    if cfg.fmt == "json":
        _print_json(payload, out)
        return status
    rows = [
        ("coefficients", ",".join(str(c) for c in coeffs)),
        ("weight", _coords_str(lam)),
        ("degree", degree),
        ("profile", ",".join(str(i) for i in profile) or "-"),
        ("dimension", ch.dimension()),
    ]
    for w, m in ch.sorted_items():
        rows.append(("term", _coords_str(w), m))
    if report is not None:
        rows.append(("cross-component", report.component or "none"))
        rows.append(("cross-certified", _yesno(report.certified)))
        rows.append(("cross-at-most-one", _yesno(report.at_most_one)))
        rows.append(("cross-consistent", _yesno(report.ok)))
        for w, lo, found, hi in sorted(
            report.rows, key=lambda r: r[0].coords
        ):
            rows.append(("cross-row", _coords_str(w), lo, found, hi))
        for w in sorted(report.unverified, key=lambda w: w.coords):
            rows.append(("cross-unverified", _coords_str(w)))
        for issue in report.issues:
            rows.append(("cross-issue", issue))
    _print_tsv(rows, out)
    return status


# ---------------------------------------------------------------------------
# acceptance

def _report_payload(report: AcceptanceReport) -> dict:
    data = report.to_dict(timed=False)
    data["exit_code"] = report.exit_code
    return data


def _cmd_acceptance(cfg: RunConfig, args, out: TextIOBase) -> int:
    kwargs: dict = {"seed": args.seed}
    if cfg.window is not None:
        kwargs["window_width"] = cfg.window[1] - cfg.window[0]
    if cfg.height_cutoff is not None:
        kwargs["height_cutoff"] = cfg.height_cutoff
    if cfg.box_radius is not None:
        kwargs["box_radius"] = cfg.box_radius
    if args.samples is not None:
        kwargs["sample_count"] = args.samples
    try:
        config = AcceptanceConfig(**kwargs)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    report = run_acceptance(config)
    if cfg.fmt == "json":
        _print_json(_report_payload(report), out)
    else:
        _print_tsv([(line,) for line in report.lines(timed=False)], out)
    return report.exit_code


# ---------------------------------------------------------------------------
# parser assembly

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse would exit(2); route to the invalid-input exit code
        raise InputError(message)


# the flags that several subcommands read, each registered only on those
_SHARED_FLAGS = {
    "--window": dict(metavar="LO:HI", help="truncation window in scaling degrees"),
    "--height-cutoff": dict(
        metavar="H", type=int, help="denominator height cutoff for series expansions"
    ),
    "--box-radius": dict(
        metavar="R", type=int, help="search box radius for the cohomology enumeration"
    ),
}


def _add_common(p: argparse.ArgumentParser, *flags: str) -> None:
    """Register ``--format`` and the named ``_SHARED_FLAGS`` on ``p``."""
    p.add_argument(
        "--format",
        dest="fmt",
        choices=("tsv", "json"),
        default="tsv",
        help="output format (default: tsv)",
    )
    for flag in flags:
        p.add_argument(flag, **_SHARED_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wonderco",
        description=(
            "Characters, strata, and cohomology of a rank-two wonderful "
            "compactification, one subcommand per pipeline stage."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    p = sub.add_parser(
        "satake", help="list the diagram catalog with restricted types"
    )
    p.add_argument(
        "--diagram", metavar="NAME", help="show one catalog entry"
    )
    _add_common(p)
    p.set_defaults(func=_cmd_satake)

    p = sub.add_parser(
        "classify", help="operator-existence verdict for a diagram"
    )
    p.add_argument(
        "--diagram", metavar="NAME", help="catalog entry to classify"
    )
    p.add_argument(
        "--spec",
        metavar="TEXT",
        help="inline diagram, ';'-separated directives "
        "(example: \"type A2; arrow 1 2\")",
    )
    p.add_argument(
        "--bound",
        type=int,
        default=DEFAULT_BOUND,
        help="exponent box for solution listing (default: %(default)s)",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser(
        "git", help="stability and strata of the 3-plane quotient model"
    )
    p.add_argument(
        "action",
        choices=("stratify", "fixed-points", "module"),
        help="stratify a graph point, list fixed points, "
        "or show the module decomposition",
    )
    p.add_argument(
        "--matrix",
        metavar="R1:R2:R3",
        help="3x3 matrix, rows ':'-separated, entries ','-separated "
        "(default: identity)",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_git)

    p = sub.add_parser(
        "schubert",
        help="character bounds of an unstable stratum",
    )
    p.add_argument("action", choices=("kempf",), help="series to expand")
    p.add_argument(
        "--cell",
        required=True,
        choices=("F1", "F2"),
        help="unstable stratum",
    )
    p.add_argument(
        "--k", required=True, type=int, help="line bundle power"
    )
    _add_common(p, "--window", "--height-cutoff")
    p.set_defaults(func=_cmd_schubert)

    p = sub.add_parser(
        "cohomology",
        help="line-bundle cohomology character of the compactification",
    )
    p.add_argument(
        "--lambda",
        dest="lam",
        metavar="A1,A2,B1,B2",
        required=True,
        help="coefficients on the spanning classes",
    )
    p.add_argument(
        "--i",
        dest="degree",
        type=int,
        required=True,
        help="cohomological degree (0..8)",
    )
    _add_common(p, "--window", "--height-cutoff", "--box-radius")
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser(
        "acceptance", help="run the end-to-end check suite"
    )
    p.add_argument(
        "--samples",
        type=int,
        default=None,
        help="number of sampled weights for the duality check",
    )
    _add_common(p, "--window", "--height-cutoff", "--box-radius")
    p.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="seed for sampled checks (default: %(default)s)",
    )
    p.set_defaults(func=_cmd_acceptance)

    return parser


def _config_from_args(args) -> RunConfig:
    window = getattr(args, "window", None)
    return RunConfig(
        window=_parse_window(window) if window else None,
        height_cutoff=getattr(args, "height_cutoff", None),
        box_radius=getattr(args, "box_radius", None),
        fmt=args.fmt,
    )


# flags whose values may start with "-" followed by a digit; argparse
# mistakes such values for option strings unless written as FLAG=VALUE
_SIGNED_VALUE_FLAGS = ("--lambda", "--window", "--matrix")


def _merge_signed_values(argv: list[str]) -> list[str]:
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (
            tok in _SIGNED_VALUE_FLAGS
            and i + 1 < len(argv)
            and argv[i + 1][:1] == "-"
            and argv[i + 1][1:2].isdigit()
        ):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(
    argv: Sequence[str] | None = None,
    out: TextIOBase | None = None,
    err: TextIOBase | None = None,
) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        parser = build_parser()
        with redirect_stdout(out):  # argparse prints --help itself
            args = parser.parse_args(_merge_signed_values(argv))
        cfg = _config_from_args(args)
        return args.func(cfg, args, out)
    except SystemExit as exc:  # argparse --help
        return exc.code if isinstance(exc.code, int) else 0
    except BoxTooSmallError as exc:
        print(f"certification failure: {exc}", file=err)
        return EXIT_CERTIFICATION
    except (InputError, DiagramError, ValueError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_INPUT
    except AssertionError as exc:
        print(f"internal error: {exc}", file=err)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
