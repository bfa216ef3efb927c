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
failure (a height cutoff or search box too small to decide), 3
invalid input (a bad flag value or diagram), 4 internal error (a
consistency guard or any other value check inside the library failed),
141 when the reader of the output closes it early (``| head``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence
from contextlib import redirect_stdout
from fractions import Fraction
from io import TextIOBase

from .acceptance import DEFAULT_SEED, AcceptanceReport, bounds_window, run_acceptance
from .charring import DEFAULT_HEIGHT_CUTOFF, Character
from .gitgrass import (
    all_plucker_indices,
    coordinate_point,
    cstar_weight,
    decompose_module,
    graph_point,
    intersection_dims,
    unstable_component,
)
from .opcrit import classify
from .satake import (
    DiagramError,
    catalog_diagram,
    catalog_names,
    parse_diagram,
    restricted_system,
)
from .schubert import CSTAR_GRADING, unstable_character_bounds
from .wondercoh import (
    BoxTooSmallError,
    certify_box,
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
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a killed writer

# exit status of a failed acceptance criterion by its kind; a run with both
# kinds reports the mismatch, whose code is the lower one
_ACCEPTANCE_EXITS = {"mismatch": EXIT_MISMATCH, "certification": EXIT_CERTIFICATION}

DEFAULT_BOUND = 12


class InputError(ValueError):
    """A flag or input value the interface cannot act on."""


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


def _check_flags(args: argparse.Namespace) -> None:
    """Parse a given ``--window`` in place and range-check the numeric
    flags the subcommand registers."""
    if getattr(args, "window", None) is not None:
        args.window = _parse_window(args.window)
        if args.window[0] > args.window[1]:
            raise InputError(f"empty window {args.window[0]}:{args.window[1]}")
    if getattr(args, "height_cutoff", None) is not None and args.height_cutoff < 1:
        raise InputError("height cutoff must be at least 1")
    if getattr(args, "box_radius", None) is not None and args.box_radius < 0:
        raise InputError("box radius must be nonnegative")


# ---------------------------------------------------------------------------
# output helpers

def _write(args: argparse.Namespace, payload: dict, rows, out: TextIOBase) -> None:
    """Print ``payload`` as JSON, or ``rows``, an iterable rendered from it,
    as tab-separated lines; flushing shows a closed reader here, not at exit."""
    if args.fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2), file=out)
    else:
        for row in rows:
            print("\t".join(str(x) for x in row), file=out)
    out.flush()


def _joined(values, sep: str = ",") -> str:
    return sep.join(str(x) for x in values)


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

def _satake_rows(payload: dict):
    for e in payload["diagrams"]:
        yield (
            "diagram",
            e["name"],
            e["ambient"],
            e["restricted"],
            e["restricted_rank"],
            _yesno(e["nonreduced"]),
            _joined(e["black"]) or "-",
            ";".join(f"{a}-{b}" for a, b in e["arrows"]) or "-",
        )


def _cmd_satake(args, out: TextIOBase) -> int:
    names = catalog_names() if args.diagram is None else (args.diagram,)
    entries = []
    for name in names:
        d = catalog_diagram(name)
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
    payload = {"diagrams": entries}
    _write(args, payload, _satake_rows(payload), out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# classify

def _classify_rows(payload: dict):
    yield ("diagram", payload["diagram"])
    yield ("ambient", payload["ambient"])
    yield ("restricted", payload["restricted"])
    yield ("nonreduced", _yesno(payload["nonreduced"]))
    yield ("exists", _yesno(payload["exists"]))
    yield ("bound", payload["bound"])
    for n in payload["minimal"]:
        yield ("minimal", _joined(n))
    yield ("solutions-within-bound", len(payload["solutions"]))


def _cmd_classify(args, out: TextIOBase) -> int:
    if args.bound < 1:
        raise InputError("bound must be at least 1")
    if args.diagram is not None:
        label = args.diagram
        d = catalog_diagram(label)
    else:
        label = "(inline)"
        d = parse_diagram(args.spec.replace(";", "\n"))
    c = classify(d, bound=args.bound)
    payload = {
        "diagram": label,
        "ambient": d.system.type_label,
        "restricted": c.restricted.type_label,
        "nonreduced": c.restricted.nonreduced,
        "exists": c.exists,
        "bound": args.bound,
        "minimal": [list(n) for n in sorted(c.minimal)],
        "solutions": [list(n) for n in sorted(c.solutions)],
    }
    _write(args, payload, _classify_rows(payload), out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# git

def _stratify_rows(payload: dict):
    yield ("matrix", ":".join(_joined(row) for row in payload["matrix"]))
    yield ("dim-meet-v", payload["intersection"][0])
    yield ("dim-meet-dual", payload["intersection"][1])
    yield ("semistable", _yesno(payload["semistable"]))
    yield ("component", payload["component"] or "none")


def _git_stratify(args, out: TextIOBase) -> int:
    if args.matrix is not None:
        matrix = _parse_matrix(args.matrix)
    else:
        matrix = [
            [Fraction(int(i == j)) for j in range(3)] for i in range(3)
        ]
    u = graph_point(matrix)
    component = unstable_component(u)
    payload = {
        "matrix": [[str(x) for x in row] for row in matrix],
        "point": [[str(x) for x in row] for row in u.rows],
        "intersection": list(intersection_dims(u)),
        "semistable": component is None,
        "component": component,
    }
    _write(args, payload, _stratify_rows(payload), out)
    return EXIT_OK


def _point_label(p) -> str:
    first = "".join(str(i) for i in p.first)
    second = "".join(str(j) for j in p.second)
    return f"{first}|{second}"


def _fixed_point_rows(payload: dict):
    for e in payload["points"]:
        yield ("point", e["index"], e["cstar"], e["component"] or "none")
    for key in sorted(payload["counts"]):
        yield ("count", key, payload["counts"][key])


def _git_fixed_points(args, out: TextIOBase) -> int:
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
    payload = {"points": entries, "counts": counts}
    _write(args, payload, _fixed_point_rows(payload), out)
    return EXIT_OK


def _module_rows(payload: dict):
    for s in payload["summands"]:
        yield ("summand", _joined(s["highest_weight"]), s["cstar"], s["dim"])
    yield ("total", payload["total"])


def _git_module(args, out: TextIOBase) -> int:
    summands = decompose_module()
    payload = {
        "summands": [
            {
                "highest_weight": list(s.highest_weight.coords),
                "cstar": s.cstar,
                "dim": s.dim,
            }
            for s in summands
        ],
        "total": sum(s.dim for s in summands),
    }
    _write(args, payload, _module_rows(payload), out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# schubert

def _kempf_rows(payload: dict):
    yield ("cell", payload["cell"])
    yield ("k", payload["k"])
    yield ("window", _joined(payload["window"], ":"))
    yield ("height-cutoff", payload["height_cutoff"])
    low, high = payload["min_degree"], payload["max_degree"]
    yield ("min-degree", "-" if low is None else low)
    yield ("max-degree", "-" if high is None else high)
    for d, lower, upper in payload["degrees"]:
        yield ("degree", d, lower, upper)


def _cmd_schubert(args, out: TextIOBase) -> int:
    cell, k = args.cell, args.k
    cutoff = DEFAULT_HEIGHT_CUTOFF if args.height_cutoff is None else args.height_cutoff
    window = bounds_window(cell, k) if args.window is None else args.window
    bounds = unstable_character_bounds(cell, k, window, cutoff)
    lower_dims, upper_dims = map(_degree_dimensions, bounds)
    payload = {
        "cell": cell,
        "k": k,
        "window": list(window),
        "height_cutoff": cutoff,
        "min_degree": min(upper_dims, default=None),
        "max_degree": max(upper_dims, default=None),
        "degrees": [
            [d, lower_dims.get(d, 0), upper_dims[d]] for d in sorted(upper_dims)
        ],
    }
    _write(args, payload, _kempf_rows(payload), out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# cohomology

def _cross_payload(report) -> dict:
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
            [list(w.coords), lo, found, hi] for w, lo, found, hi in report.rows
        ],
        "unverified": [list(w.coords) for w in report.unverified],
    }


def _cohomology_rows(payload: dict):
    yield ("coefficients", _joined(payload["coefficients"]))
    yield ("weight", _joined(payload["weight"]))
    yield ("degree", payload["degree"])
    yield ("profile", _joined(payload["profile"]) or "-")
    yield ("dimension", payload["character"]["dimension"])
    for coords, m in payload["character"]["terms"]:
        yield ("term", _joined(coords), m)
    cross = payload.get("cross_check")
    if cross is None:
        return
    yield ("cross-component", cross["component"] or "none")
    yield ("cross-certified", _yesno(cross["certified"]))
    yield ("cross-at-most-one", _yesno(cross["at_most_one"]))
    yield ("cross-consistent", _yesno(cross["ok"]))
    for coords, lo, found, hi in cross["rows"]:
        yield ("cross-row", _joined(coords), lo, found, hi)
    for coords in cross["unverified"]:
        yield ("cross-unverified", _joined(coords))
    for issue in cross["issues"]:
        yield ("cross-issue", issue)


def _cmd_cohomology(args, out: TextIOBase) -> int:
    coeffs = _parse_coefficients(args.lam)
    degree = args.degree
    if not 0 <= degree <= 8:
        raise InputError(f"degree must lie in 0..8, got {degree}")
    lam = spanning_weight(*coeffs)
    if args.box_radius is not None:
        certify_box(lam, args.box_radius)
    ch = h_character(lam, degree)
    payload: dict = {
        "coefficients": list(coeffs),
        "weight": list(lam.coords),
        "degree": degree,
        "profile": sorted(vanishing_profile(lam)),
        "character": _character_payload(ch),
    }
    status = EXIT_OK
    if degree == 3:
        report = cross_validate_h3(lam, args.height_cutoff)
        payload["cross_check"] = _cross_payload(report)
        if not report.certified:
            status = EXIT_CERTIFICATION
        elif not report.ok:
            status = EXIT_MISMATCH
    _write(args, payload, _cohomology_rows(payload), out)
    return status


# ---------------------------------------------------------------------------
# acceptance

def _acceptance_exit(report: AcceptanceReport) -> int:
    return min(
        (_ACCEPTANCE_EXITS[r.kind] for r in report.results if not r.passed),
        default=EXIT_OK,
    )


def _report_payload(report: AcceptanceReport) -> dict:
    data = report.to_dict(timed=False)
    data["exit_code"] = _acceptance_exit(report)
    return data


def _cmd_acceptance(args, out: TextIOBase) -> int:
    report = run_acceptance(args.seed)
    lines = ((line,) for line in report.lines(timed=False))
    _write(args, _report_payload(report), lines, out)
    return _acceptance_exit(report)


# ---------------------------------------------------------------------------
# parser assembly

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse would exit(2); route to the invalid-input exit code
        raise InputError(message)

    def _print_message(self, message, file):
        # argparse drops a failed write and exits 0; flush before that
        # exit so that main sees a closed reader as a BrokenPipeError
        if message:
            file.write(message)
            file.flush()


def _add_format(p: argparse.ArgumentParser, fmt: str = "tsv") -> None:
    """Register ``--format`` on ``p``, defaulting to ``fmt``."""
    p.add_argument(
        "--format",
        dest="fmt",
        choices=("tsv", "json"),
        default=fmt,
        help="output format (default: tsv)",
    )


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
    _add_format(p)
    p.set_defaults(func=_cmd_satake)

    p = sub.add_parser(
        "classify", help="operator-existence verdict for a diagram"
    )
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument(
        "--diagram", metavar="NAME", help="catalog entry to classify"
    )
    given.add_argument(
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
    _add_format(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser(
        "git", help="stability and strata of the 3-plane quotient model"
    )
    _add_format(p)
    actions = p.add_subparsers(
        dest="action",
        required=True,
        help="stratify a graph point, list fixed points, "
        "or show the module decomposition",
    )
    for action, func in (
        ("stratify", _git_stratify),
        ("fixed-points", _git_fixed_points),
        ("module", _git_module),
    ):
        a = actions.add_parser(action)
        # --format may come before the action too; only a given one overrides
        _add_format(a, argparse.SUPPRESS)
        a.set_defaults(func=func)
    actions.choices["stratify"].add_argument(
        "--matrix",
        metavar="R1:R2:R3",
        help="3x3 matrix, rows ':'-separated, entries ','-separated "
        "(default: identity)",
    )

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
        "--k", required=True, type=int, help="line bundle power; --cell F2 reads "
        "the first stratum at -K, as the degree-3 check does for level -K bundles"
    )
    _add_format(p)
    p.add_argument(
        "--window",
        metavar="LO:HI",
        help="truncation window in scaling degrees",
    )
    p.add_argument(
        "--height-cutoff",
        metavar="H",
        type=int,
        help="denominator height cutoff for series expansions",
    )
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
    _add_format(p)
    p.add_argument(
        "--height-cutoff",
        metavar="H",
        type=int,
        help="denominator height cutoff of the degree-3 cross-check "
        f"(default: the least from {DEFAULT_HEIGHT_CUTOFF} up that certifies "
        "it); other degrees ignore it",
    )
    p.add_argument(
        "--box-radius",
        metavar="R",
        type=int,
        help="radius of the offset box to certify the enumeration in",
    )
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser(
        "acceptance", help="run the end-to-end check suite"
    )
    _add_format(p)
    p.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="seed for sampled checks (default: %(default)s)",
    )
    p.set_defaults(func=_cmd_acceptance)

    return parser


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
        _check_flags(args)
        return args.func(args, out)
    except BrokenPipeError:
        if out is sys.stdout:  # keep the interpreter's final flush quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return EXIT_BROKEN_PIPE
    except SystemExit as exc:  # argparse --help
        return exc.code if isinstance(exc.code, int) else 0
    except BoxTooSmallError as exc:
        print(f"certification failure: {exc}", file=err)
        return EXIT_CERTIFICATION
    except (InputError, DiagramError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_INPUT
    except (AssertionError, ValueError) as exc:
        print(f"internal error: {exc}", file=err)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
