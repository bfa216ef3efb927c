"""Command-line interface: examples, formats, exit codes, determinism."""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wonderco
from wonderco import schubert
from wonderco.acceptance import AcceptanceReport, CriterionResult
from wonderco.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CERTIFICATION,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_MISMATCH,
    EXIT_OK,
    InputError,
    _merge_signed_values,
    _parse_coefficients,
    _parse_matrix,
    _parse_window,
    _report_payload,
    build_parser,
    main,
)
from wonderco.rootsys import Weight
from wonderco.satake import catalog_names
from wonderco.schubert import TruncatedSeries
from wonderco.wondercoh import certify_box


def run_cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def rows_of(text: str) -> list[list[str]]:
    return [line.split("\t") for line in text.splitlines()]


def lookup(text: str, tag: str) -> list[list[str]]:
    return [row[1:] for row in rows_of(text) if row[0] == tag]


class TestExamples:
    def test_classify_paired_diagram(self):
        code, out, _ = run_cli("classify", "--diagram", "PGL6-PSp6")
        assert code == EXIT_OK
        assert lookup(out, "exists") == [["yes"]]
        assert lookup(out, "minimal") == [["1,1"]]
        assert lookup(out, "restricted") == [["A2"]]

    def test_kempf_series_floor(self):
        code, out, _ = run_cli("schubert", "kempf", "--cell", "F1", "--k", "2")
        assert code == EXIT_OK
        assert lookup(out, "min-degree") == [["10"]]

    def test_stratify_identity_graph(self):
        code, out, _ = run_cli("git", "stratify")
        assert code == EXIT_OK
        assert lookup(out, "component") == [["none"]]
        assert lookup(out, "semistable") == [["yes"]]


class TestClassify:
    def test_inline_split_rank_three(self):
        code, out, _ = run_cli("classify", "--spec", "type A3")
        assert code == EXIT_OK
        assert lookup(out, "exists") == [["no"]]
        assert lookup(out, "minimal") == []
        assert lookup(out, "solutions-within-bound") == [["0"]]

    def test_inline_directives_with_semicolons(self):
        code, out, _ = run_cli(
            "classify", "--spec", "type A2; arrow 1 2", "--format", "json"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["exists"] is True
        assert data["restricted"] == "BC1"
        assert data["minimal"] == [[1]]

    def test_needs_a_diagram(self):
        # exactly one of --diagram and --spec: neither, or both, is refused
        code, out, err = run_cli("classify")
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "error: one of the arguments --diagram --spec is required\n"
        code, out, err = run_cli("classify", "--diagram", "GxG-A2", "--spec", "type A1")
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "error: argument --spec: not allowed with argument --diagram\n"

    def test_unknown_name(self):
        # satake and classify read the catalog through one route
        available = ", ".join(catalog_names())
        for command in ("classify", "satake"):
            code, out, err = run_cli(command, "--diagram", "NOPE")
            assert (code, out) == (EXIT_INPUT, "")
            assert err == f"error: unknown diagram 'NOPE'; available: {available}\n"

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("type A2; black x", "invalid literal for int() with base 10: 'x'"),
            ("type Z3", "unknown series 'Z'"),
            ("type A0", "invalid rank 0 for series A"),
            ("type E9", "invalid rank 9 for series E"),
        ],
        ids=["vertex", "series", "rank-low", "rank-high"],
    )
    def test_bad_spec_is_invalid_input(self, spec, message):
        code, out, err = run_cli("classify", "--spec", spec)
        assert (code, out, err) == (EXIT_INPUT, "", f"error: {message}\n")

    def test_rank_two_solutions_are_diagonal(self):
        code, out, _ = run_cli(
            "classify", "--diagram", "split-A2", "--bound", "5",
            "--format", "json",
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["solutions"] == [[k, k] for k in range(1, 6)]


class TestSatake:
    def test_lists_whole_catalog(self):
        code, out, _ = run_cli("satake")
        assert code == EXIT_OK
        assert len(lookup(out, "diagram")) == 18

    def test_single_entry_json(self):
        code, out, _ = run_cli(
            "satake", "--diagram", "GxG-A2", "--format", "json"
        )
        assert code == EXIT_OK
        (entry,) = json.loads(out)["diagrams"]
        assert entry["restricted"] == "A2"
        assert entry["restricted_rank"] == 2
        assert entry["arrows"] == [[1, 3], [2, 4]]


class TestGit:
    def test_fixed_point_census(self):
        code, out, _ = run_cli("git", "fixed-points", "--format", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["counts"] == {"F1": 10, "F2": 10}
        assert len(data["points"]) == 20

    def test_module_summands(self):
        code, out, _ = run_cli("git", "module", "--format", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert [s["dim"] for s in data["summands"]] == [1, 9, 9, 1]
        assert [s["cstar"] for s in data["summands"]] == [3, 1, -1, -3]
        assert data["total"] == 20

    def test_stratify_degenerate_graph(self):
        code, out, _ = run_cli(
            "git", "stratify", "--matrix", "0,0,0:0,0,0:0,0,1"
        )
        assert code == EXIT_OK
        assert lookup(out, "component") == [["F1"]]
        assert lookup(out, "dim-meet-v") == [["2"]]

    def test_fractional_entries(self):
        code, out, _ = run_cli(
            "git", "stratify", "--matrix", "1/2,0,0:0,1,0:0,0,1",
            "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["component"] is None

    def test_bad_matrix_shape(self):
        code, _, err = run_cli("git", "stratify", "--matrix", "1,2:3")
        assert code == EXIT_INPUT
        assert "three" in err


def off_lattice(s):
    """A series' numerator moved off its root-lattice coset, and its terms."""
    return s.numerator_exponent + Weight((1, 0, 0, 0, 0)), dict(s.packed)


def negated(s):
    """A series' numerator, and its terms with negated multiplicities."""
    return s.numerator_exponent, {key: -m for key, m in s.packed.items()}


class TestSchubert:
    def test_mirror_cell_ceiling(self):
        code, out, _ = run_cli("schubert", "kempf", "--cell", "F2", "--k", "3")
        assert code == EXIT_OK
        assert lookup(out, "max-degree") == [["-5"]]

    def test_explicit_window_json(self):
        code, out, _ = run_cli(
            "schubert", "kempf", "--cell", "F1", "--k", "0",
            "--window", "0:12", "--format", "json",
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["min_degree"] == 8
        assert data["window"] == [0, 12]
        degrees = {d: upper for d, _, upper in data["degrees"]}
        assert set(degrees) <= set(range(8, 13))
        assert all(lo <= up for _, lo, up in data["degrees"])

    def test_empty_window_rejected(self):
        code, _, err = run_cli(
            "schubert", "kempf", "--cell", "F1", "--k", "0", "--window", "5:1"
        )
        assert code == EXIT_INPUT
        assert "empty window" in err

    @pytest.mark.parametrize(
        "argv,degrees,md5",
        [
            (
                ("--cell", "F1", "--k", "300", "--window", "308:310"),
                [[308, 80, 80], [310, 129, 129]],
                "be7ccec9b1cca80cd0d3e6358cea5fec",
            ),
            (
                ("--cell", "F2", "--k", "-300", "--window", "-310:-308"),
                [[-310, 129, 129], [-308, 80, 80]],
                "88869e678be8b0c4ce4d95129c052fc6",
            ),
        ],
        ids=["F1", "F2"],
    )
    def test_far_level_output_is_byte_identical(self, argv, degrees, md5):
        # recorded output, byte for byte; at level 300 the boundary
        # numerators sit 303 steps along a simple root from the open
        # cell's, far outside any key field
        code, out, _ = run_cli(
            "schubert", "kempf", *argv, "--height-cutoff", "6", "--format", "json"
        )
        assert code == EXIT_OK
        assert json.loads(out)["degrees"] == degrees
        assert hashlib.md5(out.encode()).hexdigest() == md5

    @pytest.mark.parametrize(
        "cell,k,window,cutoff,fmt,md5",
        [
            ("F1", -3, (-3, 7), 9, "tsv", "49924bf22c726b0e7ce12b53b14c686a"),
            ("F1", -3, (-3, 7), 9, "json", "6d3a28a2e941734793ca3ea2ed82cc6b"),
            ("F2", 4, (-6, 4), 16, "tsv", "4ec02b2a256c09eec9d3f9e3ba58f5eb"),
            ("F1", 0, (0, 20), 20, "tsv", "a571d0b68b203b7ebd80c071d28b1cab"),
        ],
        ids=["F1-tsv", "F1-json", "F2-tsv", "F1-wide-tsv"],
    )
    def test_cut_window_output_is_byte_identical(self, cell, k, window, cutoff, fmt, md5):
        # recorded output, byte for byte, on windows that start below the
        # open cell's numerator degree and end inside its full cone at the
        # cutoff, so every covering-cell series is a cut of a full cone
        lo, hi = window
        code, out, err = run_cli(
            "schubert", "kempf", "--cell", cell, "--k", str(k),
            f"--window={lo}:{hi}", "--height-cutoff", str(cutoff), "--format", fmt,
        )
        assert (code, err) == (EXIT_OK, "")
        assert hashlib.md5(out.encode()).hexdigest() == md5
        # the second stratum reads the first at -k on the reversed window
        level, cell_window = (k, window) if cell == "F1" else (-k, (-hi, -lo))
        for c in schubert.covering_cells():
            cone = schubert.kempf_character(c.w, level, cell_window, cutoff).cone
            assert cone._of_parent is not None, c.fixed_point

    @pytest.mark.parametrize(
        "alter,message",
        [
            (off_lattice, "boundary numerator off the open cell's lattice coset"),
            (negated, "nonpositive boundary multiplicity"),
        ],
        ids=["off-lattice", "nonpositive"],
    )
    def test_bounds_guards_are_internal_errors(self, monkeypatch, alter, message):
        real = schubert.kempf_character
        top = schubert.covering_cells()[0].w

        def altered_boundary(w, k, window, cutoff):
            s = real(w, k, window, cutoff)
            if w == top:
                return s
            num, packed = alter(s)
            return TruncatedSeries(
                num, s.denominator, s.window, s.height_cutoff,
                schubert._Cone(s.bits, packed),
            )

        monkeypatch.setattr(schubert, "kempf_character", altered_boundary)
        # bounds cached by an earlier test would never reach the patch
        schubert._stratum_bounds.cache_clear()
        with pytest.raises(AssertionError, match=message):
            schubert.unstable_character_bounds("F1", 1, (1, 13), 12)
        code, out, err = run_cli("schubert", "kempf", "--cell", "F1", "--k", "1")
        assert code == EXIT_INTERNAL == 4
        assert out == ""
        assert err == f"internal error: {message}\n"
        # the degree-3 cross-check reads the same bounds
        code, out, err = run_cli("cohomology", "--lambda", "-4,2,0,0", "--i", "3")
        assert code == EXIT_INTERNAL
        assert out == ""
        assert err == f"internal error: {message}\n"

    def test_boundary_shift_across_fields_is_internal_error(self, monkeypatch):
        # the stratum subtraction masks one key field per boundary cell, so a
        # boundary numerator moved along two simple roots is an internal bug
        real = schubert.root_lattice_coords

        def two_fields(system, v):
            s = real(system, v)
            return None if s is None else (s[0] + 1, *s[1:4], s[4] + 1)

        monkeypatch.setattr(schubert, "root_lattice_coords", two_fields)
        # shifts and bounds cached by an earlier test would never reach it
        schubert._boundary_shifts.cache_clear()
        schubert._stratum_bounds.cache_clear()
        message = "boundary shift moves more than one field"
        with pytest.raises(AssertionError, match=message):
            schubert.unstable_character_bounds("F1", 1, (1, 13), 12)
        for argv in (
            ("schubert", "kempf", "--cell", "F2", "--k", "-2"),
            ("cohomology", "--lambda", "-4,2,0,0", "--i", "3"),
        ):
            code, out, err = run_cli(*argv)
            assert code == EXIT_INTERNAL == 4
            assert out == ""
            assert err == f"internal error: {message}\n"


class TestCohomology:
    def test_global_sections(self):
        code, out, _ = run_cli(
            "cohomology", "--lambda", "1,1,0,0", "--i", "0", "--format", "json"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["weight"] == [1, 1, 1, 1]
        assert data["profile"] == [0]
        assert data["character"]["dimension"] == 65

    def test_vanishing_degree_is_empty(self):
        code, out, _ = run_cli(
            "cohomology", "--lambda", "1,1,0,0", "--i", "1", "--format", "json"
        )
        assert code == EXIT_OK
        assert json.loads(out)["character"]["terms"] == []

    def test_middle_degree_cross_check(self):
        code, out, _ = run_cli(
            "cohomology", "--lambda", "-4,2,0,0", "--i", "3", "--format", "json"
        )
        assert code == EXIT_OK
        data = json.loads(out)["cross_check"]
        assert data["certified"] is True
        assert data["ok"] is True
        assert data["component"] == "F1"
        assert all(lo <= found <= hi for _, lo, found, hi in data["rows"])

    def test_tsv_cross_rows(self):
        code, out, _ = run_cli("cohomology", "--lambda", "-4,2,0,0", "--i", "3")
        assert code == EXIT_OK
        assert lookup(out, "cross-component") == [["F1"]]
        assert lookup(out, "cross-consistent") == [["yes"]]
        assert lookup(out, "cross-certified") == [["yes"]]

    @pytest.mark.parametrize(
        "lam,extra,fmt,md5,exit_code",
        [
            ("-2,-2,-2,-2", (), "tsv", "307ccf0840b7e84ec468834b2aa43f58", EXIT_OK),
            ("-2,-2,-2,-2", (), "json", "653613513704f2833e6b9e6720a8ddeb", EXIT_OK),
            (
                "-2,0,-2,2", ("--height-cutoff", "8"), "tsv",
                "e87441ab06f63ec36fec420c3640e51f", EXIT_CERTIFICATION,
            ),
            (
                "-2,0,-2,2", ("--height-cutoff", "8"), "json",
                "75ac902bbd73cd878ee236cc22ab0462", EXIT_CERTIFICATION,
            ),
            ("-2,-2,-2,2", (), "tsv", "2c6e25bb02aa9c0d707de7d1d0a1cc0a", EXIT_OK),
            ("-2,-2,-2,2", (), "json", "e731adefd741b2a513625d9898e005be", EXIT_OK),
            ("-2,-2,2,-2", (), "tsv", "35691dfea833d21f1d6157f61c1d643b", EXIT_OK),
            ("-2,-2,2,-2", (), "json", "7765b1d8c2eb0c5ee22d7049cf76cabe", EXIT_OK),
            ("-5,6,0,0", (), "tsv", "9f0ff264b9ba02677ea375fad4fe680f", EXIT_OK),
            ("-5,6,0,0", (), "json", "36a8cc6423951258fe6707cdaeeb7296", EXIT_OK),
            ("6,-4,0,0", (), "tsv", "b59946a45814740eeb8be2ad6d43e9e4", EXIT_OK),
            ("6,-4,0,0", (), "json", "3a321e233e69f3b0c3b3eff1b96f227d", EXIT_OK),
            ("5,-5,0,0", (), "tsv", "4fb01b10c648371a00b31e4fffdb3468", EXIT_OK),
            ("5,-5,0,0", (), "json", "de4194c27df8d17864bc202178a89031", EXIT_OK),
            ("-4,-4,0,0", (), "tsv", "8e8557e615e144ad0f7cff8543707fe7", EXIT_OK),
            ("-4,-4,0,0", (), "json", "7e7f73f380328822cf5af22125dd59f5", EXIT_OK),
        ],
        ids=[
            "both-tsv", "both-json", "cutoff8-tsv", "cutoff8-json",
            "F1-tsv", "F1-json", "F2-tsv", "F2-json",
            "F1-auto17-tsv", "F1-auto17-json", "F2-auto16-tsv", "F2-auto16-json",
            "F2-auto13-tsv", "F2-auto13-json",
            "both-slack-tsv", "both-slack-json",
        ],
    )
    def test_cross_check_output_is_byte_identical(self, lam, extra, fmt, md5, exit_code):
        # recorded output, byte for byte: a bundle both strata reach (936
        # unverified weights), an uncertified low cutoff, a first-stratum
        # bundle with one certified row beside 139 unverified weights, and
        # its mirror, which only the second stratum reaches; then bundles
        # whose auto cutoff is above the default (17 on the first stratum,
        # 16 and 13 on the second), and one both strata reach at slack -5
        # (936 unverified weights)
        code, out, _ = run_cli(
            "cohomology", "--lambda", lam, "--i", "3", *extra, "--format", fmt
        )
        assert code == exit_code
        assert hashlib.md5(out.encode()).hexdigest() == md5

    def test_small_box_fails_certification(self):
        code, _, err = run_cli(
            "cohomology", "--lambda", "3,3,0,0", "--i", "0", "--box-radius", "1"
        )
        assert code == EXIT_CERTIFICATION
        assert "certification failure" in err

    def test_box_radius_is_certified_once_before_any_computation(self, monkeypatch):
        # (3, 3) needs radius 6: the CLI refuses radius 5 with the library's
        # message before it computes anything, checks the degree first, and
        # names no radius when the flag is absent
        certified = []

        def certify(lam, radius):
            certified.append(radius)
            certify_box(lam, radius)

        def no_computation(*args):
            raise AssertionError("computed before the box was certified")

        monkeypatch.setattr(wonderco.cli, "certify_box", certify)
        with monkeypatch.context() as m:
            m.setattr(wonderco.cli, "h_character", no_computation)
            coh = ("cohomology", "--lambda", "3,3,0,0")
            code, out, err = run_cli(*coh, "--i", "0", "--box-radius", "5")
            assert (code, out, certified) == (EXIT_CERTIFICATION, "", [5])
            assert err == (
                "certification failure: box radius 5 cannot certify completeness "
                "for weight (3, 3); the sign constraints stay satisfiable out to "
                "radius 6\n"
            )
            assert run_cli(*coh, "--i", "9", "--box-radius", "5")[0] == EXIT_INPUT
            assert certified == [5]
        assert run_cli(*coh, "--i", "0", "--box-radius", "6")[0] == EXIT_OK
        assert run_cli(*coh, "--i", "0")[0] == EXIT_OK
        assert certified == [5, 6]

    def test_huge_box_matches_default_box(self):
        # the layer check costs the same at any radius, so a box of
        # radius 10**6 answers at once, and as the default box does
        argv = ("cohomology", "--lambda", "2,1,0,-1", "--i", "0")
        code, out, err = run_cli(*argv, "--box-radius", "1000000")
        assert code == EXIT_OK and err == ""
        assert (code, out, err) == run_cli(*argv)

    def test_degree_out_of_range(self):
        code, _, err = run_cli("cohomology", "--lambda", "0,0,0,0", "--i", "9")
        assert code == EXIT_INPUT
        assert "0..8" in err

    def test_malformed_coefficients(self):
        for text in ("1,2", "a,b,c,d", "1,2,3,4,5"):
            code, _, err = run_cli("cohomology", "--lambda", text, "--i", "0")
            assert code == EXIT_INPUT, text
            assert "error:" in err


class TestAcceptanceCommand:
    def test_full_run(self):
        code, out, _ = run_cli("acceptance")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 11
        assert lines[-1] == "10/10 criteria passed"
        assert all(line.startswith("criterion") for line in lines[:-1])
        assert all("(" + "0." not in line for line in lines)
        assert hashlib.md5(out.encode()).hexdigest() == "42629bf65753085acaf11687f74a43d9"


class TestReportRendering:
    def _report(self) -> AcceptanceReport:
        results = (
            CriterionResult(1, "first", True, "ok", 1.25, "fine"),
            CriterionResult(2, "second", False, "mismatch", 0.5, "off"),
        )
        return AcceptanceReport(7, results)

    def test_lines_carry_no_timings(self):
        lines = self._report().lines(timed=False)
        assert lines == [
            "criterion  1/10 PASS first: fine",
            "criterion  2/10 FAIL second: off",
            "1/2 criteria passed",
        ]

    def test_payload_strips_elapsed(self):
        payload = _report_payload(self._report())
        assert payload["exit_code"] == EXIT_MISMATCH
        assert all("elapsed" not in c for c in payload["criteria"])
        assert payload["criteria"][1]["kind"] == "mismatch"


class TestPlumbing:
    def test_help_exits_clean(self):
        assert run_cli("--help")[0] == EXIT_OK
        assert run_cli("schubert", "--help")[0] == EXIT_OK

    def test_help_goes_to_out(self, capsys):
        # argparse prints help itself; it lands on the stream main was given
        for argv in ((), ("satake",)):
            code, out, err = run_cli(*argv, "--help")
            usage = " ".join(("usage: wonderco", *argv, ""))
            assert code == EXIT_OK
            assert out.startswith(usage) and err == ""
        assert capsys.readouterr() == ("", "")

    def test_closed_reader_exits_quietly(self):
        # a reader that leaves early (``| head``) ends the run with the
        # shell's SIGPIPE status and nothing on stderr
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        err = io.StringIO()
        argv = ["cohomology", "--lambda", "-5,6,0,0", "--i", "3"]
        assert main(argv, out=ClosedPipe(), err=err) == EXIT_BROKEN_PIPE == 141
        assert err.getvalue() == ""

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv",
        [("git", "module"), ("cohomology", "--lambda=-5,6,0,0", "--i", "3")],
        ids=["short", "long"],
    )
    def test_closed_reader_of_a_child_exits_quietly(self, argv, unbuffered):
        # the pipe's read end is closed before the child starts, so its
        # first write or flush fails; output short enough to sit in the
        # buffer fails at the flush, and the interpreter's final flush
        # must not print the error either
        proc = run_child_into_closed_pipe(argv, PYTHONUNBUFFERED=unbuffered)
        assert proc.returncode == EXIT_BROKEN_PIPE
        assert proc.stderr == ""

    @pytest.mark.parametrize(
        "argv, unbuffered",
        [
            pytest.param(argv, unbuffered, id=name + suffix)
            for name, argv in (
                ("help", ("--help",)),
                ("subcommand-help", ("schubert", "--help")),
            )
            for unbuffered, suffix in (("", ""), ("1", "-unbuffered"))
        ],
    )
    def test_help_to_closed_reader_of_a_child_exits_quietly(self, argv, unbuffered):
        # argparse prints the help and exits before any command runs, and
        # drops a failed write itself, so the write must fail (unbuffered)
        # or be flushed (buffered) where main sees it
        proc = run_child_into_closed_pipe(argv, PYTHONUNBUFFERED=unbuffered)
        assert proc.returncode == EXIT_BROKEN_PIPE
        assert proc.stderr == ""

    def test_missing_subcommand(self):
        code, _, err = run_cli()
        assert code == EXIT_INPUT
        assert "error:" in err

    def test_unknown_subcommand(self):
        assert run_cli("frobnicate")[0] == EXIT_INPUT

    @pytest.mark.parametrize(
        "argv",
        [
            ("satake", "--seed", "1"),
            ("schubert", "kempf", "--cell", "F1", "--k", "0", "--box-radius", "2"),
            ("git", "module", "--matrix", "1,2,3:4,5,6:7,8,9"),
            ("git", "fixed-points", "--matrix", "1,2,3:4,5,6:7,8,9"),
            ("cohomology", "--lambda", "-4,2,0,0", "--i", "0", "--window", "0:5"),
            ("acceptance", "--samples", "2"),
            ("acceptance", "--window", "0:40"),
            ("acceptance", "--height-cutoff", "12"),
            ("acceptance", "--box-radius", "5"),
        ],
        ids=[
            "satake-seed", "schubert-box-radius", "module-matrix",
            "fixed-points-matrix", "cohomology-window", "acceptance-samples",
            "acceptance-window", "acceptance-height-cutoff", "acceptance-box-radius",
        ],
    )
    def test_flag_the_subcommand_does_not_read(self, argv):
        code, out, err = run_cli(*argv)
        assert code == EXIT_INPUT
        assert out == ""
        assert "unrecognized arguments" in err

    def test_internal_guard_is_its_own_failure_class(self, monkeypatch):
        def broken_guard(*args, **kwargs):
            raise AssertionError("the doubled diagram must restrict to rank two")

        monkeypatch.setattr(wonderco.cli, "h_character", broken_guard)
        code, out, err = run_cli("cohomology", "--lambda", "1,1,0,0", "--i", "0")
        assert code == EXIT_INTERNAL == 4
        assert out == ""
        assert err == (
            "internal error: the doubled diagram must restrict to rank two\n"
        )

        # a library value check that no user input reaches is internal too
        def broken_value_check(*args, **kwargs):
            raise ValueError("highest weight (0, -1) is not dominant")

        monkeypatch.setattr(wonderco.cli, "h_character", broken_value_check)
        code, out, err = run_cli("cohomology", "--lambda", "1,1,0,0", "--i", "0")
        assert (code, out) == (EXIT_INTERNAL, "")
        assert err == "internal error: highest weight (0, -1) is not dominant\n"

    def test_signed_value_merge(self):
        argv = ["cohomology", "--lambda", "-4,2,0,0", "--i", "3"]
        merged = _merge_signed_values(argv)
        assert merged == ["cohomology", "--lambda=-4,2,0,0", "--i", "3"]
        kept = ["schubert", "--window", "--format"]
        assert _merge_signed_values(kept) == kept

    def test_window_parser(self):
        assert _parse_window("0:40") == (0, 40)
        assert _parse_window("-40:0") == (-40, 0)
        for bad in ("40", "a:b", "1:2:3", ""):
            with pytest.raises(InputError):
                _parse_window(bad)

    def test_empty_window_is_malformed(self):
        # a given --window is parsed as _parse_window parses it, "" included
        argv = ("schubert", "kempf", "--cell", "F1", "--k", "0", "--window", "")
        code, out, err = run_cli(*argv)
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "error: window must be two integers as LO:HI, got ''\n"

    def test_coefficient_parser(self):
        assert _parse_coefficients("-1,2,0,3") == (-1, 2, 0, 3)
        for bad in ("1,2,3", "1,2,3,x"):
            with pytest.raises(InputError):
                _parse_coefficients(bad)

    def test_matrix_parser(self):
        rows = _parse_matrix("1/2,0,0:0,1,0:0,0,-2")
        assert rows[0][0] * 2 == 1
        for bad in ("1,2,3", "1,2,3:4,5,6:7,8,x"):
            with pytest.raises(InputError):
                _parse_matrix(bad)

    def test_config_validation(self):
        kempf = ("schubert", "kempf", "--cell", "F1", "--k", "0")
        coh = ("cohomology", "--lambda", "0,0,0,0", "--i", "0")
        for argv, message in (
            ((*kempf, "--window", "5:1"), "empty window 5:1"),
            ((*kempf, "--height-cutoff", "0"), "height cutoff must be at least 1"),
            ((*coh, "--box-radius", "-1"), "box radius must be nonnegative"),
            ((*kempf, "--format", "xml"), "invalid choice: 'xml'"),
        ):
            code, out, err = run_cli(*argv)
            assert (code, out) == (EXIT_INPUT, ""), argv
            assert err.startswith("error: ") and message in err, argv


# the flags of each subcommand and git action, each with the caller that
# needs it
CLI_OPTIONS = {
    "satake": {
        "--diagram": "shows one catalog entry instead of all 18",
        "--format": "JSON for scripts that read the restricted data",
    },
    "classify": {
        "--diagram": "classifies a catalog entry",
        "--spec": "classifies a diagram outside the catalog",
        "--bound": "sizes the exponent box of the solution listing",
        "--format": "JSON for scripts that read the verdict",
    },
    "git": {"--format": "may come before the action, as after it"},
    "git stratify": {
        "--format": "JSON for scripts that read the placement",
        "--matrix": "the graph point to place; the identity by default",
    },
    "git fixed-points": {"--format": "JSON for scripts that read the strata"},
    "git module": {"--format": "JSON for scripts that read the summands"},
    "schubert": {
        "--cell": "names the stratum whose series is expanded",
        "--k": "the line bundle power; with --cell F2 the first stratum is read "
        "at -k, the side the degree-3 cross-check reads for the bundles at "
        "level -k",
        "--window": "the degrees shown; the windows of criterion 4 by default",
        "--height-cutoff": "widens the certified region of the expansion",
        "--format": "JSON for scripts that read the bounds",
    },
    "cohomology": {
        "--lambda": "names the line bundle",
        "--i": "the cohomological degree",
        "--height-cutoff": "fixes the degree-3 cross-check's cutoff, as the "
        "uncertified cutoff-8 pins do",
        "--box-radius": "certifies the enumeration in a box the user names",
        "--format": "JSON for scripts that read the character and the report",
    },
    "acceptance": {
        "--seed": "reruns the sampled criteria on other draws (the --seed 7 pin)",
        "--format": "JSON for scripts that read the verdicts",
    },
}


def cli_options(parser, prefix=()) -> dict[str, set[str]]:
    """The flags of each subcommand and ``git`` action, by its command
    words, ``--help`` left out."""
    found = {}
    if prefix:
        found[" ".join(prefix)] = {
            flag
            for action in parser._actions
            for flag in action.option_strings
            if flag not in ("-h", "--help")
        }
    for action in parser._actions:
        for name, sub in getattr(action, "_name_parser_map", {}).items():
            found.update(cli_options(sub, (*prefix, name)))
    return found


def test_every_flag_has_a_caller_or_a_reason():
    # a new flag needs an entry above, with the caller that needs it
    assert cli_options(build_parser()) == {
        command: set(flags) for command, flags in CLI_OPTIONS.items()
    }


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv,md5",
        [
            (("satake",), "1c2026b0a7db2a108df3c5aaa408826d"),
            (("satake", "--format", "json"), "d186c36a3834c043e6a15ba4389761d1"),
            (("satake", "--diagram", "GxG-A2"), "5b278001fe1a2a784e33a2432acdf8e2"),
            (
                ("satake", "--diagram", "GxG-A2", "--format", "json"),
                "f94bab365e64ef67543f1ea1f0fa05d6",
            ),
            (
                ("classify", "--diagram", "PGL6-PSp6"),
                "d920919a6e16c575fd90c2d3c62abe36",
            ),
            (
                ("classify", "--diagram", "PGL6-PSp6", "--format", "json"),
                "45728dd3ccaea9cde6a7b51a325a481e",
            ),
            (
                ("classify", "--spec", "type A2; arrow 1 2"),
                "fc1f6f5596d244cec792470fcaf82c94",
            ),
            (
                ("classify", "--spec", "type A2; arrow 1 2", "--format", "json"),
                "cbb82c57f0c556ac10e480f340ff6fb9",
            ),
            (
                ("git", "stratify", "--matrix", "1/2,0,0:0,0,0:0,0,0"),
                "b8f7a01d60c0dd6e6eca6e87539478b8",
            ),
            (
                ("git", "stratify", "--matrix", "1/2,0,0:0,0,0:0,0,0", "--format", "json"),
                "0355c207dbc384c3b2392969ceb0f1d3",
            ),
            (("git", "fixed-points"), "41eed277c9a2370610db0ce7af42ccc9"),
            (
                ("git", "fixed-points", "--format", "json"),
                "c00d8918a87a6d23cb1eac1906152218",
            ),
            (("git", "module"), "f764906d96b45990991490543062e823"),
            (("git", "module", "--format", "json"), "a741365838ed3820250af9a03a0c6b57"),
            (
                ("schubert", "kempf", "--cell", "F1", "--k", "2"),
                "ee623c8346771b3dcbd8bab5575faee9",
            ),
            (
                ("schubert", "kempf", "--cell", "F2", "--k", "3"),
                "63a4062d9ecf3975ac1a7586d4ffe63d",
            ),
            (
                ("schubert", "kempf", "--cell", "F1", "--k", "0", "--window", "0:5"),
                "cca36838afdac34425018e84bc9150e8",
            ),
            (
                (
                    "schubert", "kempf", "--cell", "F1", "--k", "0",
                    "--window", "0:5", "--format", "json",
                ),
                "ab945629d793b54bdcbbb377e9d75d64",
            ),
            (
                ("cohomology", "--lambda", "-3,-3,-2,1", "--i", "5"),
                "384d1da3b7900ce39506bed3143af15f",
            ),
            (
                ("cohomology", "--lambda", "-3,-3,-2,1", "--i", "5", "--format", "json"),
                "908f16263ea96ba7ade4b092c6cbde7c",
            ),
        ],
        ids=[
            "satake-tsv", "satake-json", "satake-one-tsv", "satake-one-json",
            "classify-diagram-tsv", "classify-diagram-json",
            "classify-spec-tsv", "classify-spec-json",
            "stratify-tsv", "stratify-json", "fixed-points-tsv", "fixed-points-json",
            "module-tsv", "module-json", "kempf-F1-tsv", "kempf-F2-tsv",
            "kempf-empty-tsv", "kempf-empty-json", "cohomology-h5-tsv",
            "cohomology-h5-json",
        ],
    )
    def test_recorded_output_is_byte_identical(self, argv, md5):
        # recorded output, byte for byte, for each subcommand and format;
        # the empty Kempf window prints the missing-degree placeholders
        code, out, err = run_cli(*argv)
        assert (code, err) == (EXIT_OK, "")
        assert hashlib.md5(out.encode()).hexdigest() == md5

    def test_byte_identical_reruns(self):
        argvs = (
            ("satake", "--format", "json"),
            ("cohomology", "--lambda", "2,-1,1,0", "--i", "5", "--format", "json"),
            ("git", "fixed-points",),
        )
        for argv in argvs:
            first = run_cli(*argv)
            second = run_cli(*argv)
            assert first == second, argv

    def test_json_round_trips(self):
        _, out, _ = run_cli(
            "cohomology", "--lambda", "-4,2,0,0", "--i", "3", "--format", "json"
        )
        data = json.loads(out)
        assert json.dumps(data, sort_keys=True, indent=2) + "\n" == out


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# What an installer writes for a ``[project.scripts]`` entry (pip's template).
SCRIPT_TEMPLATE = """\
#!{python}
import re
import sys
from {module} import {name}
if __name__ == "__main__":
    sys.argv[0] = re.sub(r"(-script\\.pyw|\\.exe)?$", "", sys.argv[0])
    sys.exit({attr}())
"""


def run_child_into_closed_pipe(argv, **env: str) -> subprocess.CompletedProcess:
    """Run the CLI in a child whose stdout pipe had its read end closed
    before the child started, capturing its stderr."""
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run(
            [sys.executable, "-m", "wonderco", *argv],
            stdout=write, stderr=subprocess.PIPE, text=True, env=child_env(**env),
        )
    finally:
        os.close(write)


def child_env(**extra: str) -> dict[str, str]:
    """Environment in which a child process imports the package under test."""
    env = dict(os.environ, **extra)
    root = str(Path(wonderco.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p
    )
    return env


class TestConsoleEntry:
    @pytest.mark.skipif(
        not PYPROJECT.is_file(), reason="no source tree with pyproject.toml"
    )
    def test_installed_script(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            entry = tomllib.load(fh)["project"]["scripts"]["wonderco"]
        module, _, attr = entry.partition(":")
        script = tmp_path / "wonderco"
        script.write_text(
            SCRIPT_TEMPLATE.format(
                python=sys.executable,
                module=module,
                name=attr.split(".")[0],
                attr=attr,
            )
        )
        script.chmod(0o755)
        env = child_env(PATH=os.pathsep.join([str(tmp_path), os.environ["PATH"]]))

        def run(*argv: str) -> subprocess.CompletedProcess:
            return subprocess.run(
                ["wonderco", *argv], capture_output=True, text=True, env=env
            )

        proc = run("--help")
        assert proc.returncode == 0
        assert "usage: wonderco" in proc.stdout

        proc = run("git", "module")
        assert proc.returncode == EXIT_OK
        assert proc.stdout.splitlines()[-1] == "total\t20"

        proc = run("classify", "--bogus")
        assert proc.returncode == EXIT_INPUT
        assert "error:" in proc.stderr

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wonderco", "git", "module"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "total\t20"
