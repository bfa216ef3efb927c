"""End-to-end acceptance run: one test per criterion, plus engine plumbing."""

import hashlib
import io
import json
import random
import shutil

import pytest

from wonderco import acceptance, satake
from wonderco.acceptance import (
    NONZERO_H3_SAMPLES,
    AcceptanceReport,
    FixtureError,
    _sampled_coefficients,
    fixtures_dir,
    load_fixture,
    run_acceptance,
)
from wonderco.cli import EXIT_OK, _report_payload


@pytest.fixture(scope="module")
def run_output() -> tuple[AcceptanceReport, str]:
    buf = io.StringIO()
    result = run_acceptance(stream=buf)
    return result, buf.getvalue()


@pytest.fixture(scope="module")
def report(run_output) -> AcceptanceReport:
    return run_output[0]


def _require(report, number):
    result = report.results[number - 1]
    assert result.number == number
    assert result.passed, result.line()
    return result


class TestCriteria:
    def test_criterion_01_operator_classification(self, report):
        result = _require(report, 1)
        assert result.elapsed < 5.0

    def test_criterion_02_module_decomposition(self, report):
        _require(report, 2)

    def test_criterion_03_inversion_sets(self, report):
        _require(report, 3)

    def test_criterion_04_degree_bounds(self, report):
        result = _require(report, 4)
        assert result.elapsed < 10.0

    def test_criterion_05_leading_exponents(self, report):
        _require(report, 5)

    def test_criterion_06_fixed_point_combinatorics(self, report):
        _require(report, 6)

    def test_criterion_07_vanishing_degrees(self, report):
        _require(report, 7)

    def test_criterion_08_serre_duality(self, report):
        _require(report, 8)

    def test_criterion_09_cross_route_bounds(self, report):
        result = _require(report, 9)
        # the sample must actually exercise nonzero middle cohomology
        assert "(9 with nonzero middle cohomology)" in result.detail

    def test_criterion_10_oracle_agreement(self, report):
        _require(report, 10)


class TestReport:
    def test_all_passed(self, report):
        assert report.passed
        assert _report_payload(report)["exit_code"] == EXIT_OK

    def test_one_line_per_criterion(self, report):
        lines = report.lines()
        assert len(lines) == 11
        for number, line in enumerate(lines[:10], start=1):
            assert line.startswith(f"criterion {number:>2}/10 ")
            assert " PASS " in line or " FAIL " in line
            assert "\n" not in line
        assert lines[10] == "10/10 criteria passed"

    def test_json_round_trip(self, report):
        data = json.loads(json.dumps(report.to_dict(), sort_keys=True))
        assert data["passed"] is True
        assert [c["number"] for c in data["criteria"]] == list(range(1, 11))
        assert all(c["kind"] == "ok" for c in data["criteria"])

    def test_recorded_report_is_byte_identical(self, report):
        # recorded details and payload of the default run, byte for byte
        lines = "\n".join(report.lines(timed=False))
        payload = json.dumps(_report_payload(report), sort_keys=True)
        assert hashlib.md5(lines.encode()).hexdigest() == "5ca59bc5ca032d54f3ba99e2e7601613"
        assert hashlib.md5(payload.encode()).hexdigest() == "7f9ceada723ae550ac36f9461d0aaa96"

    def test_stream_output_matches_lines(self, run_output):
        result, streamed = run_output
        assert streamed.splitlines() == result.lines()


class TestDeterminism:
    def test_sampler_reproducible(self):
        a = _sampled_coefficients(random.Random(7), 20)
        b = _sampled_coefficients(random.Random(7), 20)
        assert a == b
        assert len(set(a)) == 20
        assert all(abs(c) <= 5 for t in a for c in t)

    def test_config_rng_isolated_per_criterion(self, monkeypatch):
        # criterion n draws from its own random.Random(seed * 101 + n),
        # fresh on each run
        drawn = []

        def check(rng):
            drawn.append(rng.random())
            return "drawn"

        criteria = ((8, "eight", check, None), (9, "nine", check, None))
        monkeypatch.setattr(acceptance, "_CRITERIA", criteria)
        run_acceptance(seed=3)
        run_acceptance(seed=3)
        eight, nine = (random.Random(3 * 101 + n).random() for n in (8, 9))
        assert drawn == [eight, nine, eight, nine]
        assert eight != nine


class TestConfig:
    def test_defaults_match_published_settings(self):
        assert acceptance.WINDOW_WIDTH == 40
        assert acceptance.DEFAULT_HEIGHT_CUTOFF == 12
        assert acceptance.BOX_RADIUS == 5
        assert acceptance.DUALITY_SAMPLES == 50
        # the box has room for the distinct draws of both samplers, so each
        # finishes: 50 of its 11**4 4-tuples for Serre duality, and 20 of
        # its 11**2 pairs besides the fixed samples for the cross-route check
        seed = acceptance.DEFAULT_SEED
        samples = _sampled_coefficients(random.Random(seed * 101 + 8), 50)
        assert len(set(samples)) == 50
        pairs = _sampled_coefficients(
            random.Random(seed * 101 + 9), 20, 2, NONZERO_H3_SAMPLES
        )
        assert len(set(pairs)) == 20 and not set(pairs) & set(NONZERO_H3_SAMPLES)


class TestFixtures:
    def test_directory_override(self, tmp_path, monkeypatch):
        # load_fixture reads from fixtures_dir(); an empty one has nothing
        assert fixtures_dir().name == "fixtures"
        monkeypatch.setattr(acceptance, "fixtures_dir", lambda: tmp_path)
        with pytest.raises(FixtureError, match="cannot read"):
            load_fixture("inversion_sets.json")

    def test_malformed_fixture_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setattr(acceptance, "fixtures_dir", lambda: tmp_path)
        (tmp_path / "broken.json").write_text("[1, 2", encoding="utf-8")
        with pytest.raises(FixtureError, match="not valid JSON"):
            load_fixture("broken.json")
        (tmp_path / "list.json").write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(FixtureError, match="JSON object"):
            load_fixture("list.json")

    def test_tampered_golden_reported_as_mismatch(self, tmp_path, monkeypatch):
        src = fixtures_dir()
        for name in src.glob("*.json"):
            shutil.copy(name, tmp_path / name.name)
        data = json.loads((tmp_path / "inversion_sets.json").read_text())
        data["w"]["K"][0] = [1, 1, 1, 1, 1]
        (tmp_path / "inversion_sets.json").write_text(json.dumps(data))
        monkeypatch.setattr(acceptance, "fixtures_dir", lambda: tmp_path)
        # the engine alone, on the one criterion the tampered fixture feeds
        monkeypatch.setattr(acceptance, "_CRITERIA", acceptance._CRITERIA[2:3])
        (result,) = run_acceptance().results
        assert not result.passed
        assert result.kind == "mismatch"
        assert "K(w)" in result.detail

    def test_swapped_block_weights_reported_as_mismatch(self, monkeypatch):
        # the nine-dimensional blocks with their highest weights exchanged
        # keep every (dimension, scaling weight) pair; criterion 2 compares
        # each block's highest weight too
        blocks = acceptance.decompose_module()
        top = {s.cstar: s.highest_weight for s in blocks}
        swapped = tuple(type(s)(top[-s.cstar], s.cstar, s.dim) for s in blocks)
        assert swapped != blocks
        monkeypatch.setattr(acceptance, "decompose_module", lambda: swapped)
        monkeypatch.setattr(acceptance, "_CRITERIA", acceptance._CRITERIA[1:2])
        (result,) = run_acceptance().results
        assert result.number == 2 and result.kind == "mismatch"
        assert result.detail.startswith("(dim, weight, highest weight) summands")

    def test_bad_catalog_involution_reported_as_mismatch(self, monkeypatch):
        # the arrow 1-2 of A3 squares to the identity but sends
        # alpha_2 + alpha_3 to -(alpha_1 + alpha_3), which is no root
        monkeypatch.setitem(satake.CATALOG, "bad-A3", "type A3\narrow 1 2")
        # the two route comparisons ahead of the catalog pass as stubs, which
        # keeps this to the catalog path
        monkeypatch.setattr(acceptance, "_characters_agree", lambda *_: True)
        monkeypatch.setattr(acceptance, "_convolved_terms", lambda s: s.terms())
        monkeypatch.setattr(acceptance, "_CRITERIA", acceptance._CRITERIA[9:10])
        (result,) = run_acceptance().results
        satake.catalog_diagram.cache_clear()
        assert result.number == 10 and result.kind == "mismatch"
        assert result.detail == "bad-A3 does not induce an involution"
